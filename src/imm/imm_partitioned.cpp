/// \file imm_partitioned.cpp
/// \brief Graph-partitioned distributed IMM (the paper's future-work item
/// "extension to settings where the input graph is also partitioned").
///
/// Layout: rank r owns vertices [n*r/p, n*(r+1)/p) and their incoming
/// edges.  GenerateRR becomes a distributed level-synchronous reverse BFS:
///
///   1. every rank derives the sample's root from the shared per-sample
///      stream (no communication);
///   2. each level, a rank expands the frontier vertices it owns across
///      their in-edges (IC: every edge fires independently; LT: at most one
///      edge per vertex), producing candidate predecessors anywhere in the
///      graph;
///   3. candidates are exchanged (allgatherv); each rank claims the ones it
///      owns, discards already-visited ones, and they form its next local
///      frontier;
///   4. a scalar allreduce detects global frontier exhaustion.
///
/// Each rank thus accumulates the slice of every RRR set that falls in its
/// vertex interval — which is exactly the data seed selection needs, since
/// Algorithm 4 already partitions counter ownership by vertex interval.
/// Selection reuses the Section 3.2 counter allreduce; sample retirement
/// additionally needs one theta-length flag broadcast from the selected
/// seed's owner, because no rank holds whole samples anymore.
///
/// Randomness: the draws for the in-edges of vertex v in sample i come from
/// a Philox stream keyed by (seed, i, v).  Every edge is examined by
/// exactly one rank (the owner of its head), so the sampled subgraph
/// distribution is exactly the model's, and the realized experiment is
/// independent of p.
#include "imm/imm.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "imm/imm_checkpoint.hpp"
#include "imm/imm_core.hpp"
#include "imm/rrr.hpp"
#include "imm/select.hpp"
#include "mpsim/communicator.hpp"
#include "rng/splitmix.hpp"
#include "support/assert.hpp"
#include "support/trace.hpp"

namespace ripples {

namespace {

/// Stream for the in-edge draws of vertex \p v in sample \p sample_index.
Philox4x32 vertex_stream(std::uint64_t seed, std::uint64_t sample_index,
                         vertex_t v) {
  // Mix the sample index into the key and use the vertex as the stream so
  // (sample, vertex) pairs never share a counter block.
  return Philox4x32(splitmix64_mix(seed ^ (sample_index * 0x9e3779b97f4a7c15ULL)),
                    v);
}

} // namespace

ImmResult imm_distributed_partitioned(const CsrGraph &graph,
                                      const ImmOptions &options) {
  RIPPLES_ASSERT(options.num_ranks >= 1);
  // options.sampler is ignored: the fused engine (DESIGN.md §10)
  // batches 64 whole *samples* per traversal pass, but here no rank ever
  // traverses a whole sample — each level of every sample is a distributed
  // exchange, and edge draws come from per-(sample, vertex) streams rather
  // than the per-sample streams the fused lane layout assumes.  The driver
  // stays on its scalar distributed-BFS kernel in both modes, which the
  // driver_matrix fused axis verifies.

  ImmResult result;
  StopWatch total;
  trace::Span driver_span("imm", "imm_distributed_partitioned", "k", options.k,
                          "ranks", static_cast<std::uint64_t>(options.num_ranks));
  // Bracket the execution so the report carries only this run's volume.
  const mpsim::CommStatsSnapshot comm_before = mpsim::comm_stats();
  detail::MartingaleOutcome report_outcome;
  std::mutex report_mutex; // guards the cross-rank histogram merge
  detail::RoundLedger ledger; // per-rank, per-round phase accounting (v5)

  // The partitioned driver takes the watchdog and fault plan but not
  // recovery: graph slices are not recomputable from RNG coordinates the
  // way sample partitions are, so a rank failure aborts (fail-stop) rather
  // than healing.  ImmOptions::recover_failures is deliberately ignored.
  mpsim::RunOptions run_options;
  run_options.num_ranks = options.num_ranks;
  run_options.watchdog = std::chrono::milliseconds{options.watchdog_ms};
  run_options.faults = mpsim::parse_fault_plan(options.fault_plan);
  // Checksummed exchanges compose with fail-stop: retries still mask
  // transient flips, and exhaustion aborts with the diagnosed corrupter.
  run_options.verify_collectives = options.verify_collectives;

  // Checkpoint/restart (DESIGN.md §9): every sample slice is a pure function
  // of (seed, sample index, vertex) via the per-(sample,vertex) Philox keys,
  // so the snapshot needs no per-rank stream coordinates at all — an empty
  // stream_counts vector and the martingale state fully determine the run.
  detail::DriverCheckpoint ckpt = detail::prepare_driver_checkpoint(
      "imm_distributed_partitioned", graph, options, result);

  mpsim::Context::run(run_options, [&](mpsim::Communicator &comm) {
    const auto p = static_cast<std::uint64_t>(comm.size());
    const auto rank = static_cast<std::uint64_t>(comm.rank());
    const vertex_t n = graph.num_vertices();
    const auto vl = static_cast<vertex_t>(n * rank / p);
    const auto vh = static_cast<vertex_t>(n * (rank + 1) / p);
    // Owner of v: the unique r with n*r/p <= v < n*(r+1)/p.  Start from the
    // estimate r = v*p/n and fix up the integer-division boundary cases.
    auto owner = [&](vertex_t v) -> int {
      auto r = static_cast<std::uint64_t>(v) * p / n;
      while (static_cast<std::uint64_t>(v) <
             static_cast<std::uint64_t>(n) * r / p)
        --r;
      while (static_cast<std::uint64_t>(v) >=
             static_cast<std::uint64_t>(n) * (r + 1) / p)
        ++r;
      return static_cast<int>(r);
    };

    // slices[j] = sorted owned members of sample j.
    std::vector<std::vector<vertex_t>> slices;
    BitVector visited(n); // only bits in [vl, vh) are ever set

    std::vector<vertex_t> local_frontier;
    std::vector<vertex_t> candidates;

    auto generate_sample = [&](std::uint64_t sample_index,
                               std::vector<vertex_t> &slice) {
      slice.clear();
      // Root: same draw on every rank from the shared per-sample stream.
      Philox4x32 root_stream = sample_stream(options.seed, sample_index);
      auto root = static_cast<vertex_t>(uniform_index(root_stream, n));

      local_frontier.clear();
      if (root >= vl && root < vh) {
        visited.set(root);
        slice.push_back(root);
        local_frontier.push_back(root);
      }
      std::uint64_t global_frontier = 1;
      while (global_frontier > 0) {
        candidates.clear();
        for (vertex_t v : local_frontier) {
          Philox4x32 rng = vertex_stream(options.seed, sample_index, v);
          auto in_neighbors = graph.in_neighbors(v);
          if (options.model == DiffusionModel::IndependentCascade) {
            for (const Adjacency &in : in_neighbors)
              if (bernoulli(rng, in.weight)) candidates.push_back(in.vertex);
          } else {
            // LT: at most one incoming live edge per vertex.
            double x = uniform_unit(rng);
            double cumulative = 0.0;
            for (const Adjacency &in : in_neighbors) {
              cumulative += in.weight;
              if (x < cumulative) {
                candidates.push_back(in.vertex);
                break;
              }
            }
          }
        }
        // Exchange candidate predecessors; each rank claims its own.
        std::vector<vertex_t> all_candidates =
            comm.allgatherv(std::span<const vertex_t>(candidates));
        local_frontier.clear();
        for (vertex_t u : all_candidates) {
          if (u < vl || u >= vh) continue;
          if (!visited.test_and_set(u)) continue; // already a member
          slice.push_back(u);
          local_frontier.push_back(u);
        }
        std::uint64_t frontier_size[1] = {local_frontier.size()};
        comm.allreduce(std::span<std::uint64_t>(frontier_size, 1),
                       mpsim::ReduceOp::Sum);
        global_frontier = frontier_size[0];
      }
      for (vertex_t v : slice) visited.clear(v);
      std::sort(slice.begin(), slice.end());
    };

    auto extend_to = [&](std::uint64_t target) {
      std::uint64_t first = slices.size();
      if (target <= first) return;
      trace::Span batch_span("sampler", "sampler.dist_batch", "first", first,
                             "count", target - first);
      slices.resize(target);
      for (std::uint64_t i = first; i < target; ++i)
        generate_sample(i, slices[i]);
      trace::counter("rrr_sets", slices.size());

      std::uint64_t footprint[2] = {0, 0};
      for (const auto &slice : slices) {
        footprint[0] += slice.capacity() * sizeof(vertex_t) +
                        sizeof(std::vector<vertex_t>);
        footprint[1] += slice.size();
      }
      comm.allreduce(std::span<std::uint64_t>(footprint, 2),
                     mpsim::ReduceOp::Sum);
      if (comm.rank() == 0) {
        result.rrr_peak_bytes =
            std::max(result.rrr_peak_bytes, static_cast<std::size_t>(footprint[0]));
        result.total_associations = std::max(
            result.total_associations, static_cast<std::size_t>(footprint[1]));
      }
    };

    std::vector<std::uint32_t> local_counts(n);
    std::vector<std::uint32_t> global_counts(n);
    auto select = [&]() -> SelectionResult {
      trace::Span span("select", "select.partitioned", "k", options.k,
                       "samples", slices.size());
      // Count memberships over the owned slices (only indices in [vl, vh)
      // are ever touched).
      std::fill(local_counts.begin(), local_counts.end(), 0);
      for (const auto &slice : slices)
        for (vertex_t v : slice) ++local_counts[v];

      std::vector<std::uint8_t> retired(slices.size(), 0);
      std::vector<std::uint8_t> selected(n, 0);
      std::vector<std::uint8_t> contains(slices.size(), 0);

      SelectionResult selection;
      selection.total_samples = slices.size();
      for (std::uint32_t i = 0; i < options.k; ++i) {
        trace::Span round("select", "select.round", "round", i);
        std::copy(local_counts.begin(), local_counts.end(),
                  global_counts.begin());
        comm.allreduce(std::span<std::uint32_t>(global_counts),
                       mpsim::ReduceOp::Sum);
        detail::record_exchange_words(n);
        const vertex_t seed = argmax_counter(global_counts, selected);
        selected[seed] = 1;
        selection.seeds.push_back(seed);

        // Only the seed's owner knows which samples contain it; broadcast
        // the containment flags (the extra communication graph
        // partitioning costs: theta bytes per round).
        const int seed_owner = owner(seed);
        if (comm.rank() == seed_owner) {
          for (std::size_t j = 0; j < slices.size(); ++j)
            contains[j] =
                !retired[j] &&
                std::binary_search(slices[j].begin(), slices[j].end(), seed);
        }
        comm.broadcast(std::span<std::uint8_t>(contains), seed_owner);

        for (std::size_t j = 0; j < slices.size(); ++j) {
          if (!contains[j]) continue;
          retired[j] = 1;
          ++selection.covered_samples;
          for (vertex_t u : slices[j]) {
            RIPPLES_DEBUG_ASSERT(local_counts[u] > 0);
            --local_counts[u];
          }
        }
      }
      return selection;
    };

    auto round_hook = [&](const detail::MartingaleProgress &progress) {
      if (!ckpt.enabled() || comm.rank() != 0)
        return;
      ckpt.manager->observe(
          detail::snapshot_from_progress(ckpt.fingerprint, progress, {}),
          progress.accepted);
    };

    PhaseTimers timers;
    detail::RoundAccounting acct{&ledger, comm.world_rank(), [&] {
      std::uint64_t bytes = 0;
      for (const auto &slice : slices)
        bytes += slice.capacity() * sizeof(vertex_t) +
                 sizeof(std::vector<vertex_t>);
      return std::pair<std::uint64_t, std::uint64_t>(slices.size(), bytes);
    }};
    auto outcome = detail::run_imm_martingale(
        n, options.k, options.epsilon, options.l, extend_to, select, timers,
        ckpt.resume_progress(), round_hook, acct);
    if (comm.rank() == 0) {
      detail::finalize_result(result, outcome);
      result.timers = timers;
      report_outcome = std::move(outcome);
    }

    // No rank holds whole samples here: each slice is the fragment of a
    // sample falling in this rank's vertex interval, so the merged
    // histogram describes *fragment* sizes, not whole-sample sizes.
    metrics::HistogramData local_sizes;
    for (const auto &slice : slices) local_sizes.record(slice.size());
    {
      std::lock_guard<std::mutex> lock(report_mutex);
      result.report.rrr_sizes.merge(local_sizes);
    }
  });

  result.timers.add(Phase::Other,
                    total.elapsed_seconds() - result.timers.total());
  result.report.collectives = mpsim::comm_stats().since(comm_before).nonzero();
  result.report.rounds = ledger.entries();
  detail::finalize_run_report(result, "imm_distributed_partitioned", graph,
                              options, report_outcome);
  return result;
}

} // namespace ripples
