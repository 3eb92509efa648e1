/// \file imm_distributed.cpp
/// \brief IMM_dist: the hybrid distributed implementation (Section 3.2).
///
/// Layout, as in the paper: every rank holds the whole input graph and owns
/// a partition R_i of the samples; sample generation is evenly split (rank
/// r produces the global sample indices congruent to r mod p); seed
/// selection keeps an n-entry counter array per rank, aggregated with an
/// All-Reduce once per greedy round, after which choosing the seed and
/// purging the local partition are rank-local operations.  The dominant
/// communication is therefore the k All-Reduce operations per selection.
///
/// Sparse selection exchange (ImmOptions::selection_exchange, DESIGN.md §8)
/// replaces that per-round n-word allreduce with the three-stage protocol
/// built from the kernels in select.hpp: (1) allgather each rank's top-m
/// (vertex, count) pairs plus one outside-bound word and certify the argmax
/// from the merged union; (2) on bound failure, a targeted allreduce of
/// just the candidate union plus one outside word; (3) as a last resort, a
/// dense exchange against a cached global counter vector kept current with
/// retirement *deltas* (allgatherv of only the touched counters) instead of
/// a full re-reduce.  Every stage decides from identically gathered data,
/// so all ranks take the same branch and the seed sequence — including the
/// smallest-id tie-break — is bit-identical to the dense protocol's.
///
/// Self-healing (ImmOptions::recover_failures): because every sample i is
/// drawn from its own Philox counter stream (seed, i), a dead rank's
/// partition is a *recomputable* function of (seed, stream, count), not
/// unique state.  When a collective raises mpsim::RankFailed the
/// survivors shrink the communicator, deterministically re-assign the dead
/// ranks' streams among themselves (round-robin over the dense survivor
/// order, replayed identically on every rank), regenerate the lost samples
/// bit-for-bit, and restart the martingale loop.  The restart is cheap and
/// safe by construction: extend_to() is a no-op for already-reached targets
/// and select() recomputes its counters from the local collection on every
/// call, so the replayed run makes exactly the decisions of a failure-free
/// run and returns the identical seed set.
#include "imm/imm.hpp"

#include <algorithm>
#include <mutex>
#include <omp.h>
#include <optional>
#include <vector>

#include "imm/imm_checkpoint.hpp"
#include "imm/imm_core.hpp"
#include "imm/sampler.hpp"
#include "imm/sampler_fused.hpp"
#include "imm/select.hpp"
#include "imm/steal.hpp"
#include "mpsim/communicator.hpp"
#include "support/assert.hpp"
#include "support/steal_schedule.hpp"
#include "support/trace.hpp"

namespace ripples {

namespace {

metrics::Counter &regen_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.regen.rrr_sets");
  return c;
}

metrics::Counter &stolen_chunks_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.steal.chunks_stolen");
  return c;
}

metrics::Counter &stolen_sets_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.steal.sets_stolen");
  return c;
}

/// Generation at explicit global indices, honoring the engine knob: the
/// fused kernel batches 64 per-sample streams per traversal pass and is
/// byte-identical to the scalar path (DESIGN.md §10), so every window
/// generator — stream list, steal chunk, heal range — dispatches through
/// here.
/// \p shared_table is the solve's fused edge table, built once before the
/// ranks start; every call passes it, and it is null exactly when the run
/// is governed (or scalar).  A governed fused window then builds its own
/// table inside a budget reservation of exactly what it holds (consumer
/// "sampler.fused_lanes"), falling back to the byte-identical scalar
/// kernel when refused — DESIGN.md §12's fused-lane rung.
std::uint64_t generate_counter_indices(const CsrGraph &graph,
                                       const ImmOptions &options,
                                       const FusedEdgeTable *shared_table,
                                       std::span<const std::uint64_t> indices,
                                       RRRCollection &collection) {
  // A null table selects the scalar engine.  A rank's threads share the
  // indices through the kernels' own dynamic OpenMP schedule (DESIGN.md §13).
  auto generate = [&](const FusedEdgeTable *table) -> std::uint64_t {
    if (table != nullptr)
      return sample_counter_indices_fused(*table, options.seed, indices,
                                          options.num_threads, collection);
    return sample_counter_indices(graph, options.model, options.seed, indices,
                                  options.num_threads, collection);
  };
  if (options.sampler != SamplerEngine::Fused) return generate(nullptr);
  if (shared_table != nullptr) return generate(shared_table);
  std::uint64_t generated = 0;
  detail::with_fused_window(graph, options.model, options.num_threads,
                            [&](const FusedEdgeTable *table) {
                              generated = generate(table);
                            });
  return generated;
}

} // namespace

ImmResult imm_distributed(const CsrGraph &graph, const ImmOptions &options) {
  RIPPLES_ASSERT(options.num_ranks >= 1);
  RIPPLES_ASSERT(options.num_threads >= 1);

  ImmResult result;
  StopWatch total;
  trace::Span driver_span("imm", "imm_distributed", "k", options.k, "ranks",
                          static_cast<std::uint64_t>(options.num_ranks));
  // Bracket the execution so the report carries only this run's volume.
  const mpsim::CommStatsSnapshot comm_before = mpsim::comm_stats();
  detail::MartingaleOutcome report_outcome;
  std::mutex report_mutex; // guards the cross-rank histogram merge
  detail::RoundLedger ledger; // per-rank, per-round phase accounting (v5)

  mpsim::RunOptions run_options;
  run_options.num_ranks = options.num_ranks;
  run_options.recover = options.recover_failures;
  run_options.watchdog = std::chrono::milliseconds{options.watchdog_ms};
  run_options.evict_stalled = options.evict_stalled;
  run_options.faults = mpsim::parse_fault_plan(options.fault_plan);
  run_options.verify_collectives = options.verify_collectives;

  // Memory governance (DESIGN.md §12): the budget and kind=oom plan are
  // process-wide (ranks are threads sharing one MemoryTracker); fault sites
  // count per rank via the trace rank, so a plan can starve one rank while
  // its peers keep reserving — the heal-composition scenario.
  detail::ScopedBudget budget(options.mem_budget, options.rrr_compress,
                              detail::oom_faults_from_plan(options.fault_plan));

  // The fused engine's edge table (DESIGN.md §10), built once per solve:
  // mpsim ranks are threads sharing the graph, so every rank and thread
  // reads this one copy, and a steal chunk costs no O(m) set-up.  Governed
  // runs leave it unbuilt — each admission window charges and builds its
  // own (generate_counter_indices).
  std::optional<FusedEdgeTable> fused_table;
  if (options.sampler == SamplerEngine::Fused && !budget.governed())
    fused_table.emplace(graph, options.model);
  const FusedEdgeTable *shared_table = fused_table ? &*fused_table : nullptr;

  // Checkpoint/restart (DESIGN.md §9): the martingale state is replicated —
  // every rank reaches each round boundary with identical progress — so the
  // dense rank 0 alone snapshots it, together with the per-stream sample
  // counts that let a fresh process regenerate every partition.
  detail::DriverCheckpoint ckpt =
      detail::prepare_driver_checkpoint("imm_distributed", graph, options,
                                        result);

  mpsim::Context::run(run_options, [&](mpsim::Communicator &comm) {
    // The sample index space is partitioned by *world* coordinates for the
    // whole run: stream s (s in [0, p)) owns the global indices congruent
    // to s mod p, where p is the launch-time rank count.  Healing changes
    // which rank *holds* a stream, never the stream structure itself —
    // that invariance is what keeps R, and hence the seed set, identical
    // across failure scenarios.
    const int p = comm.world_size();
    const auto stride = static_cast<std::uint64_t>(p);
    const vertex_t n = graph.num_vertices();

    // The union of the streams this rank currently holds.  Ungoverned, each
    // extend is one admission window.  Governed (budget, forced compression,
    // or oom faults), every chunk is budget-charged, and refusal — after the
    // compress and shed rungs — is a *hard* MemoryBudgetExceeded here
    // rather than a certified early stop, because a rank-local truncation
    // would silently break the cross-rank agreement on |R|.  The refusing
    // rank flushes pending checkpoint snapshots first and, under
    // --recover, dies like any other failed rank: survivors whose
    // reservations still succeed adopt its streams and continue.
    detail::RRRStore store(detail::store_policy(
        graph, options, budget, "imm_distributed.rrr",
        /*hard_refusal=*/true));
    std::uint64_t global_count = 0;
    // The in-flight window's target: global_count only advances once a
    // window completes, so when a failure surfaces *mid-window* (the steal
    // drain loop can throw RankFailed the moment a thief's retry budget
    // exhausts against a corrupted queue, long before the footprint
    // allreduce) this records how far the interrupted window meant to go —
    // healing completes the window instead of letting the replay re-execute
    // chunks the survivors already hold.
    std::uint64_t window_target = 0;

    // The world streams this rank holds: initially exactly its own, and
    // healing appends each stream it adopts.
    std::vector<std::uint64_t> owned{
        static_cast<std::uint64_t>(comm.world_rank())};

    // stream -> world rank currently holding it.  Every rank maintains the
    // full map by replaying the same shrink events with the same
    // deterministic re-assignment rule, so all survivors agree on who
    // regenerates what without any extra communication.
    std::vector<int> stream_owner(static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) stream_owner[static_cast<std::size_t>(s)] = s;

    // Work-stealing placement (DESIGN.md §13).  Stealing and skew require
    // an ungoverned store: budget admission windows are rank-local, so a
    // migrated chunk would be charged to the wrong rank's ladder.
    const bool stealing =
        !budget.governed() && p > 1 && options.steal == StealMode::On;
    const bool skew = options.steal_skew && !budget.governed();
    // With stealing or a skewed partition the stream -> rank map no
    // longer says where samples live, so each rank records the global draw
    // ranges it actually executed; healing then gathers the survivors'
    // inventories and regenerates exactly the ranges nobody holds.
    const bool flexible_placement = stealing || skew;
    detail::StreamInventory inventory;

    // Generator of the listed streams' draws in the global window
    // [lo, lo + count).  It captures the stream ids by value: the store
    // journals a copy of every generator for scrub repair, and healing grows
    // `owned` — a by-reference capture would replay old windows with the new
    // stream set and break the bit-identical-regeneration contract.
    auto stream_generator = [&graph, &options, shared_table, stride](
                                std::vector<std::uint64_t> streams)
        -> detail::RRRStore::WindowGenerator {
      return [&graph, &options, shared_table, stride,
              streams = std::move(streams)](RRRCollection &out,
                                            std::uint64_t lo,
                                            std::uint64_t count) {
        std::vector<std::uint64_t> indices;
        for (std::uint64_t s : streams)
          append_stream_indices(indices, lo, lo + count, s, stride);
        generate_counter_indices(graph, options, shared_table, indices, out);
      };
    };

    // Placement-flexible generator: the window's draws become chunks keyed
    // by (stream, global-index range).  Under skew the first live member
    // homes every stream's chunks (the manufactured fig7 pathology);
    // otherwise each rank chunks its own streams.  Flexible placement needs
    // an ungoverned store, which admits an extend as one window and never
    // compresses: this runs once per extend and scrub never replays it.
    auto flexible_generate = [&](RRRCollection &out, std::uint64_t lo,
                                 std::uint64_t count) {
      const std::uint64_t hi = lo + count;
      std::vector<detail::ChunkRange> mine;
      if (!skew || comm.world_rank() == comm.members().front()) {
        auto chunk_stream = [&](std::uint64_t s) {
          std::vector<detail::ChunkRange> chunks = detail::make_stream_chunks(
              lo, hi, s, stride, options.steal_chunk);
          mine.insert(mine.end(), chunks.begin(), chunks.end());
        };
        if (skew)
          for (std::uint64_t s = 0; s < stride; ++s) chunk_stream(s);
        else
          for (std::uint64_t s : owned) chunk_stream(s);
      }
      // Executing a chunk is executor-independent: the RNG coordinates
      // come from the chunk's global stream indices, so a stolen chunk
      // emits byte-for-byte the sets its home rank would have.
      auto execute_chunk = [&](const detail::ChunkRange &c, bool stolen) {
        std::vector<std::uint64_t> indices;
        append_stream_indices(indices, c.begin, c.end, c.stream, stride);
        if (indices.empty()) return;
        // Same category as the enclosing sampler.dist_batch span, so
        // analyze_trace's toplevel-coverage invariants see one batch.
        trace::Span chunk_span("sampler", "sampler.steal_chunk", "stream",
                               c.stream, "count", indices.size());
        if (stolen) chunk_span.arg("stolen", 1);
        generate_counter_indices(graph, options, shared_table, indices, out);
        inventory.add(c.stream, c.begin, c.end);
        if (stolen && metrics::enabled()) {
          stolen_chunks_counter().increment();
          stolen_sets_counter().add(indices.size());
        }
      };
      if (!stealing) {
        for (const detail::ChunkRange &c : mine) execute_chunk(c, false);
        return;
      }
      // Publish unconditionally — an empty list included — so every rank
      // consumes the same steal site before its first acquire and early
      // fault-site numbering stays deterministic.
      std::vector<mpsim::Communicator::StealItem> items;
      items.reserve(mine.size());
      for (const detail::ChunkRange &c : mine)
        items.push_back({c.stream, c.begin, c.end});
      comm.steal_publish(items);
      // Publish visibility barrier: a thief whose own list is empty (the
      // skewed case) reaches the drain loop immediately, and without this
      // sync it can scan every queue before the loaded rank has published,
      // conclude the window is drained, and leave all the work where the
      // static partition put it.  After the barrier, queues only shrink, so
      // empty-everywhere really means the window's chunks are all claimed.
      comm.barrier();
      // Drain-and-steal loop.  No further termination protocol needed: a
      // rank finding every queue empty proceeds to the footprint allreduce
      // after the window, which is the window's real barrier.
      std::uint64_t step = 0;
      for (;;) {
        const steal_schedule::Decision d =
            steal_schedule::decide(comm.world_rank(), step++);
        mpsim::Communicator::StealItem item;
        bool have = false;
        bool stolen = false;
        bool tried = false;
        auto acquire = [&] {
          tried = true;
          return comm.steal_acquire(item, d.victim_offset);
        };
        if (d.allow_steal && d.steal_first) stolen = have = acquire();
        if (!have) have = comm.steal_pop(item);
        if (!have && d.allow_steal && !tried) stolen = have = acquire();
        if (!have) break;
        execute_chunk({item.tag, item.begin, item.end}, stolen);
      }
    };

    auto extend_to = [&](std::uint64_t target) {
      if (target <= global_count) return;
      window_target = target;
      // Rank-local slice of the batch; the sets arg is attached at the end,
      // once the store has admitted the window.
      trace::Span batch_span("sampler", "sampler.dist_batch", "target", target);
      if (flexible_placement) {
        store.extend_window(global_count, target, flexible_generate);
      } else {
        // The static partition: this rank's own streams.  Philox streams
        // are keyed by the global index, so R is independent of p, and
        // generation may additionally use OpenMP threads (the paper's hybrid
        // MPI+OpenMP configuration).
        store.extend_window(global_count, target, stream_generator(owned));
      }
      global_count = target;
      batch_span.arg("local_sets", store.size());
      trace::counter("rrr_sets", store.size());

      // Aggregate representation footprint across ranks (the paper reports
      // per-node memory pressure; the sum is the cluster-wide cost).
      // The store samples its footprint at every admission, so its peak also
      // covers the plain sets it held just before compressing mid-window.
      std::uint64_t footprint[2] = {store.peak_footprint_bytes(),
                                    store.total_associations()};
      comm.allreduce(std::span<std::uint64_t>(footprint, 2),
                     mpsim::ReduceOp::Sum);
      if (comm.rank() == 0) {
        result.rrr_peak_bytes =
            std::max(result.rrr_peak_bytes, static_cast<std::size_t>(footprint[0]));
        result.total_associations = std::max(
            result.total_associations, static_cast<std::size_t>(footprint[1]));
      }
    };

    std::vector<std::uint32_t> global_counts(n);
    const bool sparse =
        options.selection_exchange == SelectionExchange::Sparse;
    const std::uint32_t topm = std::max<std::uint32_t>(1, options.selection_topm);
    // Alg. 4 over this rank's partition on its --threads team, with the
    // round's pick made through the exchange on the rank's own thread (the
    // team's primary).  The body counts the local memberships; the pick
    // aggregates them across ranks; choosing the seed and purging the local
    // partition are then rank-local, identical on every rank.
    auto select = [&]() -> SelectionResult {
      trace::Span span("select", "select.distributed", "k", options.k,
                       "samples", store.size());
      // Sparse-exchange state, all local to this invocation: a healing
      // restart re-enters select() and rebuilds it from the (intact) local
      // counters, so a failure inside any sparse collective recovers to the
      // same place a dense run would.  `global_counts` doubles as the
      // stage-3 cache of the true global vector; `retire_log` accumulates
      // the retirement decrements not yet folded into it.
      bool cache_valid = false;
      RetireLog retire_log(sparse ? n : 0);
      using Counts = std::span<const std::uint32_t>;
      using Flags = std::span<const std::uint8_t>;

      // Stage 3: brings the cached global counter vector current — a full
      // allreduce the first time, afterwards an allgatherv of only the
      // counters retirement touched since the last sync (every rank applies
      // every rank's decrements, so the caches stay identical).
      auto dense_resync = [&](Counts local_counts) {
        if (!cache_valid) {
          std::copy(local_counts.begin(), local_counts.end(),
                    global_counts.begin());
          comm.allreduce(std::span<std::uint32_t>(global_counts),
                         mpsim::ReduceOp::Sum);
          detail::record_exchange_words(n);
          cache_valid = true;
        } else {
          std::vector<CounterPair> deltas;
          deltas.reserve(retire_log.pending_touched.size());
          for (vertex_t v : retire_log.pending_touched)
            deltas.push_back({v, retire_log.pending_dec[v]});
          detail::record_exchange_words(2 * deltas.size());
          const std::vector<CounterPair> all =
              comm.allgatherv(std::span<const CounterPair>(deltas));
          for (const CounterPair &d : all) {
            RIPPLES_DEBUG_ASSERT(global_counts[d.vertex] >= d.count);
            global_counts[d.vertex] -= d.count;
          }
        }
        for (vertex_t v : retire_log.pending_touched)
          retire_log.pending_dec[v] = 0;
        retire_log.pending_touched.clear();
      };

      // One sparse round: escalate through the three stages until one
      // certifies the argmax.  Every decision below is a pure function of
      // collectively gathered data, so all ranks agree on each branch.
      auto sparse_round = [&](std::uint32_t round, Counts local_counts,
                              Flags selected) -> vertex_t {
        // Stage 1: top-m union-merge with the provable-winner bound.
        TopmSummary mine = sparse_topm(local_counts, selected, topm);
        detail::record_exchange_words(2 * mine.top.size() + 1);
        std::vector<std::vector<CounterPair>> tops =
            comm.allgatherv_ranks(std::span<const CounterPair>(mine.top));
        const std::vector<std::uint32_t> bounds =
            comm.allgather(mine.outside_bound);
        std::vector<TopmSummary> summaries(tops.size());
        for (std::size_t r = 0; r < tops.size(); ++r)
          summaries[r] = {std::move(tops[r]), bounds[r]};
        const SparseMergeResult merged = sparse_merge(summaries);
        detail::record_sparse_round(merged.certified);
        if (merged.certified) return merged.winner;

        // Stage 2: targeted re-reduce — exact counts of the candidate
        // union plus each rank's exact maximum outside it (summed, a
        // tighter outside bound than stage 1's).
        detail::record_candidate_fallback();
        trace::instant("select", "select.sparse_candidate_fallback", "round",
                       round);
        std::vector<std::uint32_t> exact(merged.candidates.size() + 1, 0);
        std::uint32_t outside_max = 0;
        for (vertex_t v = 0; v < n; ++v) {
          if (selected[v]) continue;
          if (std::binary_search(merged.candidates.begin(),
                                 merged.candidates.end(), v))
            continue;
          outside_max = std::max(outside_max, local_counts[v]);
        }
        for (std::size_t c = 0; c < merged.candidates.size(); ++c)
          exact[c] = local_counts[merged.candidates[c]];
        exact.back() = outside_max;
        detail::record_exchange_words(exact.size());
        comm.allreduce(std::span<std::uint32_t>(exact), mpsim::ReduceOp::Sum);
        const SparseExactResult proven = sparse_certify_exact(
            merged.candidates,
            std::span<const std::uint32_t>(exact.data(),
                                           merged.candidates.size()),
            exact.back());
        if (proven.certified) return proven.winner;

        // Stage 3: dense fallback against the delta-maintained cache.
        detail::record_dense_fallback();
        trace::instant("select", "select.sparse_dense_fallback", "round",
                       round);
        dense_resync(local_counts);
        return argmax_counter(global_counts, selected);
      };

      SelectionHooks hooks;
      hooks.pick = [&](std::uint32_t round, Counts local_counts,
                       Flags selected) -> vertex_t {
        if (sparse) return sparse_round(round, local_counts, selected);
        // The All-Reduce that dominates the communication (O(k n lg p)
        // total).  The local counts are copied, never reduced in place: a
        // failure mid-allreduce may leave the target buffer partially
        // combined, and the healing restart depends on the inputs
        // surviving intact.
        std::copy(local_counts.begin(), local_counts.end(),
                  global_counts.begin());
        comm.allreduce(std::span<std::uint32_t>(global_counts),
                       mpsim::ReduceOp::Sum);
        detail::record_exchange_words(n);
        return argmax_counter(global_counts, selected);
      };
      // Sparse mode logs the decrements so stage 3 can delta-sync.
      if (sparse) hooks.log = &retire_log;
      SelectionResult selection =
          store.select(n, options.k, options.num_threads, hooks);

      std::uint64_t totals[2] = {selection.covered_samples, store.size()};
      comm.allreduce(std::span<std::uint64_t>(totals, 2), mpsim::ReduceOp::Sum);
      selection.covered_samples = totals[0];
      selection.total_samples = totals[1];
      return selection;
    };

    // Adopts the streams this shrink orphaned: every survivor replays the
    // identical assignment (lost streams in ascending order, round-robin
    // over the dense survivor list), and the new holder regenerates the
    // lost samples from the stream's coordinates — same Philox streams,
    // same index walk, hence bit-identical sets.
    auto heal = [&](const mpsim::ShrinkResult &shrink) {
      trace::Span span("imm", "imm.heal", "dead", shrink.newly_dead.size());
      std::vector<std::uint64_t> lost;
      for (std::uint64_t s = 0; s < stride; ++s) {
        int holder = stream_owner[static_cast<std::size_t>(s)];
        if (std::find(shrink.newly_dead.begin(), shrink.newly_dead.end(),
                      holder) != shrink.newly_dead.end())
          lost.push_back(s);
      }
      for (std::size_t j = 0; j < lost.size(); ++j) {
        const std::uint64_t s = lost[j];
        const int new_holder = shrink.members[j % shrink.members.size()];
        stream_owner[static_cast<std::size_t>(s)] = new_holder;
        if (new_holder == comm.world_rank()) owned.push_back(s);
      }
      // What died.  With a static partition, every sample of a lost stream.
      // With stealing or skew the dead ranks may have executed anyone's
      // chunks (and survivors theirs), so the stream map cannot say: gather
      // every survivor's executed-range inventory and take its gaps.  Those
      // heal to the *in-flight* window target, not just the last completed
      // one: a corruption escalation can abort the drain loop mid-window,
      // leaving executed-but-unacknowledged chunks in the survivors'
      // inventories and unexecuted ones in dead (or soon-cleared) queues.
      // Regenerating every gap up to the interrupted target and advancing
      // global_count turns the martingale replay's extend into a no-op —
      // nothing is sampled twice and nothing is lost.
      std::uint64_t heal_target = global_count;
      std::vector<detail::ChunkRange> ranges;
      if (flexible_placement) {
        heal_target = std::max(global_count, window_target);
        const std::vector<std::uint64_t> flat = inventory.serialize();
        const std::vector<std::uint64_t> gathered =
            comm.allgatherv(std::span<const std::uint64_t>(flat));
        ranges = detail::missing_ranges(gathered, stride, heal_target);
      } else {
        for (std::uint64_t s : lost) ranges.push_back({s, 0, global_count});
      }
      // Each range regenerates on its stream's new holder through the same
      // admission as fresh sampling: under a budget an adopting rank can
      // itself be refused, the same diagnosed failure as anywhere else.
      const std::size_t before = store.size();
      for (const detail::ChunkRange &r : ranges) {
        if (stream_owner[static_cast<std::size_t>(r.stream)] !=
            comm.world_rank())
          continue;
        store.extend_window(r.begin, r.end, stream_generator({r.stream}));
        if (flexible_placement) inventory.add(r.stream, r.begin, r.end);
      }
      global_count = heal_target;
      const std::uint64_t regenerated = store.size() - before;
      if (metrics::enabled()) regen_counter().add(regenerated);
      span.arg("regenerated", regenerated);
      trace::counter("rrr_sets", store.size());
    };

    // Round-boundary snapshot: progress is replicated, so the current dense
    // rank 0 writes for everyone (a healed run keeps exactly one writer).
    // Acceptance boundaries force past the --checkpoint-every thinning —
    // they gate the long final phase, the costliest state to lose.
    auto round_hook = [&](const detail::MartingaleProgress &progress) {
      if (!ckpt.enabled() || comm.rank() != 0)
        return;
      ckpt.manager->observe(
          detail::snapshot_from_progress(
              ckpt.fingerprint, progress,
              detail::leapfrog_stream_counts(progress.num_samples, stride)),
          progress.accepted);
    };

    PhaseTimers timers;
    detail::MartingaleOutcome outcome;
    // A healing restart replays the loop, so a rank that survives a failure
    // contributes one ledger row per round per attempt — truthful accounting
    // of the work actually done, not of the logical round structure.
    detail::RoundAccounting acct{&ledger, comm.world_rank(), [&] {
      return std::pair<std::uint64_t, std::uint64_t>(store.size(),
                                                     store.footprint_bytes());
    }};
    for (;;) {
      try {
        outcome = detail::run_imm_martingale(n, options.k, options.epsilon,
                                             options.l, extend_to, select,
                                             timers, ckpt.resume_progress(),
                                             round_hook, acct);
        break;
      } catch (const mpsim::RankFailed &failed) {
        // Survivable failure: agree on the dead set, adopt their streams,
        // and re-run the martingale.  The replay is deterministic — the
        // no-op extends and recomputed selections retrace the exact
        // decision sequence — so the healed run's seed set matches a
        // failure-free run bit for bit.
        trace::instant("imm", "imm.rank_failed", "dead",
                       failed.dead_ranks().size());
        heal(comm.shrink());
      }
    }
    // Dense rank 0 — world rank 0 unless it died — records the outcome.
    if (comm.rank() == 0) {
      result.seeds = outcome.selection.seeds;
      result.theta = outcome.theta;
      result.num_samples = outcome.num_samples;
      result.lower_bound = outcome.lower_bound;
      result.coverage_fraction = outcome.selection.coverage_fraction();
      result.degraded = outcome.degraded;
      result.epsilon_achieved = outcome.epsilon_achieved;
      result.timers = timers;
      report_outcome = std::move(outcome);
    }

    // Every rank holds whole samples of its partition, so merging the
    // per-rank histograms yields the exact global size distribution — the
    // adopted streams stand in for the dead ranks' contributions.
    metrics::HistogramData local_sizes;
    store.record_sizes(local_sizes);
    {
      std::lock_guard<std::mutex> lock(report_mutex);
      result.report.rrr_sizes.merge(local_sizes);
    }
  });

  result.timers.add(Phase::Other,
                    total.elapsed_seconds() - result.timers.total());
  result.report.collectives = mpsim::comm_stats().since(comm_before).nonzero();
  result.report.rounds = ledger.entries();
  detail::finalize_run_report(result, "imm_distributed", graph, options,
                              report_outcome);
  return result;
}

} // namespace ripples
