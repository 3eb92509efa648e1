/// \file imm_checkpoint.hpp
/// \brief Glue between the checkpoint subsystem and the mpsim IMM drivers.
///
/// The drivers share the whole checkpoint lifecycle: build a run
/// fingerprint, open the manager, load-validate-restore on `--resume`, and
/// snapshot from the martingale round hook.  Only the RNG coordinate layout
/// differs (per-rank streams of sample indices vs. per-(sample,vertex)
/// counter keys), so that is the one thing each driver supplies.  See DESIGN.md §9
/// for the resume-equivalence argument.
#ifndef RIPPLES_IMM_IMM_CHECKPOINT_HPP
#define RIPPLES_IMM_IMM_CHECKPOINT_HPP

#include <memory>
#include <optional>
#include <vector>

#include "graph/csr.hpp"
#include "imm/imm.hpp"
#include "imm/imm_core.hpp"
#include "support/checkpoint.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace ripples::detail {

/// The identity a snapshot must match before its coordinates may be
/// replayed.  Everything that changes R or the selection decision sequence
/// is included; presentation-only options (threads, watchdog, faults) are
/// deliberately not — resuming a crashed 4-thread run with 8 threads is
/// legitimate, resuming with a different epsilon is not.  The memory
/// governor (mem_budget, rrr_compress) is likewise excluded: it changes
/// where samples live, never which samples exist, so a run refused under a
/// tight budget may be resumed under a larger one and continues
/// bit-identically.
inline checkpoint::RunFingerprint
make_run_fingerprint(const char *driver, const CsrGraph &graph,
                     const ImmOptions &options) {
  checkpoint::RunFingerprint fp;
  fp.driver = driver;
  fp.graph_hash = graph.structural_hash();
  fp.graph_vertices = graph.num_vertices();
  fp.graph_edges = graph.num_edges();
  fp.seed = options.seed;
  fp.epsilon = options.epsilon;
  fp.l = options.l;
  fp.k = options.k;
  fp.model = static_cast<std::uint8_t>(options.model);
  fp.world_size = options.num_ranks;
  return fp;
}

inline MartingaleProgress
progress_from_snapshot(const checkpoint::Snapshot &snapshot) {
  MartingaleProgress progress;
  progress.next_round = snapshot.next_round;
  progress.accepted = snapshot.accepted;
  progress.lower_bound = snapshot.lower_bound;
  progress.last_coverage = snapshot.last_coverage;
  progress.estimation_iterations = snapshot.estimation_iterations;
  progress.num_samples = snapshot.num_samples;
  progress.extend_targets = snapshot.extend_targets;
  return progress;
}

inline checkpoint::Snapshot
snapshot_from_progress(const checkpoint::RunFingerprint &fingerprint,
                       const MartingaleProgress &progress,
                       std::vector<std::uint64_t> stream_counts) {
  checkpoint::Snapshot snapshot;
  snapshot.fingerprint = fingerprint;
  snapshot.next_round = progress.next_round;
  snapshot.accepted = progress.accepted;
  snapshot.lower_bound = progress.lower_bound;
  snapshot.last_coverage = progress.last_coverage;
  snapshot.estimation_iterations = progress.estimation_iterations;
  snapshot.num_samples = progress.num_samples;
  snapshot.extend_targets = progress.extend_targets;
  snapshot.stream_counts = std::move(stream_counts);
  return snapshot;
}

/// Samples generated so far by each of the \p stride leap-frog world
/// streams when |R| = \p num_samples (stream s owns the global indices
/// congruent to s mod stride).  Recorded in snapshots so a resume — and the
/// tests asserting O(ranks·k + θ) snapshot size — can see the per-rank
/// coordinates explicitly.
inline std::vector<std::uint64_t>
leapfrog_stream_counts(std::uint64_t num_samples, std::uint64_t stride) {
  std::vector<std::uint64_t> counts(stride, 0);
  for (std::uint64_t s = 0; s < stride; ++s)
    if (num_samples > s)
      counts[s] = (num_samples - s + stride - 1) / stride;
  return counts;
}

/// Per-driver checkpoint state: nothing when disabled, a manager plus
/// (on --resume) the restored martingale progress otherwise.
struct DriverCheckpoint {
  std::unique_ptr<checkpoint::CheckpointManager> manager;
  checkpoint::RunFingerprint fingerprint;
  std::optional<MartingaleProgress> resume;

  [[nodiscard]] bool enabled() const { return manager != nullptr; }
  [[nodiscard]] const MartingaleProgress *resume_progress() const {
    return resume ? &*resume : nullptr;
  }
};

/// Opens the snapshot directory and, on resume, restores the newest intact
/// snapshot: damaged files are diagnosed and skipped; a missing snapshot
/// (killed before the first boundary) falls back to a fresh start; a
/// fingerprint mismatch throws checkpoint::CheckpointError — refusing the
/// resume beats silently replaying coordinates against the wrong run.
inline DriverCheckpoint prepare_driver_checkpoint(const char *driver,
                                                  const CsrGraph &graph,
                                                  const ImmOptions &options,
                                                  ImmResult &result) {
  DriverCheckpoint state;
  const checkpoint::Options &config = options.checkpoint;
  if (config.dir.empty()) {
    if (config.resume)
      throw std::runtime_error(
          "ripples checkpoint: --resume requires a checkpoint directory "
          "(--checkpoint-dir)");
    return state;
  }
  state.fingerprint = make_run_fingerprint(driver, graph, options);
  state.manager = std::make_unique<checkpoint::CheckpointManager>(
      config.dir, config.every, config.keep_last);
  if (!config.resume)
    return state;

  std::string diagnosis;
  std::optional<checkpoint::Snapshot> snapshot =
      state.manager->load_latest(&diagnosis);
  if (!diagnosis.empty())
    RIPPLES_LOG_WARN("checkpoint: skipped damaged snapshot(s): %s",
                     diagnosis.c_str());
  if (!snapshot) {
    RIPPLES_LOG_INFO("checkpoint: no loadable snapshot in %s; starting fresh",
                     config.dir.c_str());
    return state;
  }
  checkpoint::require_matching_fingerprint(*snapshot, state.fingerprint);
  state.resume = progress_from_snapshot(*snapshot);
  result.resumed_from = snapshot->next_round;
  if (metrics::enabled())
    metrics::Registry::instance()
        .gauge("imm.checkpoint.resume_round")
        .set(static_cast<std::int64_t>(snapshot->next_round));
  trace::instant("checkpoint", "checkpoint.resume", "round",
                 snapshot->next_round, "samples", snapshot->num_samples);
  RIPPLES_LOG_INFO("checkpoint: resuming %s at round %u (|R|=%llu)", driver,
                   snapshot->next_round,
                   static_cast<unsigned long long>(snapshot->num_samples));
  return state;
}

} // namespace ripples::detail

#endif // RIPPLES_IMM_IMM_CHECKPOINT_HPP
