/// \file imm.hpp
/// \brief The four IMM drivers of the paper (Algorithm 1 end to end).
///
///  * imm_baseline_hypergraph — "IMM": the Tang et al. style implementation
///    with dual-direction RRR storage (Table 2 baseline).
///  * imm_sequential          — "IMMOPT": the paper's optimized serial
///    implementation with compact sorted-sample storage.
///  * imm_multithreaded       — "IMM_mt": OpenMP sampling + Algorithm 4
///    interval-partitioned selection.  imm_sequential is this driver's
///    body on a team of one.
///  * imm_distributed         — "IMM_dist": hybrid ranks x threads over the
///    mpsim runtime (Section 3.2): replicated graph, evenly partitioned
///    sample generation, allreduce-based seed selection.
///
/// Every driver runs the same martingale estimation (Alg. 2), returns the
/// phase-decomposed timings the paper's figures plot, and — given the same
/// (seed, epsilon, k, model) — the exact same seed set, which the
/// integration tests assert.
#ifndef RIPPLES_IMM_IMM_HPP
#define RIPPLES_IMM_IMM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "imm/budget.hpp"
#include "support/checkpoint.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace ripples {

/// The samplers' RNG discipline, with one value: every driver draws sample
/// i from the Philox stream (seed, i).  The paper's leap-frog LCG split runs
/// in bench/ablation_rng_streams.  Kept only because bench/perf/perf_suite
/// assigns ImmOptions::rng_mode; the next benchmark change deletes both.
enum class RngMode {
  CounterSequence,
};

/// The mpsim drivers' seed-selection exchange, with one protocol: every
/// greedy round allreduces the n-entry counter vector (Section 3.2,
/// DESIGN.md §8).  Kept only because bench/perf/perf_suite assigns
/// ImmOptions::selection_exchange; both values run the allreduce, and the
/// next benchmark change deletes the enum.
enum class SelectionExchange {
  Dense,
  Sparse,
};

/// RRR-generation engine (DESIGN.md §10).  Both engines draw sample i from
/// the Philox stream (seed, i) and produce byte-identical collections; Fused
/// batches up to 64 samples per traversal pass over a shared per-vertex
/// lane-mask array with bulk counter-block generation, trading per-sample
/// control flow for word-level parallelism.
enum class SamplerEngine {
  Sequential,
  Fused,
};

/// Reads RIPPLES_SAMPLER: `seq` (default, also when unset or empty) or
/// `fused`.  The one environment default left in ImmOptions: CI, check.sh
/// and the TSan/ASan legs rerun whole test suites under the fused engine
/// through it without touching call sites.  It goes when the engine option
/// does (the scalar engine's deletion, ROADMAP).  Any other value
/// terminates with a diagnostic (exit 2).
[[nodiscard]] SamplerEngine sampler_engine_from_env();

/// Inter-rank work stealing in the sampling phase (DESIGN.md §13).  Because
/// the counter-mode RNG derives each draw from its global stream index,
/// moving a chunk between ranks cannot change the emitted bytes — stealing
/// is a pure placement knob, byte-identical on vs. off.  A rank's threads
/// need no stealing of their own: the samplers' dynamic OpenMP schedule
/// already balances them.  Requires an ungoverned store (budget admission
/// windows are rank-local, so a migrated chunk would be charged to the
/// wrong rank); a governed one ignores it (tests assert it).
enum class StealMode {
  /// No stealing: every draw runs where the static partition homed it.
  Off,
  /// Ranks donate their chunk list to the mpsim steal channel and any rank
  /// may execute any chunk.
  On,
};

[[nodiscard]] const char *to_string(StealMode mode);

/// One run's configuration.  Plain data apart from `sampler`: a field is
/// set by code, or from its command-line flag by apply_option_flags.
struct ImmOptions {
  double epsilon = 0.5;
  std::uint32_t k = 50;
  DiffusionModel model = DiffusionModel::IndependentCascade;
  std::uint64_t seed = 2019;
  /// Failure-probability exponent: guarantee holds with prob >= 1 - 1/n^l.
  double l = 1.0;
  /// OpenMP threads (imm_multithreaded; also threads per rank when > 1 in
  /// imm_distributed, matching the paper's hybrid MPI+OpenMP layout).
  unsigned num_threads = 1;
  /// mpsim ranks (imm_distributed only).
  int num_ranks = 1;
  /// Always CounterSequence; see RngMode.
  RngMode rng_mode = RngMode::CounterSequence;
  /// RRR-generation engine; byte-identical results either way (DESIGN.md
  /// §10), so this is a pure performance knob like num_threads.  Defaults
  /// from RIPPLES_SAMPLER.  Fused applies to the sequential, multithreaded
  /// and distributed drivers; the partitioned driver keeps its scalar
  /// kernel (documented there).
  SamplerEngine sampler = sampler_engine_from_env();

  // Fault tolerance (the mpsim drivers; see DESIGN.md failure model).
  /// Survive rank failures: survivors shrink the communicator, regenerate
  /// the dead ranks' sample partitions from their RNG stream coordinates,
  /// and finish with the bit-identical seed set of a failure-free run
  /// (imm_distributed only; other drivers ignore it).
  bool recover_failures = false;
  /// Per-collective watchdog deadline in milliseconds; 0 disables.  A
  /// stalled rank then surfaces as mpsim::CollectiveTimeout naming the
  /// site and laggard instead of hanging the run.
  std::uint32_t watchdog_ms = 0;
  /// Deterministic fault plan, `rank=R,site=N[,kind=crash|stall|oom][;...]`
  /// (see mpsim/fault.hpp).  Empty injects nothing.
  /// `kind=oom` entries are consumed by the memory-budget governor rather
  /// than the communicator (DESIGN.md §12).
  std::string fault_plan;
  /// Treat watchdog-detected stalls as failures: the detecting rank evicts
  /// the laggards through the RankFailed -> shrink() -> heal path instead of
  /// only diagnosing them.  Requires recover_failures and watchdog_ms > 0
  /// (imm_distributed only; other drivers ignore it).
  bool evict_stalled = false;

  // Durable checkpoint/restart (the mpsim drivers; see DESIGN.md §9).
  /// Snapshot directory, write stride, resume flag, retention.  An empty
  /// dir disables checkpointing.
  checkpoint::Options checkpoint;

  /// Ignored: the mpsim drivers always allreduce their counters.  Kept,
  /// like rng_mode and selection_topm, only for bench/perf/perf_suite's
  /// assignments; the next benchmark change deletes them.
  SelectionExchange selection_exchange = SelectionExchange::Dense;
  /// Ignored (see selection_exchange).
  std::uint32_t selection_topm = 16;

  // Memory-pressure resilience (DESIGN.md §12).
  /// Enforced RRR reservation budget in bytes, 0 = unlimited
  /// (`--mem-budget`).  The shared-memory drivers and every imm_distributed
  /// rank always store RRR sets in the governor's store; a finite budget (or a kind=oom fault, or
  /// rrr_compress == Always) makes it admit in budget-charged chunks,
  /// otherwise it admits each extend whole.
  /// The baseline-hypergraph and partitioned drivers stay ungoverned: the
  /// former *is* Table 2's memory-hungry reference, the latter stores
  /// per-rank sample slices whose budget story is future work.
  std::size_t mem_budget = 0;
  /// When the governor may switch to the compressed RRR representation
  /// (`--rrr-compress`).
  CompressMode rrr_compress = CompressMode::Auto;

  // Work-stealing sampler (DESIGN.md §13).
  /// Inter-rank stealing (`--steal`).  A placement knob only —
  /// seeds/theta/|R|/coverage are byte-identical in both modes and under
  /// every steal schedule (stealing_test sweeps them).
  /// imm_distributed is the consumer (On donates chunks to the mpsim steal
  /// channel); the other drivers ignore the knob.
  StealMode steal = StealMode::Off;
  /// Draws per stealable chunk (`--steal-chunk`); the default is one fused
  /// batch, and 0 is clamped to 1.
  std::uint64_t steal_chunk = 64;
  /// Test/benchmark knob (`--steal-skew`): home every stream's generation
  /// on the first live rank, manufacturing the fig7 pathological partition.
  /// With stealing off this is the worst-case baseline; with stealing on,
  /// thieves spread the same draws — byte-identical seeds either way.
  /// imm_distributed, ungoverned store only.
  bool steal_skew = false;

  // End-to-end data integrity (DESIGN.md §14).
  /// Checksum every collective payload, mailbox message, and steal-channel
  /// item (`--verify-collectives`); a mismatch is retried against the
  /// sender's still-live buffer with capped exponential backoff and
  /// escalates to the shrink-and-heal path when the budget exhausts, so the
  /// healed run's seeds equal a failure-free run's exactly.  The mpsim
  /// drivers only (the shared-memory drivers have no exchanges to
  /// checksum).
  bool verify_collectives = false;
  /// RRR-store scrubbing (`--scrub-rrr off|on|paranoid`).  Applies to the
  /// compressed arena of the drivers' RRR store, the only checksummed
  /// representation; a run that never compresses has nothing to scrub.
  ScrubMode scrub_rrr = ScrubMode::Off;
};

class CommandLine;

/// Sets the ImmOptions fields that have a command-line flag shared by
/// imm_cli and the bench binaries: `--sampler`, `--mem-budget`,
/// `--rrr-compress`, `--steal`, `--steal-chunk`, `--steal-skew`,
/// `--verify-collectives`, `--scrub-rrr`, `--checkpoint-dir`,
/// `--checkpoint-every`, `--checkpoint-keep` and `--resume`.  An absent
/// flag leaves its field as it was; a malformed or out-of-range value
/// terminates with a diagnostic naming the flag and what it accepts
/// (exit 2).
void apply_option_flags(const CommandLine &cli, ImmOptions &options);

/// The value of `--epsilon`, or \p fallback when it is absent.  A value
/// outside (0, 1), the domain of the theta schedule, terminates with a
/// diagnostic naming the flag (exit 2) instead of reaching its assertion.
[[nodiscard]] double epsilon_flag(const CommandLine &cli, double fallback);

struct ImmResult {
  std::vector<vertex_t> seeds;
  /// The final sample-count estimate theta = lambda* / LB.
  std::uint64_t theta = 0;
  /// |R| actually generated (>= theta when estimation overshot).
  std::uint64_t num_samples = 0;
  /// The martingale lower bound on OPT.
  double lower_bound = 0;
  /// F_R(S) of the final selection.
  double coverage_fraction = 0;
  /// Phase breakdown in the paper's four categories.
  PhaseTimers timers;
  /// Peak bytes held by the RRR representation (Table 2's memory metric).
  /// Under imm_distributed, the sum of the ranks' store peaks, which may
  /// fall in different admission windows: an upper bound on the cluster's
  /// simultaneous peak.
  std::size_t rrr_peak_bytes = 0;
  /// Total (sample, vertex) associations stored at peak.
  std::size_t total_associations = 0;
  /// Martingale round this run resumed from (`next_round` of the snapshot),
  /// or -1 for a fresh (non-resumed) run.
  std::int64_t resumed_from = -1;
  /// True when the memory budget forced a certified early stop: the seeds
  /// are a valid IMM answer at accuracy `epsilon_achieved` (>= the requested
  /// epsilon) rather than the requested one (DESIGN.md §12).
  bool degraded = false;
  /// The accuracy actually certified by the samples generated: equals the
  /// requested epsilon on a non-degraded run, the certified_epsilon()
  /// value on a degraded one.
  double epsilon_achieved = 0;
  /// Structured record of this execution (metrics subsystem): phase times,
  /// theta schedule, RRR-size histogram, storage footprint, per-collective
  /// communication volume.  Serialize with report.write_json_file(path).
  metrics::RunReport report;
};

[[nodiscard]] ImmResult imm_sequential(const CsrGraph &graph,
                                       const ImmOptions &options);
[[nodiscard]] ImmResult imm_baseline_hypergraph(const CsrGraph &graph,
                                                const ImmOptions &options);
[[nodiscard]] ImmResult imm_multithreaded(const CsrGraph &graph,
                                          const ImmOptions &options);
[[nodiscard]] ImmResult imm_distributed(const CsrGraph &graph,
                                        const ImmOptions &options);

/// Extension (paper §6, future work i): distributed IMM where the *input
/// graph* is partitioned across ranks in addition to the samples.  Rank r
/// owns the contiguous vertex interval [n*r/p, n*(r+1)/p) and the in-edges
/// of those vertices; every RRR set is generated by a level-synchronous
/// distributed reverse BFS (frontier candidates are exchanged with an
/// allgatherv per level) and stored as per-rank slices.  Seed selection
/// keeps the counter allreduce of Section 3.2 plus one theta-length
/// containment broadcast per selected seed (the price of nobody holding a
/// whole sample).
///
/// Edge draws use per-(sample, vertex) counter streams, so the result is
/// invariant to the rank count — but it is a different (equally valid)
/// random experiment than the sample-indexed streams of the other drivers,
/// so seed sets match imm_distributed_partitioned runs at any p, not
/// imm_sequential.  The graph argument is shared for simplicity; ranks
/// only ever read the in-edges of vertices they own, which is the slice a
/// real deployment would store.
[[nodiscard]] ImmResult imm_distributed_partitioned(const CsrGraph &graph,
                                                    const ImmOptions &options);

namespace detail {
struct MartingaleOutcome;

/// Fills the RunReport fields every driver shares (configuration, input
/// shape, phase times, theta schedule, storage, selection, seeds) from the
/// finalized ImmResult, and appends the report to the process-wide report
/// log when metrics are enabled.  Drivers record the RRR-size histogram and
/// communication stats themselves before calling this, since those depend
/// on the storage representation and execution layout.
void finalize_run_report(ImmResult &result, const char *driver,
                         const CsrGraph &graph, const ImmOptions &options,
                         const MartingaleOutcome &outcome);

/// Fills the result fields every driver shares from the martingale
/// outcome: seeds, theta, |R|, lower bound, coverage, and the degraded flag
/// with the accuracy the samples certify.
void finalize_result(ImmResult &result, const MartingaleOutcome &outcome);

/// The RRRStore policy every driver builds (DESIGN.md §12): budget and
/// compression from \p options; bitmap records over \p graph's vertices;
/// one window per extend when \p budget is ungoverned, since nothing can
/// refuse; and the scrub mode of \p options, since every window replays
/// from its coordinates.
[[nodiscard]] RRRStore::Policy store_policy(const CsrGraph &graph,
                                            const ImmOptions &options,
                                            const ScopedBudget &budget,
                                            const char *consumer,
                                            bool hard_refusal);
} // namespace detail

} // namespace ripples

#endif // RIPPLES_IMM_IMM_HPP
