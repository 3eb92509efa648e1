/// \file imm_core.hpp
/// \brief The martingale skeleton shared by all four drivers (Algs. 1-2).
///
/// Drivers differ only in how they extend R and how they select seeds; the
/// doubling estimation loop, the stopping rule, and the phase accounting
/// are identical.  This header factors that skeleton as a template over the
/// two operations.  Phase accounting follows the paper's convention
/// (Section 4.1): Sample calls made from inside the estimation loop count
/// toward "EstimateTheta"; only the top-level Sample call after theta is
/// fixed counts toward "Sample".
///
/// The skeleton is also the checkpoint/restart anchor (DESIGN.md §9): all
/// martingale state lives in a `MartingaleProgress` value that a round hook
/// observes at every boundary and that a resumed run feeds back in.  Because
/// every extend is a deterministic replay from RNG coordinates, re-entering
/// the loop at `progress.next_round` after regenerating `progress.num_samples`
/// samples reproduces the uninterrupted run bit-for-bit.
#ifndef RIPPLES_IMM_IMM_CORE_HPP
#define RIPPLES_IMM_IMM_CORE_HPP

#include <algorithm>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "imm/budget.hpp"
#include "imm/select.hpp"
#include "imm/theta.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace ripples::detail {

/// Thread-safe collector for per-round, per-rank phase accounting
/// (DESIGN.md §11).  Every rank thread records its own RoundEntry at each
/// round boundary; because mpsim ranks share one address space, the
/// "reduction over ranks" is a mutex append (the same pattern as the
/// drivers' histogram merge) rather than a collective — which keeps the
/// fault-injection site numbering and comm stats byte-identical to an
/// unledgered run.  RunReport groups the entries by round at serialization.
class RoundLedger {
public:
  void record(const metrics::RoundEntry &entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back(entry);
  }

  [[nodiscard]] std::vector<metrics::RoundEntry> entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
  }

private:
  mutable std::mutex mutex_;
  std::vector<metrics::RoundEntry> entries_;
};

/// Hooks one rank's pass through the martingale skeleton up to a ledger.
/// `storage` reports the rank-local {RRR sets, footprint bytes} after each
/// round.  With a null ledger (or metrics disabled) the skeleton records
/// nothing — the zero-events-when-disabled contract.
struct RoundAccounting {
  RoundLedger *ledger = nullptr;
  std::int32_t rank = 0;
  std::function<std::pair<std::uint64_t, std::uint64_t>()> storage;
};

struct MartingaleOutcome {
  SelectionResult selection;
  std::uint64_t theta = 0;
  std::uint64_t num_samples = 0;
  double lower_bound = 1.0;
  /// Doubling iterations the estimation loop executed (x at acceptance, or
  /// the schedule maximum when estimation was exhausted).
  std::uint32_t estimation_iterations = 0;
  /// Sample-count target of every extend call in execution order: the
  /// doubling schedule plus the final top-up when theta overshoots |R|.
  /// Feeds the run report's theta section.
  std::vector<std::uint64_t> extend_targets;
  /// True when the memory budget stopped sample generation early
  /// (BudgetEarlyStop): the selection covers only `num_samples` samples and
  /// certifies `epsilon_achieved` instead of the requested epsilon.
  bool degraded = false;
  /// Accuracy certified by the samples actually generated: the requested
  /// epsilon normally, certified_epsilon() on a degraded run.
  double epsilon_achieved = 0.0;
  /// True when the final SelectSeeds returned the last estimation round's
  /// selection because no extend ran after it (no theta top-up, or a budget
  /// early stop): Alg. 4 is deterministic in R, so recomputing it over the
  /// same R would return the same seeds and coverage.
  bool selection_reused = false;
};

/// Complete martingale-loop state at a round boundary.  This is exactly what
/// a checkpoint stores (plus the driver's RNG coordinates): restoring it and
/// replaying `extend_to(num_samples)` puts a fresh process in the same state
/// the killed one reached.  The doubles carry bit-exact values — the final
/// theta is a function of `lower_bound`, so any rounding on the resume path
/// would change the seed set.
struct MartingaleProgress {
  /// Next estimation round to execute (1-based).  Rounds before it are done;
  /// a value past the schedule maximum means estimation was exhausted.
  std::uint32_t next_round = 1;
  /// True once the stopping rule fired; resume then skips the loop entirely.
  bool accepted = false;
  double lower_bound = 1.0;
  /// Coverage from the most recent round — the input to the exhausted-
  /// schedule fallback lower bound, so it must survive a kill.
  double last_coverage = 0.0;
  std::uint32_t estimation_iterations = 0;
  /// |R| reached at this boundary (the replay target on resume).
  std::uint64_t num_samples = 0;
  std::vector<std::uint64_t> extend_targets;
};

/// \param extend_to   void(std::uint64_t target): grow R to `target` samples.
/// \param select      SelectionResult(): run seed selection over current R.
///                    Called at most once per distinct R: the final step
///                    reuses the last round's result when R is unchanged.
/// \param resume      martingale state to re-enter from, or nullptr for a
///                    fresh run.  The skeleton replays
///                    `extend_to(resume->num_samples)` itself.
/// \param round_hook  void(const MartingaleProgress &): called at every
///                    round boundary (and after the final theta extend) with
///                    the state a resume would need; drivers snapshot here.
/// \param acct        optional per-rank round accounting (ledger + storage
///                    probe); default-constructed means none.
template <typename ExtendFn, typename SelectFn, typename RoundHook>
MartingaleOutcome
run_imm_martingale(std::uint64_t num_vertices, std::uint32_t k, double epsilon,
                   double l, ExtendFn &&extend_to, SelectFn &&select,
                   PhaseTimers &timers, const MartingaleProgress *resume,
                   RoundHook &&round_hook, const RoundAccounting &acct = {}) {
  ThetaSchedule schedule(num_vertices, k, epsilon, l);

  MartingaleProgress progress;
  if (resume != nullptr)
    progress = *resume;

  MartingaleOutcome outcome;
  outcome.num_samples = progress.num_samples;
  outcome.lower_bound = progress.lower_bound;
  outcome.estimation_iterations = progress.estimation_iterations;
  outcome.extend_targets = progress.extend_targets;
  bool accepted = progress.accepted;
  double last_coverage = progress.last_coverage;
  // Set when an extend raises BudgetEarlyStop (shared-memory governed runs,
  // ladder rung 3): generation is over, but selection over what R holds is
  // still a valid IMM answer at a weaker epsilon — finish, don't abort.
  bool early_stopped = false;
  // The last estimation round's selection, held only while R is exactly
  // the collection it ran on: each round's extend is followed by its own
  // trial, and the theta top-up (a partial one that throws BudgetEarlyStop
  // too) drops it first.  A resume past acceptance has no trial of its
  // own, so its final step selects.
  std::optional<SelectionResult> last_trial;

  const bool ledgered = acct.ledger != nullptr && metrics::enabled();
  // Sampler→selection flows: each extend batch starts one flow ("s" when
  // the batch is complete), steps through every estimation selection that
  // consumes it ("t"), and terminates at the final selection ("f") — so the
  // timeline shows exactly which selection rounds read which batches.
  std::vector<std::uint64_t> batch_flows;
  auto batch_ready = [&] {
    if (!trace::enabled()) return;
    std::uint64_t id = trace::new_flow_id();
    trace::flow_begin("flow", "flow.rrr_batch", id);
    batch_flows.push_back(id);
  };
  auto record_round = [&](std::uint32_t round, double sample_seconds,
                          double select_seconds, double wait_seconds) {
    if (!ledgered) return;
    metrics::RoundEntry entry;
    entry.round = round;
    entry.rank = acct.rank;
    entry.sample_seconds = sample_seconds;
    entry.select_seconds = select_seconds;
    entry.collective_wait_seconds = wait_seconds;
    if (acct.storage) {
      auto [sets, bytes] = acct.storage();
      entry.rrr_sets = sets;
      entry.rrr_bytes = bytes;
    }
    acct.ledger->record(entry);
  };

  if (resume != nullptr && progress.num_samples > 0) {
    // Deterministic replay: regenerate the checkpointed |R| from RNG
    // coordinates before re-entering the loop.  Attributed to the phase the
    // killed run was in so resumed reports stay interpretable.
    ScopedPhase phase(timers, accepted ? Phase::Sample : Phase::EstimateTheta);
    trace::Span span("imm", "imm.resume_replay", "samples",
                     progress.num_samples, "next_round", progress.next_round);
    double wait_before = metrics::thread_collective_wait_seconds();
    StopWatch watch;
    try {
      extend_to(progress.num_samples);
    } catch (const BudgetEarlyStop &stop) {
      early_stopped = true;
      outcome.num_samples = stop.achieved;
    }
    batch_ready();
    // Ledgered as round 0: replay work is real but belongs to no round.
    record_round(0, watch.elapsed_seconds(), 0.0,
                 metrics::thread_collective_wait_seconds() - wait_before);
  }

  if (!accepted && !early_stopped) {
    ScopedPhase phase(timers, Phase::EstimateTheta);
    trace::Span estimate_span("imm", "imm.estimate_theta");
    for (std::uint32_t x = progress.next_round; x <= schedule.max_iterations();
         ++x) {
      std::uint64_t target = schedule.target_samples(x);
      trace::Span round_span("imm", "imm.estimation_round", "x", x, "target",
                             target);
      outcome.num_samples = std::max(outcome.num_samples, target);
      outcome.estimation_iterations = x;
      outcome.extend_targets.push_back(target);
      double wait_before = metrics::thread_collective_wait_seconds();
      StopWatch round_watch;
      try {
        extend_to(target);
      } catch (const BudgetEarlyStop &stop) {
        early_stopped = true;
        outcome.num_samples = stop.achieved;
      }
      double sample_seconds = round_watch.elapsed_seconds();
      batch_ready();
      // On an early stop the selection still runs: its coverage feeds the
      // fallback lower bound the certified epsilon' is derived from.
      SelectionResult trial = select();
      double select_seconds = round_watch.elapsed_seconds() - sample_seconds;
      if (trace::enabled())
        for (std::uint64_t id : batch_flows)
          trace::flow_step("flow", "flow.rrr_batch", id);
      record_round(x, sample_seconds, select_seconds,
                   metrics::thread_collective_wait_seconds() - wait_before);
      last_coverage = trial.coverage_fraction();
      last_trial = std::move(trial);
      // Acceptance needs the full theta_x samples behind it; a truncated
      // round never accepts.
      if (!early_stopped &&
          schedule.accept(x, last_coverage, &outcome.lower_bound)) {
        accepted = true;
        trace::instant("imm", "imm.estimation_accepted", "x", x);
        RIPPLES_LOG_DEBUG("estimation accepted at x=%u: |R|=%llu LB=%.1f", x,
                          static_cast<unsigned long long>(target),
                          outcome.lower_bound);
      }
      progress.next_round = x + 1;
      progress.accepted = accepted;
      progress.lower_bound = outcome.lower_bound;
      progress.last_coverage = last_coverage;
      progress.estimation_iterations = outcome.estimation_iterations;
      progress.num_samples = outcome.num_samples;
      progress.extend_targets = outcome.extend_targets;
      round_hook(static_cast<const MartingaleProgress &>(progress));
      if (accepted || early_stopped)
        break;
    }
  }
  if (!accepted) {
    // The doubling schedule is exhausted (possible only on tiny or
    // pathologically low-influence inputs): fall back to the estimator from
    // the last iteration, which is still a valid (if loose) lower bound.
    outcome.lower_bound =
        std::max(1.0, static_cast<double>(num_vertices) * last_coverage /
                          (1.0 + schedule.epsilon_prime()));
    RIPPLES_LOG_DEBUG("estimation exhausted; fallback LB=%.1f",
                      outcome.lower_bound);
  }

  outcome.theta = schedule.final_theta(outcome.lower_bound);
  double final_wait_before = metrics::thread_collective_wait_seconds();
  double final_sample_seconds = 0.0;
  if (outcome.theta > outcome.num_samples && !early_stopped) {
    ScopedPhase phase(timers, Phase::Sample);
    trace::Span span("imm", "imm.sample", "theta", outcome.theta);
    outcome.extend_targets.push_back(outcome.theta);
    StopWatch watch;
    last_trial.reset();
    try {
      extend_to(outcome.theta);
      outcome.num_samples = outcome.theta;
    } catch (const BudgetEarlyStop &stop) {
      early_stopped = true;
      outcome.num_samples = stop.achieved;
    }
    final_sample_seconds = watch.elapsed_seconds();
    batch_ready();
    progress.accepted = accepted;
    progress.lower_bound = outcome.lower_bound;
    progress.last_coverage = last_coverage;
    progress.num_samples = outcome.num_samples;
    progress.extend_targets = outcome.extend_targets;
    // Boundary after the (often longest) final extend: a kill during the
    // final selection resumes here instead of replaying the theta top-up
    // from the acceptance snapshot.
    round_hook(static_cast<const MartingaleProgress &>(progress));
  }
  {
    // The phase, span and ledger row stay on the reused path too, so the
    // run still says where its time went; they just read ~0.  The span's
    // two args name |R| and the path taken (k is on the driver's span).
    ScopedPhase phase(timers, Phase::SelectSeeds);
    outcome.selection_reused = last_trial.has_value();
    trace::Span span("imm", "imm.select_seeds", "samples", outcome.num_samples,
                     "reused", outcome.selection_reused ? 1 : 0);
    StopWatch select_watch;
    outcome.selection =
        outcome.selection_reused ? std::move(*last_trial) : select();
    // A reused selection did no selection work, so its row reads exactly 0
    // and its imbalance factor is the no-work 1.0, not a ratio of timer
    // noise.
    double final_select_seconds =
        outcome.selection_reused ? 0.0 : select_watch.elapsed_seconds();
    // The final selection consumes every outstanding batch: terminate the
    // flows while the select span is still open so the arrows land on it.
    if (trace::enabled()) {
      for (std::uint64_t id : batch_flows)
        trace::flow_end("flow", "flow.rrr_batch", id);
      batch_flows.clear();
    }
    record_round(outcome.estimation_iterations + 1, final_sample_seconds,
                 final_select_seconds,
                 metrics::thread_collective_wait_seconds() - final_wait_before);
  }
  outcome.degraded = early_stopped;
  outcome.epsilon_achieved =
      early_stopped ? certified_epsilon(num_vertices, k, epsilon, l,
                                        outcome.lower_bound,
                                        outcome.num_samples)
                    : epsilon;
  if (early_stopped) {
    trace::instant("imm", "imm.degraded", "samples", outcome.num_samples);
    RIPPLES_LOG_INFO(
        "memory budget stopped sampling at |R|=%llu; certified epsilon=%.4f "
        "(requested %.4f)",
        static_cast<unsigned long long>(outcome.num_samples),
        outcome.epsilon_achieved, epsilon);
  }
  return outcome;
}

/// Checkpoint-free form used by the shared-memory drivers.
template <typename ExtendFn, typename SelectFn>
MartingaleOutcome run_imm_martingale(std::uint64_t num_vertices,
                                     std::uint32_t k, double epsilon, double l,
                                     ExtendFn &&extend_to, SelectFn &&select,
                                     PhaseTimers &timers,
                                     const RoundAccounting &acct = {}) {
  return run_imm_martingale(num_vertices, k, epsilon, l,
                            std::forward<ExtendFn>(extend_to),
                            std::forward<SelectFn>(select), timers, nullptr,
                            [](const MartingaleProgress &) {}, acct);
}

} // namespace ripples::detail

#endif // RIPPLES_IMM_IMM_CORE_HPP
