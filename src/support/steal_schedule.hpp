/// \file steal_schedule.hpp
/// \brief Seeded schedule-perturbation hook for the work-stealing sampler
/// (DESIGN.md §13).
///
/// The stealing scheduler promises a collection byte-identical under *every*
/// steal schedule, but the schedule an unperturbed run takes is whatever the
/// OS thread scheduler produced — one point in the schedule space.  This
/// hook lets tests force the decision sequence instead: a process-wide plan
/// maps (executor, step) to a deterministic steal decision, so a property
/// harness can sweep seeded schedules (plus the steal-everything and
/// steal-nothing extremes) and assert the output never moves.
///
/// The hook is test infrastructure, not a tuning knob: with no plan
/// installed, decide() returns the natural greedy policy (drain your own
/// queue, steal when it runs dry) at the cost of one relaxed atomic load.
#ifndef RIPPLES_SUPPORT_STEAL_SCHEDULE_HPP
#define RIPPLES_SUPPORT_STEAL_SCHEDULE_HPP

#include <cstdint>

namespace ripples::steal_schedule {

enum class Mode : int {
  /// No perturbation: executors drain their own queue first and steal only
  /// when it is empty (the production policy).
  Default = 0,
  /// Executors never steal — every chunk runs on the rank whose queue it
  /// was published to (the maximal-imbalance extreme).
  StealNothing,
  /// Executors attempt a steal before every own-queue pop — the
  /// maximal-migration extreme.
  StealEverything,
  /// Pseudorandom decisions derived from hash(seed, executor, step):
  /// whether stealing is allowed this step, whether to steal before
  /// popping, and which victim to scan first.
  Seeded,
};

struct Plan {
  Mode mode = Mode::Default;
  std::uint64_t seed = 0;
};

/// One scheduling decision for \p executor at its \p step-th loop
/// iteration.  All three fields are pure functions of (plan, executor,
/// step), so a replayed run takes the identical schedule.
struct Decision {
  bool allow_steal = true;
  bool steal_first = false;
  std::uint64_t victim_offset = 0;
};

/// Installs \p plan process-wide (tests only; not thread-safe against
/// concurrent decide() storms by design — install before launching ranks).
void set_plan(const Plan &plan);

/// Restores the default (no perturbation) plan.
void reset();

/// True when a non-default plan is installed (one relaxed load).
[[nodiscard]] bool active();

/// The installed plan's decision for (\p executor, \p step).
[[nodiscard]] Decision decide(int executor, std::uint64_t step);

/// RAII plan installer for tests.
class ScopedPlan {
public:
  explicit ScopedPlan(const Plan &plan) { set_plan(plan); }
  ~ScopedPlan() { reset(); }
  ScopedPlan(const ScopedPlan &) = delete;
  ScopedPlan &operator=(const ScopedPlan &) = delete;
};

} // namespace ripples::steal_schedule

#endif // RIPPLES_SUPPORT_STEAL_SCHEDULE_HPP
