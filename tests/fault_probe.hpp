// Shared by the fault, integrity and checkpoint tests: proof that a planned
// fault actually fired.  A plan's seeds alone cannot tell a survived fault
// from a site the run never reached — moving the schedule of collectives
// (say, by skipping a selection) silently turns such a plan into a clean
// run — so every fixed-site plan also asserts the counters its fault moves.
#ifndef RIPPLES_TESTS_FAULT_PROBE_HPP
#define RIPPLES_TESTS_FAULT_PROBE_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/metrics.hpp"

namespace ripples::fault_probe {

/// Registry counters a fired fault moves (they count only with metrics on).
inline constexpr const char *kCrashes = "mpsim.faults.injected_crashes";
inline constexpr const char *kEvictions = "mpsim.faults.evicted_stalls";
inline constexpr const char *kShrinks = "mpsim.faults.shrinks";
inline constexpr const char *kRefusals = "mem.budget.refusals";
inline constexpr const char *kRetries = "integrity.retries";
inline constexpr const char *kFlaky = "integrity.injected_flaky";
inline constexpr const char *kEscalations = "integrity.escalations";

inline std::uint64_t value(const char *name) {
  return metrics::Registry::instance().counter(name).value();
}

/// Metrics on for one test body; the report log the drivers fill meanwhile
/// is dropped on exit.
class ScopedMetrics {
public:
  ScopedMetrics() { metrics::set_enabled(true); }
  ~ScopedMetrics() {
    metrics::set_enabled(false);
    metrics::report_log().clear();
  }
  ScopedMetrics(const ScopedMetrics &) = delete;
  ScopedMetrics &operator=(const ScopedMetrics &) = delete;
};

/// Runs \p solve under \p plan and expects every counter in \p must_move to
/// grow.  Needs metrics on (ScopedMetrics).
template <typename Solve>
auto expect_fired(const std::string &plan,
                  std::initializer_list<const char *> must_move,
                  Solve &&solve) {
  std::vector<std::uint64_t> before;
  for (const char *name : must_move) before.push_back(value(name));
  auto result = solve();
  std::size_t i = 0;
  for (const char *name : must_move)
    EXPECT_GT(value(name), before[i++])
        << plan << " did not move " << name << " (the plan never fired?)";
  return result;
}

} // namespace ripples::fault_probe

#endif // RIPPLES_TESTS_FAULT_PROBE_HPP
