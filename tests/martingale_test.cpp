// Selection count of the martingale skeleton (imm_core.hpp): Alg. 4 runs at
// most once per distinct R.  The final SelectSeeds reuses the last
// estimation round's selection when no extend ran after it, and every case
// must still return exactly what a forced recomputation over the final R
// returns.  The unit cases drive run_imm_martingale with a counting fake
// collection; the driver cells check the run report's reuse marker against
// whether theta overshot |R| on every IMM driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"
#include "imm/imm_core.hpp"
#include "support/metrics.hpp"

namespace ripples {
namespace {

using detail::MartingaleOutcome;
using detail::MartingaleProgress;

struct Config {
  std::uint64_t num_vertices = 1024;
  std::uint32_t k = 4;
  double epsilon = 0.5;
  double l = 1.0;
  /// F_R(S) every selection reports, whatever R holds.
  double coverage = 0.5;
  /// Budget: an extend past it stops at this size with BudgetEarlyStop.
  std::uint64_t cap = std::numeric_limits<std::uint64_t>::max();
};

// Under (1024, 4, 0.5, 1) the schedule targets 341, 682, 1363, ... and a
// coverage in [0.2134, 0.4268) accepts at round 3.  0.42 yields theta 1325
// <= |R| = 1363; 0.3 yields theta 1854 > 1363.
Config no_top_up() {
  Config config;
  config.coverage = 0.42;
  return config;
}

Config top_up() {
  Config config;
  config.coverage = 0.3;
  return config;
}

/// A stand-in for R: the collection is just its size, and a selection is a
/// pure function of that size, so any two selections over one R agree and
/// a recomputation over the final R is always at hand.
class FakeCollection {
public:
  explicit FakeCollection(const Config &config) : config_(config) {}

  void extend_to(std::uint64_t target) {
    ++extends_;
    if (target > config_.cap) {
      size_ = std::max(size_, config_.cap);
      throw detail::BudgetEarlyStop{size_};
    }
    size_ = std::max(size_, target);
  }

  SelectionResult select() {
    selected_at_.push_back(size_);
    return recompute();
  }

  [[nodiscard]] SelectionResult recompute() const {
    SelectionResult result;
    for (std::uint32_t i = 0; i < config_.k; ++i)
      result.seeds.push_back(
          static_cast<vertex_t>((size_ * 31 + i * 7) % config_.num_vertices));
    result.covered_samples = static_cast<std::uint64_t>(
        std::floor(config_.coverage * static_cast<double>(size_)));
    result.total_samples = size_;
    return result;
  }

  [[nodiscard]] std::size_t selections() const { return selected_at_.size(); }
  [[nodiscard]] int extends() const { return extends_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  /// True when no two selections ran over the same R.
  [[nodiscard]] bool one_selection_per_collection() const {
    return std::set<std::uint64_t>(selected_at_.begin(), selected_at_.end())
               .size() == selected_at_.size();
  }

private:
  Config config_;
  std::uint64_t size_ = 0;
  int extends_ = 0;
  std::vector<std::uint64_t> selected_at_;
};

MartingaleOutcome run(FakeCollection &collection, const Config &config,
                      const MartingaleProgress *resume = nullptr,
                      std::vector<MartingaleProgress> *boundaries = nullptr,
                      const detail::RoundAccounting &acct = {}) {
  PhaseTimers timers;
  return detail::run_imm_martingale(
      config.num_vertices, config.k, config.epsilon, config.l,
      [&](std::uint64_t target) { collection.extend_to(target); },
      [&] { return collection.select(); }, timers, resume,
      [&](const MartingaleProgress &progress) {
        if (boundaries != nullptr) boundaries->push_back(progress);
      },
      acct);
}

/// The estimation round's |R| (the accepted, exhausted or stopped round).
std::uint64_t estimation_samples(const MartingaleOutcome &outcome) {
  return outcome.extend_targets.at(outcome.estimation_iterations - 1);
}

void expect_recomputed(const MartingaleOutcome &outcome,
                       const FakeCollection &collection) {
  const SelectionResult forced = collection.recompute();
  EXPECT_EQ(outcome.selection.seeds, forced.seeds);
  EXPECT_EQ(outcome.selection.covered_samples, forced.covered_samples);
  EXPECT_EQ(outcome.selection.total_samples, forced.total_samples);
  EXPECT_EQ(outcome.num_samples, collection.size());
  EXPECT_TRUE(collection.one_selection_per_collection());
}

TEST(MartingaleSelections, NoTopUpSelectsOncePerEstimationRound) {
  const Config config = no_top_up();
  FakeCollection collection(config);
  const MartingaleOutcome outcome = run(collection, config);
  ASSERT_EQ(outcome.estimation_iterations, 3u);
  ASSERT_LE(outcome.theta, estimation_samples(outcome));
  EXPECT_EQ(collection.selections(), outcome.estimation_iterations);
  EXPECT_EQ(collection.extends(), 3);
  EXPECT_TRUE(outcome.selection_reused);
  EXPECT_FALSE(outcome.degraded);
  expect_recomputed(outcome, collection);
}

TEST(MartingaleSelections, TopUpAddsExactlyTheFinalSelection) {
  const Config config = top_up();
  FakeCollection collection(config);
  const MartingaleOutcome outcome = run(collection, config);
  ASSERT_EQ(outcome.estimation_iterations, 3u);
  ASSERT_GT(outcome.theta, estimation_samples(outcome));
  EXPECT_EQ(collection.selections(), outcome.estimation_iterations + 1);
  EXPECT_EQ(collection.extends(), 4);
  EXPECT_FALSE(outcome.selection_reused);
  EXPECT_EQ(outcome.num_samples, outcome.theta);
  expect_recomputed(outcome, collection);
}

TEST(MartingaleSelections, ResumeFromTheAcceptanceSnapshotSelectsOnce) {
  // The resumed process never ran the accepted round's trial, so it has
  // nothing to reuse: its one selection is the final one, with or without
  // a top-up, and it lands on the uninterrupted run's answer.
  for (const Config &config : {no_top_up(), top_up()}) {
    FakeCollection original(config);
    std::vector<MartingaleProgress> boundaries;
    const MartingaleOutcome uninterrupted =
        run(original, config, nullptr, &boundaries);
    const auto acceptance =
        std::find_if(boundaries.begin(), boundaries.end(),
                     [](const MartingaleProgress &p) { return p.accepted; });
    ASSERT_NE(acceptance, boundaries.end());

    FakeCollection resumed_collection(config);
    const MartingaleOutcome resumed =
        run(resumed_collection, config, &*acceptance);
    EXPECT_EQ(resumed_collection.selections(), 1u) << config.coverage;
    EXPECT_FALSE(resumed.selection_reused) << config.coverage;
    EXPECT_EQ(resumed.selection.seeds, uninterrupted.selection.seeds);
    EXPECT_EQ(resumed.theta, uninterrupted.theta);
    expect_recomputed(resumed, resumed_collection);
  }
}

TEST(MartingaleSelections, ResumeBeforeAcceptanceStillReusesItsOwnTrial) {
  // A resume from the round-1 boundary re-enters estimation, so it runs
  // the accepted round's trial itself and may reuse it.
  const Config config = no_top_up();
  FakeCollection original(config);
  std::vector<MartingaleProgress> boundaries;
  (void)run(original, config, nullptr, &boundaries);
  ASSERT_FALSE(boundaries.front().accepted);

  FakeCollection resumed_collection(config);
  const MartingaleOutcome resumed =
      run(resumed_collection, config, &boundaries.front());
  EXPECT_EQ(resumed_collection.selections(), 2u); // rounds 2 and 3
  EXPECT_TRUE(resumed.selection_reused);
  expect_recomputed(resumed, resumed_collection);
}

TEST(MartingaleSelections, BudgetStopDuringARoundSelectsOncePerRound) {
  // Round 3 wants 1363 samples and gets 1000: its trial selection runs over
  // the truncated R, nothing extends after it, and the final step reuses it.
  Config config = top_up();
  config.cap = 1000;
  FakeCollection collection(config);
  const MartingaleOutcome outcome = run(collection, config);
  ASSERT_TRUE(outcome.degraded);
  ASSERT_EQ(outcome.estimation_iterations, 3u);
  EXPECT_EQ(outcome.num_samples, 1000u);
  EXPECT_EQ(collection.selections(), outcome.estimation_iterations);
  EXPECT_TRUE(outcome.selection_reused);
  expect_recomputed(outcome, collection);
}

TEST(MartingaleSelections, BudgetStopDuringTheTopUpDropsTheTrial) {
  // A partial top-up still changed R: the final step must select again.
  Config config = top_up();
  config.cap = 1500;
  FakeCollection collection(config);
  const MartingaleOutcome outcome = run(collection, config);
  ASSERT_TRUE(outcome.degraded);
  ASSERT_GT(outcome.theta, 1500u);
  EXPECT_EQ(outcome.num_samples, 1500u);
  EXPECT_EQ(collection.selections(), outcome.estimation_iterations + 1);
  EXPECT_FALSE(outcome.selection_reused);
  expect_recomputed(outcome, collection);
}

TEST(MartingaleSelections, ExhaustedScheduleWithoutTopUpSelectsOncePerRound) {
  // No round accepts, and the fallback lower bound still asks for no more
  // than the last round generated: a loose l and a large epsilon make
  // lambda* smaller than the last schedule target.
  Config config;
  config.num_vertices = 1500;
  config.k = 40;
  config.epsilon = 0.99;
  config.l = 0.01;
  config.coverage = 0.0023;
  FakeCollection collection(config);
  const MartingaleOutcome outcome = run(collection, config);
  const ThetaSchedule schedule(config.num_vertices, config.k, config.epsilon,
                               config.l);
  ASSERT_EQ(outcome.estimation_iterations, schedule.max_iterations());
  ASSERT_LE(outcome.theta, estimation_samples(outcome));
  EXPECT_EQ(collection.selections(), outcome.estimation_iterations);
  EXPECT_TRUE(outcome.selection_reused);
  expect_recomputed(outcome, collection);
}

TEST(MartingaleSelections, ExhaustedScheduleWithTopUpSelectsAgain) {
  Config config;
  config.coverage = 0.001;
  FakeCollection collection(config);
  const MartingaleOutcome outcome = run(collection, config);
  const ThetaSchedule schedule(config.num_vertices, config.k, config.epsilon,
                               config.l);
  ASSERT_EQ(outcome.estimation_iterations, schedule.max_iterations());
  ASSERT_GT(outcome.theta, estimation_samples(outcome));
  EXPECT_EQ(collection.selections(), outcome.estimation_iterations + 1);
  EXPECT_FALSE(outcome.selection_reused);
  expect_recomputed(outcome, collection);
}

TEST(MartingaleSelections, ReusedFinalSelectionKeepsItsLedgerRow) {
  // The run still says where its time went: the final round keeps its
  // ledger row, which reads no sampling and no selection on the reused
  // path.
  const Config config = no_top_up();
  FakeCollection collection(config);
  detail::RoundLedger ledger;
  const detail::RoundAccounting acct{&ledger, 0, {}};
  metrics::set_enabled(true);
  const MartingaleOutcome outcome =
      run(collection, config, nullptr, nullptr, acct);
  metrics::set_enabled(false);
  ASSERT_TRUE(outcome.selection_reused);
  const std::vector<metrics::RoundEntry> rows = ledger.entries();
  ASSERT_EQ(rows.size(), outcome.estimation_iterations + 1);
  EXPECT_EQ(rows.back().round, outcome.estimation_iterations + 1);
  EXPECT_EQ(rows.back().sample_seconds, 0.0);
  EXPECT_EQ(rows.back().select_seconds, 0.0);
}

// --- driver cells: the report's reuse marker ---------------------------------

enum class Driver { Sequential, Multithreaded, Baseline, Distributed,
                    DistributedPartitioned };

const char *name_of(Driver driver) {
  switch (driver) {
  case Driver::Sequential: return "seq";
  case Driver::Multithreaded: return "mt";
  case Driver::Baseline: return "baseline";
  case Driver::Distributed: return "dist";
  case Driver::DistributedPartitioned: return "dist_part";
  }
  return "?";
}

ImmResult solve(Driver driver, const CsrGraph &graph, ImmOptions options) {
  switch (driver) {
  case Driver::Sequential: return imm_sequential(graph, options);
  case Driver::Multithreaded:
    options.num_threads = 3;
    return imm_multithreaded(graph, options);
  case Driver::Baseline: return imm_baseline_hypergraph(graph, options);
  case Driver::Distributed:
    options.num_ranks = 3;
    return imm_distributed(graph, options);
  case Driver::DistributedPartitioned:
    options.num_ranks = 3;
    return imm_distributed_partitioned(graph, options);
  }
  return {};
}

std::uint64_t final_reused_count() {
  return metrics::Registry::instance().counter("imm.select.final_reused")
      .value();
}

class ReuseMarker : public ::testing::TestWithParam<Driver> {};

TEST_P(ReuseMarker, MarksExactlyTheRunsWithoutATopUp) {
  CsrGraph graph(barabasi_albert(400, 3, 77));
  assign_uniform_weights(graph, 78);

  // On this input epsilon 0.5 overshoots |R| (a top-up) and 0.7 accepts
  // with |R| to spare; each driver must see both.
  bool saw_top_up = false;
  bool saw_reuse = false;
  metrics::set_enabled(true);
  for (std::uint32_t k : {8u, 16u}) {
    for (double epsilon : {0.5, 0.7}) {
      ImmOptions options;
      options.epsilon = epsilon;
      options.k = k;
      options.seed = 4242;
      const std::uint64_t before = final_reused_count();
      const ImmResult result = solve(GetParam(), graph, options);
      const metrics::RunReport &report = result.report;
      ASSERT_GE(report.theta_iterations, 1u);
      const bool topped_up =
          result.theta > report.extend_targets.at(report.theta_iterations - 1);
      EXPECT_EQ(final_reused_count() - before, topped_up ? 0u : 1u)
          << name_of(GetParam()) << " k=" << k << " epsilon=" << epsilon;
      EXPECT_EQ(report.extend_targets.size(),
                report.theta_iterations + (topped_up ? 1u : 0u));
      (topped_up ? saw_top_up : saw_reuse) = true;
    }
  }
  metrics::set_enabled(false);
  metrics::report_log().clear();
  EXPECT_TRUE(saw_top_up) << name_of(GetParam());
  EXPECT_TRUE(saw_reuse) << name_of(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, ReuseMarker,
    ::testing::Values(Driver::Sequential, Driver::Multithreaded,
                      Driver::Baseline, Driver::Distributed,
                      Driver::DistributedPartitioned),
    [](const auto &cell) { return std::string(name_of(cell.param)); });

} // namespace
} // namespace ripples
