// Property harness for the sparse selection exchange (DESIGN.md §8): the
// pure kernels (sparse_topm / sparse_merge / sparse_certify_exact) are
// driven against brute-force oracles over randomized counter matrices —
// certification must hold exactly when the documented bound holds, and a
// certified winner must equal the dense argmax including the smallest-id
// tie-break.  End to end, the sparse protocol must return bit-identical
// seed sets and coverage across graphs x ranks x k x RNG modes, survive
// injected rank failures with bit-identical healing, and demonstrably move
// fewer words than the dense allreduce (asserted from the metrics
// registry).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/budget.hpp"
#include "imm/imm.hpp"
#include "imm/select.hpp"
#include "support/metrics.hpp"

#include "fault_probe.hpp"

namespace ripples {
namespace {

// --- brute-force oracles -----------------------------------------------------

/// Dense argmax over the element-wise sum of per-rank counters: the winner
/// the sparse protocol must reproduce (smallest id among maxima; smallest
/// unselected id when everything is zero — argmax_counter's contract).
vertex_t dense_argmax(const std::vector<std::vector<std::uint32_t>> &ranks,
                      const std::vector<std::uint8_t> &selected) {
  const std::size_t n = ranks.front().size();
  vertex_t best = 0;
  std::uint64_t best_count = 0;
  bool found = false;
  for (vertex_t v = 0; v < n; ++v) {
    if (selected[v]) continue;
    std::uint64_t total = 0;
    for (const auto &r : ranks) total += r[v];
    if (!found || total > best_count) {
      found = true;
      best = v;
      best_count = total;
    }
  }
  EXPECT_TRUE(found);
  return best;
}

/// Independent restatement of the header's certification rule, written from
/// the documented math rather than the implementation: LB/UB per candidate,
/// T for unreported vertices, strict bounds, exact ties only between fully
/// known candidates with the winner holding the smaller id.
bool oracle_certified(const std::vector<TopmSummary> &summaries) {
  struct Info {
    std::uint64_t lb = 0;
    std::uint64_t missing_outside = 0;
    bool exact = false;
  };
  std::uint64_t total_outside = 0;
  for (const TopmSummary &s : summaries) total_outside += s.outside_bound;

  std::set<vertex_t> union_set;
  for (const TopmSummary &s : summaries)
    for (const CounterPair &pair : s.top) union_set.insert(pair.vertex);
  if (union_set.empty()) return false;

  std::vector<vertex_t> candidates(union_set.begin(), union_set.end());
  std::vector<Info> info(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    std::size_t reporters = 0;
    std::uint64_t missing = 0;
    for (const TopmSummary &s : summaries) {
      bool reported = false;
      for (const CounterPair &pair : s.top) {
        if (pair.vertex != candidates[c]) continue;
        info[c].lb += pair.count;
        reported = true;
        break;
      }
      if (reported)
        ++reporters;
      else
        missing += s.outside_bound;
    }
    info[c].missing_outside = missing;
    info[c].exact = reporters == summaries.size() || missing == 0;
  }

  std::size_t winner = 0;
  for (std::size_t c = 1; c < candidates.size(); ++c)
    if (info[c].lb > info[winner].lb) winner = c;
  if (total_outside >= info[winner].lb) return false;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (c == winner) continue;
    const std::uint64_t ub = info[c].lb + info[c].missing_outside;
    if (ub < info[winner].lb) continue;
    const bool exact_tie = ub == info[winner].lb && info[c].exact &&
                           info[winner].exact &&
                           candidates[winner] < candidates[c];
    if (!exact_tie) return false;
  }
  return true;
}

// --- sparse_topm -------------------------------------------------------------

TEST(SparseTopm, ReportsTheBestMInDenseArgmaxOrder) {
  const std::vector<std::uint32_t> counters{5, 9, 1, 9, 0, 7};
  const std::vector<std::uint8_t> selected(6, 0);
  const TopmSummary summary = sparse_topm(counters, selected, 3);
  ASSERT_EQ(summary.top.size(), 3u);
  EXPECT_EQ(summary.top[0].vertex, 1u); // count 9, smaller id first
  EXPECT_EQ(summary.top[1].vertex, 3u); // count 9
  EXPECT_EQ(summary.top[2].vertex, 5u); // count 7
  // The exact maximum among the unreported vertices {0, 2, 4}.
  EXPECT_EQ(summary.outside_bound, 5u);
}

TEST(SparseTopm, SkipsSelectedVerticesEntirely) {
  const std::vector<std::uint32_t> counters{5, 9, 1, 9, 0, 7};
  std::vector<std::uint8_t> selected(6, 0);
  selected[1] = 1;
  selected[3] = 1;
  const TopmSummary summary = sparse_topm(counters, selected, 2);
  ASSERT_EQ(summary.top.size(), 2u);
  EXPECT_EQ(summary.top[0].vertex, 5u);
  EXPECT_EQ(summary.top[1].vertex, 0u);
  EXPECT_EQ(summary.outside_bound, 1u);
}

TEST(SparseTopm, FillsWithZeroCountsAndZeroOutsideBoundWhenAllReported) {
  const std::vector<std::uint32_t> counters{0, 2, 0};
  const std::vector<std::uint8_t> selected(3, 0);
  const TopmSummary summary = sparse_topm(counters, selected, 8);
  ASSERT_EQ(summary.top.size(), 3u); // every unselected vertex fits
  EXPECT_EQ(summary.top[0].vertex, 1u);
  EXPECT_EQ(summary.top[1].vertex, 0u); // zero counts, smaller id first
  EXPECT_EQ(summary.top[2].vertex, 2u);
  EXPECT_EQ(summary.outside_bound, 0u);
}

TEST(SparseTopm, OutsideBoundIsExactNotJustAnUpperBound) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 40;
    const std::uint32_t m = 1 + rng() % 8;
    std::vector<std::uint32_t> counters(n);
    std::vector<std::uint8_t> selected(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      counters[v] = rng() % 12;
      selected[v] = rng() % 4 == 0;
    }
    if (std::count(selected.begin(), selected.end(), 0) == 0) selected[0] = 0;

    const TopmSummary summary = sparse_topm(counters, selected, m);
    std::set<vertex_t> reported;
    for (const CounterPair &pair : summary.top) {
      EXPECT_FALSE(selected[pair.vertex]);
      EXPECT_EQ(pair.count, counters[pair.vertex]);
      reported.insert(pair.vertex);
    }
    std::uint32_t expected_outside = 0;
    for (vertex_t v = 0; v < n; ++v)
      if (!selected[v] && !reported.count(v))
        expected_outside = std::max(expected_outside, counters[v]);
    EXPECT_EQ(summary.outside_bound, expected_outside);
    // Every reported count is >= every unreported count (top-m property).
    for (const CounterPair &pair : summary.top)
      EXPECT_GE(pair.count, expected_outside);
  }
}

// --- sparse_merge: crafted cases --------------------------------------------

TEST(SparseMerge, CertifiesAClearWinner) {
  // Two ranks both report vertex 2 far above everything else.
  std::vector<TopmSummary> summaries(2);
  summaries[0].top = {{2, 50}, {7, 3}};
  summaries[0].outside_bound = 2;
  summaries[1].top = {{2, 40}, {9, 4}};
  summaries[1].outside_bound = 3;
  const SparseMergeResult merged = sparse_merge(summaries);
  EXPECT_TRUE(merged.certified);
  EXPECT_EQ(merged.winner, 2u);
  EXPECT_EQ(merged.candidates, (std::vector<vertex_t>{2, 7, 9}));
}

TEST(SparseMerge, RefusesWhenAPartiallyReportedRivalCouldOvertake) {
  // Vertex 9 leads on LB, but vertex 7 was reported by only rank 0 and
  // rank 1's outside bound lets it reach 10 + 6 = 16 > 15.
  std::vector<TopmSummary> summaries(2);
  summaries[0].top = {{9, 8}, {7, 10}};
  summaries[0].outside_bound = 1;
  summaries[1].top = {{9, 7}, {3, 5}};
  summaries[1].outside_bound = 6;
  const SparseMergeResult merged = sparse_merge(summaries);
  EXPECT_FALSE(merged.certified);
  EXPECT_EQ(merged.winner, 9u); // still the best-LB candidate
}

TEST(SparseMerge, RefusesWhenAnUnreportedVertexCouldTie) {
  // T = 5 + 5 equals the winner's LB = 10: an unreported vertex of unknown
  // (possibly smaller) id could tie, so the tie-break is unprovable.
  std::vector<TopmSummary> summaries(2);
  summaries[0].top = {{4, 5}};
  summaries[0].outside_bound = 5;
  summaries[1].top = {{4, 5}};
  summaries[1].outside_bound = 5;
  const SparseMergeResult merged = sparse_merge(summaries);
  EXPECT_FALSE(merged.certified);
}

TEST(SparseMerge, CertifiesAnExactTieWhenTheWinnerHasTheSmallerId) {
  // Both candidates fully reported by both ranks, equal totals, outside
  // bounds zero: the dense argmax provably picks the smaller id.
  std::vector<TopmSummary> summaries(2);
  summaries[0].top = {{3, 6}, {8, 7}};
  summaries[0].outside_bound = 0;
  summaries[1].top = {{3, 6}, {8, 5}};
  summaries[1].outside_bound = 0;
  const SparseMergeResult merged = sparse_merge(summaries);
  EXPECT_TRUE(merged.certified);
  EXPECT_EQ(merged.winner, 3u);
}

TEST(SparseMerge, RefusesAnExactTieWhenTheRivalHasTheSmallerId) {
  // Same totals, but the rival's id is smaller: the dense argmax would
  // pick the rival, and LB-preference picked it too — yet here the winner
  // by (LB, id) is vertex 3 and vertex 8 ties exactly.  Construct the
  // reverse: winner id larger than an exactly-tying rival.
  std::vector<TopmSummary> summaries(2);
  summaries[0].top = {{8, 6}, {3, 6}};
  summaries[0].outside_bound = 0;
  summaries[1].top = {{8, 6}, {3, 6}};
  summaries[1].outside_bound = 0;
  const SparseMergeResult merged = sparse_merge(summaries);
  // Winner must be vertex 3 (same LB, smaller id) and the exact tie with 8
  // is certifiable.
  EXPECT_EQ(merged.winner, 3u);
  EXPECT_TRUE(merged.certified);
}

TEST(SparseMerge, RefusesAPartialTieEvenWithEqualBounds) {
  // Vertex 5 ties the winner's LB at its UB but is not fully reported
  // (rank 1 did not list it and has a nonzero outside bound): its true
  // count may be anywhere in [4, 9], so no certificate.
  std::vector<TopmSummary> summaries(2);
  summaries[0].top = {{2, 9}, {5, 4}};
  summaries[0].outside_bound = 0;
  summaries[1].top = {{2, 0}, {6, 1}};
  summaries[1].outside_bound = 5;
  const SparseMergeResult merged = sparse_merge(summaries);
  EXPECT_EQ(merged.winner, 2u);
  EXPECT_FALSE(merged.certified);
}

TEST(SparseMerge, CandidatesAreTheSortedUnionOnEveryRank) {
  std::vector<TopmSummary> summaries(3);
  summaries[0].top = {{9, 3}, {1, 2}};
  summaries[1].top = {{4, 1}, {9, 1}};
  summaries[2].top = {{0, 5}};
  const SparseMergeResult merged = sparse_merge(summaries);
  EXPECT_EQ(merged.candidates, (std::vector<vertex_t>{0, 1, 4, 9}));
}

// --- sparse_certify_exact ----------------------------------------------------

TEST(SparseCertifyExact, PicksTheSmallestIdAmongMaximaAndNeedsStrictMargin) {
  const std::vector<vertex_t> candidates{3, 5, 11};
  const std::vector<std::uint32_t> counts{7, 9, 9};
  SparseExactResult result = sparse_certify_exact(candidates, counts, 8);
  EXPECT_TRUE(result.certified); // 9 > 8
  EXPECT_EQ(result.winner, 5u);  // smaller id of the two maxima

  result = sparse_certify_exact(candidates, counts, 9);
  EXPECT_FALSE(result.certified); // an outside vertex could tie at 9
  EXPECT_EQ(result.winner, 5u);

  result = sparse_certify_exact(candidates, counts, 10);
  EXPECT_FALSE(result.certified); // an outside vertex could exceed
}

// --- randomized kernel properties -------------------------------------------

/// Drives the full stage-1 pipeline over random per-rank counter matrices:
/// certification must equal the independently restated bound predicate
/// (fallback fires iff the bound is violated), and a certified winner must
/// equal the dense argmax.  Both outcomes must actually occur.
TEST(SparseExchangeProperty, CertificationIsExactlyTheBoundPredicate) {
  std::mt19937 rng(777);
  int certified_seen = 0;
  int uncertified_seen = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 4 + rng() % 60;
    const std::size_t p = 1 + rng() % 8;
    const std::uint32_t m = 1 + rng() % 6;
    // Three regimes: a globally dominant vertex (certifies), near-uniform
    // noise (refuses), and random skew (either way).
    const int regime = trial % 3;
    std::vector<std::vector<std::uint32_t>> ranks(p);
    std::vector<std::uint8_t> selected(n, 0);
    for (std::size_t v = 0; v < n; ++v) selected[v] = rng() % 5 == 0;
    if (std::count(selected.begin(), selected.end(), 0) == 0) selected[0] = 0;
    const auto hot = static_cast<vertex_t>(
        std::find(selected.begin(), selected.end(), 0) - selected.begin());
    for (auto &counters : ranks) {
      counters.resize(n);
      for (std::size_t v = 0; v < n; ++v)
        counters[v] = regime == 1 ? rng() % 6
                                  : (rng() % 8 ? rng() % 3 : 40 + rng() % 20);
      if (regime == 0) counters[hot] = 200 + rng() % 20;
    }

    std::vector<TopmSummary> summaries;
    summaries.reserve(p);
    for (const auto &counters : ranks)
      summaries.push_back(sparse_topm(counters, selected, m));
    const SparseMergeResult merged = sparse_merge(summaries);

    EXPECT_EQ(merged.certified, oracle_certified(summaries))
        << "trial " << trial;
    if (merged.certified) {
      ++certified_seen;
      EXPECT_EQ(merged.winner, dense_argmax(ranks, selected))
          << "trial " << trial;
    } else {
      ++uncertified_seen;
    }
  }
  // The property is vacuous unless the matrix exercised both branches.
  EXPECT_GT(certified_seen, 50);
  EXPECT_GT(uncertified_seen, 50);
}

/// Stage 2 on random data: allreduced exact candidate counts + summed
/// outside maxima.  A certificate must imply the dense argmax; refusal must
/// imply an outside vertex really could tie or win.
TEST(SparseExchangeProperty, ExactStageCertifiesOnlyTrueWinners) {
  std::mt19937 rng(4242);
  int certified_seen = 0;
  int uncertified_seen = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 4 + rng() % 40;
    const std::size_t p = 1 + rng() % 6;
    std::vector<std::vector<std::uint32_t>> ranks(p);
    std::vector<std::uint8_t> selected(n, 0);
    for (auto &counters : ranks) {
      counters.resize(n);
      for (std::size_t v = 0; v < n; ++v)
        counters[v] = rng() % 2 ? rng() % 30 : 0;
    }
    // A random candidate subset standing in for stage 1's union.
    std::vector<vertex_t> candidates;
    for (vertex_t v = 0; v < n; ++v)
      if (rng() % 3 == 0) candidates.push_back(v);
    if (candidates.empty()) candidates.push_back(0);
    // Half the trials plant a dominant candidate so certification occurs.
    if (trial % 2 == 0)
      for (auto &counters : ranks) counters[candidates.front()] += 100;

    std::vector<std::uint32_t> exact(candidates.size());
    std::uint64_t outside_sum = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c)
      for (const auto &counters : ranks) exact[c] += counters[candidates[c]];
    for (const auto &counters : ranks) {
      std::uint32_t outside_max = 0;
      for (vertex_t v = 0; v < n; ++v)
        if (!std::binary_search(candidates.begin(), candidates.end(), v))
          outside_max = std::max(outside_max, counters[v]);
      outside_sum += outside_max;
    }

    const SparseExactResult result =
        sparse_certify_exact(candidates, exact, outside_sum);
    if (result.certified) {
      ++certified_seen;
      EXPECT_EQ(result.winner, dense_argmax(ranks, selected))
          << "trial " << trial;
    } else {
      ++uncertified_seen;
    }
  }
  EXPECT_GT(certified_seen, 50);
  EXPECT_GT(uncertified_seen, 50);
}

// --- end-to-end equivalence --------------------------------------------------

enum class ExchangeDriver { Distributed, Partitioned };

/// (driver, ranks, k, RNG mode, threads per rank, stored representation,
/// top-m).  The matrix keeps one thread, the ambient representation
/// (CompressMode::Auto leaves it to RIPPLES_RRR_COMPRESS) and the default
/// m; the threaded-rank cells vary all three.
using EquivalenceCell = std::tuple<ExchangeDriver, int, std::uint32_t, RngMode,
                                   unsigned, CompressMode, std::uint32_t>;

class SparseEquivalence : public ::testing::TestWithParam<EquivalenceCell> {};

std::uint64_t counter_value(const char *name) {
  return metrics::Registry::instance().counter(name).value();
}

TEST_P(SparseEquivalence, SparseSeedsAndCoverageMatchDense) {
  const auto [driver, num_ranks, k, rng_mode, threads, compress, topm] =
      GetParam();
  // The partitioned driver defines randomness per (sample, vertex) and
  // rejects leap-frog streams.
  if (driver == ExchangeDriver::Partitioned && rng_mode == RngMode::LeapfrogLcg)
    GTEST_SKIP() << "partitioned driver is counter-stream only";

  CsrGraph graph(barabasi_albert(300, 3, 55));
  assign_uniform_weights(graph, 56);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = k;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 2019;
  options.num_ranks = num_ranks;
  options.rng_mode = rng_mode;

  auto run = [&](SelectionExchange exchange, unsigned num_threads,
                 CompressMode mode, std::uint32_t m) {
    ImmOptions local = options;
    local.selection_exchange = exchange;
    local.num_threads = num_threads;
    if (mode != CompressMode::Auto) local.rrr_compress = mode;
    local.selection_topm = m;
    return driver == ExchangeDriver::Distributed
               ? imm_distributed(graph, local)
               : imm_distributed_partitioned(graph, local);
  };
  const std::uint32_t default_m = ImmOptions{}.selection_topm;
  const ImmResult dense =
      run(SelectionExchange::Dense, threads, compress, default_m);
  metrics::set_enabled(true);
  const std::uint64_t candidate0 =
      counter_value("imm.select.sparse_candidate_fallbacks");
  const std::uint64_t dense0 =
      counter_value("imm.select.sparse_dense_fallbacks");
  const ImmResult sparse = run(SelectionExchange::Sparse, threads, compress,
                               topm);
  metrics::set_enabled(false);

  EXPECT_EQ(sparse.seeds, dense.seeds);
  EXPECT_EQ(sparse.theta, dense.theta);
  EXPECT_EQ(sparse.num_samples, dense.num_samples);
  EXPECT_EQ(sparse.coverage_fraction, dense.coverage_fraction);
  // m = 1 drives rounds past stage 1 into the candidate re-reduce (stage
  // 2) and the delta-synced dense fallback (stage 3).
  if (topm == 1) {
    EXPECT_GT(counter_value("imm.select.sparse_candidate_fallbacks"),
              candidate0);
    EXPECT_GT(counter_value("imm.select.sparse_dense_fallbacks"), dense0);
  }
  // A rank's threads and its stored representation change nothing.
  if (threads != 1 || compress != CompressMode::Auto) {
    const ImmResult reference =
        run(SelectionExchange::Dense, 1, CompressMode::Off, default_m);
    EXPECT_EQ(dense.seeds, reference.seeds);
    EXPECT_EQ(dense.theta, reference.theta);
    EXPECT_EQ(dense.coverage_fraction, reference.coverage_fraction);
  }
}

std::string equivalence_name(
    const ::testing::TestParamInfo<EquivalenceCell> &info) {
  const auto [driver, ranks, k, rng_mode, threads, compress, topm] =
      info.param;
  std::string name =
      driver == ExchangeDriver::Distributed ? "dist" : "part";
  name += "_p" + std::to_string(ranks) + "_k" + std::to_string(k);
  name += rng_mode == RngMode::CounterSequence ? "_counter" : "_leapfrog";
  if (threads != 1) name += "_t" + std::to_string(threads);
  if (compress == CompressMode::Off) name += "_plain";
  if (compress == CompressMode::Always) name += "_compressed";
  if (topm != ImmOptions{}.selection_topm) name += "_m" + std::to_string(topm);
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SparseEquivalence,
    ::testing::Combine(::testing::Values(ExchangeDriver::Distributed,
                                         ExchangeDriver::Partitioned),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(2u, 8u),
                       ::testing::Values(RngMode::CounterSequence,
                                         RngMode::LeapfrogLcg),
                       ::testing::Values(1u),
                       ::testing::Values(CompressMode::Auto),
                       ::testing::Values(ImmOptions{}.selection_topm)),
    equivalence_name);

// Alg. 4 on each rank's own team: threaded ranks over plain and compressed
// stores, with the default m and with m = 1.
INSTANTIATE_TEST_SUITE_P(
    ThreadedRanks, SparseEquivalence,
    ::testing::Combine(::testing::Values(ExchangeDriver::Distributed),
                       ::testing::Values(2, 3), ::testing::Values(8u),
                       ::testing::Values(RngMode::CounterSequence),
                       ::testing::Values(1u, 3u),
                       ::testing::Values(CompressMode::Off,
                                         CompressMode::Always),
                       ::testing::Values(ImmOptions{}.selection_topm, 1u)),
    equivalence_name);

TEST(SparseEquivalence, SecondGraphShapeAlsoMatches) {
  // A small-world graph has a much flatter coverage distribution than the
  // BA graph above — the regime where ties and fallbacks are common.
  CsrGraph graph(watts_strogatz(240, 4, 0.1, 91));
  assign_uniform_weights(graph, 92);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 7;
  options.num_ranks = 4;
  options.selection_exchange = SelectionExchange::Dense;

  ImmOptions sparse_options = options;
  sparse_options.selection_exchange = SelectionExchange::Sparse;
  // A tiny m forces the candidate and dense fallback stages to carry the
  // correctness burden.
  sparse_options.selection_topm = 1;

  const ImmResult dense = imm_distributed(graph, options);
  const ImmResult sparse = imm_distributed(graph, sparse_options);
  EXPECT_EQ(sparse.seeds, dense.seeds);
  EXPECT_EQ(sparse.coverage_fraction, dense.coverage_fraction);
}

TEST(SparseEquivalence, EnvironmentVariableSelectsTheProtocol) {
  // Start from a clean slate and restore the ambient value afterwards: the
  // check.sh sparse leg runs this binary with the variable already set.
  const char *ambient = std::getenv("RIPPLES_SELECTION_EXCHANGE");
  const std::string saved = ambient != nullptr ? ambient : "";
  ASSERT_EQ(unsetenv("RIPPLES_SELECTION_EXCHANGE"), 0);
  EXPECT_EQ(selection_exchange_from_env(), SelectionExchange::Dense);
  ASSERT_EQ(setenv("RIPPLES_SELECTION_EXCHANGE", "sparse", 1), 0);
  EXPECT_EQ(selection_exchange_from_env(), SelectionExchange::Sparse);
  ASSERT_EQ(setenv("RIPPLES_SELECTION_EXCHANGE", "dense", 1), 0);
  EXPECT_EQ(selection_exchange_from_env(), SelectionExchange::Dense);
  ASSERT_EQ(setenv("RIPPLES_SELECTION_EXCHANGE", "", 1), 0);
  EXPECT_EQ(selection_exchange_from_env(), SelectionExchange::Dense);
  ASSERT_EQ(unsetenv("RIPPLES_SELECTION_EXCHANGE"), 0);
  if (ambient != nullptr)
    ASSERT_EQ(setenv("RIPPLES_SELECTION_EXCHANGE", saved.c_str(), 1), 0);
}

using SparseEquivalenceDeathTest = ::testing::Test;

TEST(SparseEquivalenceDeathTest, TypoedEnvironmentValueIsRejected) {
  EXPECT_EXIT(
      {
        setenv("RIPPLES_SELECTION_EXCHANGE", "sprase", 1);
        (void)selection_exchange_from_env();
      },
      ::testing::ExitedWithCode(2),
      "RIPPLES_SELECTION_EXCHANGE: expected dense.sparse, got 'sprase'");
}

// --- word-count reduction ----------------------------------------------------

std::uint64_t exchange_words() {
  return metrics::Registry::instance()
      .counter("imm.select.exchange_words")
      .value();
}

TEST(SparseExchangeWords, SparseMovesAtLeastFiveTimesFewerWordsAtP8) {
  CsrGraph graph(barabasi_albert(2000, 3, 33));
  assign_uniform_weights(graph, 34);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 16;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 11;
  options.num_ranks = 8;
  // Pin the dense arm: the default is env-derived and the check.sh sparse
  // leg runs this binary with RIPPLES_SELECTION_EXCHANGE=sparse.
  options.selection_exchange = SelectionExchange::Dense;

  metrics::set_enabled(true);
  const std::uint64_t base = exchange_words();
  (void)imm_distributed(graph, options);
  const std::uint64_t dense_words = exchange_words() - base;

  options.selection_exchange = SelectionExchange::Sparse;
  (void)imm_distributed(graph, options);
  const std::uint64_t sparse_words = exchange_words() - base - dense_words;
  metrics::set_enabled(false);

  ASSERT_GT(dense_words, 0u);
  ASSERT_GT(sparse_words, 0u);
  EXPECT_GE(dense_words, 5 * sparse_words)
      << "dense=" << dense_words << " sparse=" << sparse_words;
}

TEST(SparseExchangeWords, SparseRoundsAndCertificationsAreAccounted) {
  CsrGraph graph(barabasi_albert(300, 3, 55));
  assign_uniform_weights(graph, 56);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 4;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 3;
  options.num_ranks = 3;
  options.selection_exchange = SelectionExchange::Sparse;

  metrics::Registry &registry = metrics::Registry::instance();
  metrics::set_enabled(true);
  const std::uint64_t rounds0 =
      registry.counter("imm.select.sparse_rounds").value();
  const std::uint64_t certified0 =
      registry.counter("imm.select.sparse_certified").value();
  const std::uint64_t candidate0 =
      registry.counter("imm.select.sparse_candidate_fallbacks").value();
  const std::uint64_t dense0 =
      registry.counter("imm.select.sparse_dense_fallbacks").value();
  (void)imm_distributed(graph, options);
  metrics::set_enabled(false);

  const std::uint64_t rounds =
      registry.counter("imm.select.sparse_rounds").value() - rounds0;
  const std::uint64_t certified =
      registry.counter("imm.select.sparse_certified").value() - certified0;
  const std::uint64_t candidate =
      registry.counter("imm.select.sparse_candidate_fallbacks").value() -
      candidate0;
  const std::uint64_t dense_fb =
      registry.counter("imm.select.sparse_dense_fallbacks").value() - dense0;
  // Every rank logs every round; rounds not certified at stage 1 must have
  // escalated to the candidate stage, and dense fallbacks are a subset of
  // those.
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(rounds - certified, candidate);
  EXPECT_LE(dense_fb, candidate);
}

// --- fault injection over the sparse path ------------------------------------

TEST(SparseExchangeFaults, HealedSparseRunsMatchTheCleanSeedSetAtEverySite) {
  CsrGraph graph(barabasi_albert(400, 3, 11));
  assign_uniform_weights(graph, 12);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 2019;
  options.num_ranks = 3;
  options.selection_exchange = SelectionExchange::Sparse;

  const ImmResult clean = imm_distributed(graph, options);
  ASSERT_EQ(clean.seeds.size(), options.k);

  options.recover_failures = true;
  // Sites 0..12 cover the sampler allreduce plus every collective of the
  // three sparse stages (top-m allgatherv, bound allgather, candidate
  // allreduce, dense resync, delta allgatherv) across several rounds.
  fault_probe::ScopedMetrics metrics_on;
  for (int rank = 0; rank < options.num_ranks; ++rank) {
    for (std::uint64_t site = 0; site <= 12; ++site) {
      options.fault_plan =
          "rank=" + std::to_string(rank) + ",site=" + std::to_string(site);
      const ImmResult healed = fault_probe::expect_fired(
          options.fault_plan, {fault_probe::kCrashes, fault_probe::kShrinks},
          [&] { return imm_distributed(graph, options); });
      EXPECT_EQ(healed.seeds, clean.seeds)
          << "sparse healing diverged for " << options.fault_plan;
    }
  }
}

} // namespace
} // namespace ripples
