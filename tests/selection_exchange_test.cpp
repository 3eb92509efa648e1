// End-to-end harness for the distributed drivers' selection exchange
// (Section 3.2, DESIGN.md §8): every greedy round allreduces the ranks'
// counters and picks the argmax on each rank's team primary.  Across ranks
// x k x diffusion model x threads per rank x stored representation,
// imm_distributed must return the seed set, theta, |R| and coverage of
// imm_sequential.  The partitioned driver makes the same allreduce over
// its vertex slices; its result must not depend on the rank count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/budget.hpp"
#include "imm/imm.hpp"
#include "support/metrics.hpp"

namespace ripples {
namespace {

void expect_sequential_outcome(const CsrGraph &graph,
                               const ImmOptions &options) {
  const ImmResult distributed = imm_distributed(graph, options);
  ImmOptions reference_options = options;
  reference_options.num_ranks = 1;
  reference_options.num_threads = 1;
  reference_options.rrr_compress = CompressMode::Off;
  const ImmResult reference = imm_sequential(graph, reference_options);
  EXPECT_EQ(distributed.seeds, reference.seeds);
  EXPECT_EQ(distributed.theta, reference.theta);
  EXPECT_EQ(distributed.num_samples, reference.num_samples);
  EXPECT_EQ(distributed.coverage_fraction, reference.coverage_fraction);
}

CsrGraph pick_graph(DiffusionModel model) {
  CsrGraph graph(barabasi_albert(300, 3, 55));
  assign_uniform_weights(graph, 56);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

/// (ranks, k, diffusion model, threads per rank, stored representation).
/// The matrix keeps the ambient representation (CompressMode::Auto leaves
/// it to RIPPLES_RRR_COMPRESS) with one and two threads per rank; the
/// threaded-rank cells also force each representation.  LT's sets are a
/// few vertices long, so its counters are sparse and its rounds are
/// decided by small margins.
using PickCell = std::tuple<int, std::uint32_t, DiffusionModel, unsigned,
                            CompressMode>;

class DistributedPick : public ::testing::TestWithParam<PickCell> {};

TEST_P(DistributedPick, MatchesTheSequentialSeeds) {
  const auto [num_ranks, k, model, threads, compress] = GetParam();

  const CsrGraph graph = pick_graph(model);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = k;
  options.model = model;
  options.seed = 2019;
  options.num_ranks = num_ranks;
  options.num_threads = threads;
  if (compress != CompressMode::Auto) options.rrr_compress = compress;
  expect_sequential_outcome(graph, options);
}

std::string pick_name(const ::testing::TestParamInfo<PickCell> &info) {
  const auto [ranks, k, model, threads, compress] = info.param;
  std::string name = "dist_p" + std::to_string(ranks) + "_k" +
                     std::to_string(k);
  if (model == DiffusionModel::LinearThreshold) name += "_lt";
  if (threads != 1) name += "_t" + std::to_string(threads);
  if (compress == CompressMode::Off) name += "_plain";
  if (compress == CompressMode::Always) name += "_compressed";
  return name;
}

const auto kModels = ::testing::Values(DiffusionModel::IndependentCascade,
                                       DiffusionModel::LinearThreshold);

INSTANTIATE_TEST_SUITE_P(
    Matrix, DistributedPick,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(2u, 8u), kModels,
                       ::testing::Values(1u),
                       ::testing::Values(CompressMode::Auto)),
    pick_name);

// The matrix again on two threads per rank: Alg. 4 runs on each rank's
// team, and the team's primary thread makes the round's allreduce.
INSTANTIATE_TEST_SUITE_P(
    ThreadedMatrix, DistributedPick,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(2u, 8u), kModels,
                       ::testing::Values(2u),
                       ::testing::Values(CompressMode::Auto)),
    pick_name);

// Threaded ranks over plain and compressed stores.
INSTANTIATE_TEST_SUITE_P(
    ThreadedRanks, DistributedPick,
    ::testing::Combine(::testing::Values(2, 3), ::testing::Values(8u),
                       kModels, ::testing::Values(1u, 3u),
                       ::testing::Values(CompressMode::Off,
                                         CompressMode::Always)),
    pick_name);

TEST(DistributedPick, SecondGraphShapeAlsoMatches) {
  // A small-world graph has a much flatter coverage distribution than the
  // BA graph above: the regime where the smallest-id tie-break decides.
  CsrGraph graph(watts_strogatz(240, 4, 0.1, 91));
  assign_uniform_weights(graph, 92);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 7;
  options.num_ranks = 4;
  expect_sequential_outcome(graph, options);
}

TEST(DistributedPick, SecondGraphShapeUnderLinearThreshold) {
  CsrGraph graph(watts_strogatz(240, 4, 0.1, 91));
  assign_uniform_weights(graph, 92);
  renormalize_linear_threshold(graph);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::LinearThreshold;
  options.seed = 7;
  options.num_ranks = 4;
  options.num_threads = 2;
  expect_sequential_outcome(graph, options);
}

// --- the partitioned driver's pick --------------------------------------------

/// Its per-(sample, vertex) streams give it another collection than the
/// sequential driver's, so its reference is the one-rank run: the vertex
/// slices and the counter allreduce must not change what it selects.
void expect_one_rank_outcome(const CsrGraph &graph, const ImmOptions &options) {
  const ImmResult partitioned = imm_distributed_partitioned(graph, options);
  ImmOptions reference_options = options;
  reference_options.num_ranks = 1;
  const ImmResult reference =
      imm_distributed_partitioned(graph, reference_options);
  ASSERT_EQ(partitioned.seeds.size(), options.k);
  EXPECT_EQ(partitioned.seeds, reference.seeds);
  EXPECT_EQ(partitioned.theta, reference.theta);
  EXPECT_EQ(partitioned.num_samples, reference.num_samples);
  EXPECT_EQ(partitioned.coverage_fraction, reference.coverage_fraction);
}

/// (ranks, k).
class PartitionedPick
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(PartitionedPick, MatchesTheOneRankSeeds) {
  const auto [num_ranks, k] = GetParam();

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = k;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 2019;
  options.num_ranks = num_ranks;
  expect_one_rank_outcome(pick_graph(options.model), options);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PartitionedPick,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(2u, 8u)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint32_t>> &cell) {
      return "part_p" + std::to_string(std::get<0>(cell.param)) + "_k" +
             std::to_string(std::get<1>(cell.param));
    });

TEST(PartitionedPick, SecondGraphShapeAlsoMatches) {
  CsrGraph graph(watts_strogatz(240, 4, 0.1, 91));
  assign_uniform_weights(graph, 92);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 7;
  options.num_ranks = 4;
  expect_one_rank_outcome(graph, options);
}

// --- exchange volume ----------------------------------------------------------

TEST(SelectionExchangeWords, EveryRankMovesNWordsPerGreedyRound) {
  // Each greedy round allreduces the n-entry counter vector once per rank,
  // so imm.select.exchange_words is n * p per round, and the number of
  // rounds (k per selection, one selection per martingale round and the
  // final one unless it is reused) does not depend on p.
  const CsrGraph graph = pick_graph(DiffusionModel::IndependentCascade);
  const std::uint64_t n = graph.num_vertices();

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 2019;

  metrics::Counter &words =
      metrics::Registry::instance().counter("imm.select.exchange_words");
  auto rounds_at = [&](int ranks, bool partitioned) {
    options.num_ranks = ranks;
    metrics::set_enabled(true);
    const std::uint64_t base = words.value();
    (void)(partitioned ? imm_distributed_partitioned(graph, options)
                       : imm_distributed(graph, options));
    const std::uint64_t moved = words.value() - base;
    metrics::set_enabled(false);
    const std::uint64_t per_round = n * static_cast<std::uint64_t>(ranks);
    EXPECT_EQ(moved % per_round, 0u) << "p=" << ranks;
    return moved / per_round;
  };
  for (const bool partitioned : {false, true}) {
    const std::uint64_t rounds = rounds_at(1, partitioned);
    EXPECT_GE(rounds, options.k) << "partitioned=" << partitioned;
    EXPECT_EQ(rounds % options.k, 0u) << "partitioned=" << partitioned;
    for (const int ranks : {2, 4})
      EXPECT_EQ(rounds_at(ranks, partitioned), rounds)
          << "p=" << ranks << " partitioned=" << partitioned;
  }
}

} // namespace
} // namespace ripples
