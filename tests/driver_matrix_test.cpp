// Combinatorial contract sweep: every IMM driver (the distributed one also
// with threaded ranks) x both diffusion models x several (epsilon, k)
// settings x two graph shapes x both sampling engines must satisfy the
// output contract, and the counter-stream drivers must return the scalar
// reference martingale's answer (scalar_reference.hpp) bit-exactly in
// every cell of the matrix.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"
#include "scalar_reference.hpp"

namespace ripples {
namespace {

/// The last two run Alg. 4 on a team of 3 threads inside each mpsim rank.
enum class Driver { Sequential, Baseline, Multithreaded, Distributed,
                    DistributedPartitioned, Distributed2x3, Distributed3x3 };

const char *name_of(Driver driver) {
  switch (driver) {
  case Driver::Sequential: return "sequential";
  case Driver::Baseline: return "baseline";
  case Driver::Multithreaded: return "multithreaded";
  case Driver::Distributed: return "distributed";
  case Driver::DistributedPartitioned: return "distributed-partitioned";
  case Driver::Distributed2x3: return "distributed-2x3";
  case Driver::Distributed3x3: return "distributed-3x3";
  }
  return "?";
}

ImmResult run(Driver driver, const CsrGraph &graph, const ImmOptions &options) {
  switch (driver) {
  case Driver::Sequential: return imm_sequential(graph, options);
  case Driver::Baseline: return imm_baseline_hypergraph(graph, options);
  case Driver::Multithreaded: {
    ImmOptions local = options;
    local.num_threads = 3;
    return imm_multithreaded(graph, local);
  }
  case Driver::Distributed: {
    ImmOptions local = options;
    local.num_ranks = 3;
    return imm_distributed(graph, local);
  }
  case Driver::DistributedPartitioned: {
    ImmOptions local = options;
    local.num_ranks = 3;
    return imm_distributed_partitioned(graph, local);
  }
  case Driver::Distributed2x3:
  case Driver::Distributed3x3: {
    ImmOptions local = options;
    local.num_ranks = driver == Driver::Distributed2x3 ? 2 : 3;
    local.num_threads = 3;
    return imm_distributed(graph, local);
  }
  }
  return {};
}

/// The scale-free graph has a few hubs that win the early greedy rounds by
/// wide margins; the small-world graph has a flat coverage distribution,
/// where near-ties and the smallest-id tie-break decide the seed set.
enum class Shape { ScaleFree, SmallWorld };

CsrGraph make_graph(Shape shape, DiffusionModel model) {
  CsrGraph graph(shape == Shape::ScaleFree ? barabasi_albert(400, 3, 77)
                                           : watts_strogatz(400, 3, 0.1, 79));
  assign_uniform_weights(graph, 78);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

using Cell = std::tuple<Driver, DiffusionModel, double, std::uint32_t, Shape,
                        SamplerEngine>;

class DriverMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(DriverMatrix, SatisfiesContractAndSequentialAgreement) {
  auto [driver, model, epsilon, k, shape, engine] = GetParam();

  const CsrGraph graph = make_graph(shape, model);

  ImmOptions options;
  options.epsilon = epsilon;
  options.k = k;
  options.model = model;
  options.seed = 4242;
  // The fused engine promises byte-identical collections, so every
  // contract and agreement check below must hold cell-for-cell in both
  // engines; the reference below always runs the scalar kernels.
  options.sampler = engine;

  ImmResult result = run(driver, graph, options);

  // Contract.
  ASSERT_EQ(result.seeds.size(), k) << name_of(driver);
  std::set<vertex_t> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), k);
  for (vertex_t s : result.seeds) EXPECT_LT(s, graph.num_vertices());
  EXPECT_GE(result.theta, 1u);
  EXPECT_GE(result.num_samples, result.theta);
  EXPECT_GT(result.coverage_fraction, 0.0);
  EXPECT_LE(result.coverage_fraction, 1.0);
  EXPECT_GT(result.rrr_peak_bytes, 0u);
  // No budget here, so every driver certifies the requested accuracy.
  EXPECT_FALSE(result.degraded) << name_of(driver);
  EXPECT_EQ(result.epsilon_achieved, epsilon) << name_of(driver);
  EXPECT_EQ(result.report.epsilon_achieved, epsilon) << name_of(driver);

  // The counter-stream drivers share the exact sample distribution with
  // the scalar reference, so they must return its answer; in the fused
  // cells that comparison IS the fused byte-identity claim.  The
  // partitioned driver uses per-(sample, vertex) streams and is checked
  // for rank invariance in imm_partitioned_test instead.
  if (driver != Driver::DistributedPartitioned)
    scalar_reference::expect_matches(
        result, scalar_reference::solve(graph, options), name_of(driver));
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, DriverMatrix,
    ::testing::Combine(
        ::testing::Values(Driver::Sequential, Driver::Baseline,
                          Driver::Multithreaded, Driver::Distributed,
                          Driver::DistributedPartitioned,
                          Driver::Distributed2x3, Driver::Distributed3x3),
        ::testing::Values(DiffusionModel::IndependentCascade,
                          DiffusionModel::LinearThreshold),
        ::testing::Values(0.4, 0.5),
        ::testing::Values(2u, 12u),
        ::testing::Values(Shape::ScaleFree, Shape::SmallWorld),
        ::testing::Values(SamplerEngine::Sequential, SamplerEngine::Fused)));

// Fused acceptance sweep over rank counts: for every model x threads per
// rank in {1,2} x ranks in {1,2,4,8} x graph shape, the distributed
// driver must return the scalar reference's answer bit-exactly under
// both engines (the engines promise identical collections).  The LT cells
// run the fused engine's batched walk step on every rank count.
class FusedRankSweep
    : public ::testing::TestWithParam<
          std::tuple<DiffusionModel, unsigned, int, Shape>> {};

TEST_P(FusedRankSweep, FusedDistributedMatchesScalarEngine) {
  auto [model, threads, ranks, shape] = GetParam();

  const CsrGraph graph = make_graph(shape, model);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = model;
  options.seed = 4242;
  options.num_ranks = ranks;
  options.num_threads = threads;

  const auto reference = scalar_reference::solve(graph, options);
  options.sampler = SamplerEngine::Fused;
  scalar_reference::expect_matches(imm_distributed(graph, options), reference,
                                   "fused");
  options.sampler = SamplerEngine::Sequential;
  scalar_reference::expect_matches(imm_distributed(graph, options), reference,
                                   "scalar");
}

INSTANTIATE_TEST_SUITE_P(
    RanksExchange, FusedRankSweep,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(Shape::ScaleFree,
                                         Shape::SmallWorld)));

// Stealing axis (DESIGN.md §13): for every threads per rank in {1,2} x
// ranks in {1,2,4,8} x graph shape x engine, the distributed driver
// with work-stealing on (and the skewed fig7 partition manufactured, so
// inter steals actually move chunks) must agree bit-exactly with the same
// configuration with stealing off — stealing is a pure placement knob —
// and with the scalar reference.  With two threads a rank's stolen
// chunks are drawn under its samplers' dynamic schedule.
class StealSweep
    : public ::testing::TestWithParam<
          std::tuple<unsigned, int, Shape, SamplerEngine>> {};

TEST_P(StealSweep, StealingOnMatchesStealingOff) {
  auto [threads, ranks, shape, engine] = GetParam();

  const CsrGraph graph =
      make_graph(shape, DiffusionModel::IndependentCascade);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 4242;
  options.num_ranks = ranks;
  options.num_threads = threads;
  options.sampler = engine;
  options.steal = StealMode::Off;
  options.steal_chunk = 16;

  ImmResult off = imm_distributed(graph, options);
  options.steal = StealMode::On;
  options.steal_skew = true;
  ImmResult on = imm_distributed(graph, options);

  EXPECT_EQ(on.seeds, off.seeds);
  EXPECT_EQ(on.theta, off.theta);
  EXPECT_EQ(on.num_samples, off.num_samples);
  EXPECT_EQ(on.coverage_fraction, off.coverage_fraction);

  scalar_reference::expect_matches(on, scalar_reference::solve(graph, options),
                                   "stealing on");
}

INSTANTIATE_TEST_SUITE_P(
    RanksExchangeEngine, StealSweep,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(Shape::ScaleFree, Shape::SmallWorld),
                       ::testing::Values(SamplerEngine::Sequential,
                                         SamplerEngine::Fused)));

// Forced-compression axis: under --rrr-compress always every governed
// driver must return byte-identical seeds to its plain-representation run —
// the compressed store changes where samples live, never which samples
// exist or how the greedy breaks ties.  The ungoverned drivers (baseline,
// dist-part) are swept too, pinning the flag as a strict no-op there.
class CompressionSweep
    : public ::testing::TestWithParam<std::tuple<Driver, DiffusionModel>> {};

TEST_P(CompressionSweep, ForcedCompressionMatchesPlainSeeds) {
  auto [driver, model] = GetParam();

  const CsrGraph graph = make_graph(Shape::ScaleFree, model);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = model;
  options.seed = 4242;

  options.rrr_compress = CompressMode::Off;
  ImmResult plain = run(driver, graph, options);
  options.rrr_compress = CompressMode::Always;
  ImmResult compressed = run(driver, graph, options);

  EXPECT_EQ(compressed.seeds, plain.seeds) << name_of(driver);
  EXPECT_EQ(compressed.theta, plain.theta);
  EXPECT_EQ(compressed.num_samples, plain.num_samples);
  EXPECT_EQ(compressed.coverage_fraction, plain.coverage_fraction);
  EXPECT_FALSE(compressed.degraded);
}

INSTANTIATE_TEST_SUITE_P(
    AllDrivers, CompressionSweep,
    ::testing::Combine(
        ::testing::Values(Driver::Sequential, Driver::Baseline,
                          Driver::Multithreaded, Driver::Distributed,
                          Driver::DistributedPartitioned,
                          Driver::Distributed2x3, Driver::Distributed3x3),
        ::testing::Values(DiffusionModel::IndependentCascade,
                          DiffusionModel::LinearThreshold)));

} // namespace
} // namespace ripples
