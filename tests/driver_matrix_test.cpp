// Combinatorial contract sweep: every IMM driver (the distributed one also
// with threaded ranks) x both diffusion models x several (epsilon, k)
// settings x both selection-exchange protocols must satisfy the output
// contract, and the counter-stream drivers must agree bit-exactly with the
// sequential reference in every cell of the matrix.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"
#include "support/metrics.hpp"

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

using Cell = std::tuple<Driver, DiffusionModel, double, std::uint32_t,
                        SelectionExchange, SamplerEngine>;

class DriverMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(DriverMatrix, SatisfiesContractAndSequentialAgreement) {
  auto [driver, model, epsilon, k, exchange, engine] = GetParam();

  CsrGraph graph(barabasi_albert(400, 3, 77));
  assign_uniform_weights(graph, 78);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);

  ImmOptions options;
  options.epsilon = epsilon;
  options.k = k;
  options.model = model;
  options.seed = 4242;
  // Only the mpsim drivers consult the knob; the shared-memory drivers must
  // ignore it, which running them in both modes verifies for free.
  options.selection_exchange = exchange;
  // The fused engine promises byte-identical collections, so every
  // contract and agreement check below must hold cell-for-cell in both
  // engines; the reference below always runs the scalar engine.
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

  // The counter-stream drivers share the exact sample distribution with
  // the sequential reference, so the seed set must be identical.  The
  // partitioned driver uses per-(sample, vertex) streams and is checked
  // for rank invariance in imm_partitioned_test instead.
  // A fused sequential cell is still checked against the scalar-engine
  // reference: that comparison IS the fused byte-identity claim.
  if (driver != Driver::DistributedPartitioned &&
      (driver != Driver::Sequential || engine == SamplerEngine::Fused)) {
    ImmOptions reference_options = options;
    reference_options.sampler = SamplerEngine::Sequential;
    ImmResult reference = imm_sequential(graph, reference_options);
    EXPECT_EQ(result.seeds, reference.seeds) << name_of(driver);
    EXPECT_EQ(result.theta, reference.theta);
  }
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
        ::testing::Values(SelectionExchange::Dense,
                          SelectionExchange::Sparse),
        ::testing::Values(SamplerEngine::Sequential, SamplerEngine::Fused)));

// Fused acceptance sweep over rank counts: for every model x threads per
// rank in {1,2} x ranks in {1,2,4,8} x exchange protocol, the distributed
// driver under the fused engine must agree bit-exactly with the same
// configuration under the scalar engine (the engines promise identical
// collections) and with the sequential reference.  The LT cells run the
// fused engine's batched walk step on every rank count.
class FusedRankSweep
    : public ::testing::TestWithParam<
          std::tuple<DiffusionModel, unsigned, int, SelectionExchange>> {};

TEST_P(FusedRankSweep, FusedDistributedMatchesScalarEngine) {
  auto [model, threads, ranks, exchange] = GetParam();

  CsrGraph graph(barabasi_albert(400, 3, 77));
  assign_uniform_weights(graph, 78);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = model;
  options.seed = 4242;
  options.num_ranks = ranks;
  options.num_threads = threads;
  options.selection_exchange = exchange;

  options.sampler = SamplerEngine::Fused;
  ImmResult fused = imm_distributed(graph, options);
  options.sampler = SamplerEngine::Sequential;
  ImmResult scalar = imm_distributed(graph, options);
  EXPECT_EQ(fused.seeds, scalar.seeds);
  EXPECT_EQ(fused.theta, scalar.theta);
  EXPECT_EQ(fused.coverage_fraction, scalar.coverage_fraction);

  ImmResult reference = imm_sequential(graph, options);
  EXPECT_EQ(fused.seeds, reference.seeds);
  EXPECT_EQ(fused.theta, reference.theta);
}

INSTANTIATE_TEST_SUITE_P(
    RanksExchange, FusedRankSweep,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(SelectionExchange::Dense,
                                         SelectionExchange::Sparse)));

// Stealing axis (DESIGN.md §13): for every threads per rank in {1,2} x
// ranks in {1,2,4,8} x exchange protocol x engine, the distributed driver
// with work-stealing on (and the skewed fig7 partition manufactured, so
// inter steals actually move chunks) must agree bit-exactly with the same
// configuration with stealing off — stealing is a pure placement knob —
// and with the sequential reference.  With two threads a rank's stolen
// chunks are drawn under its samplers' dynamic schedule.
class StealSweep
    : public ::testing::TestWithParam<
          std::tuple<unsigned, int, SelectionExchange, SamplerEngine>> {};

TEST_P(StealSweep, StealingOnMatchesStealingOff) {
  auto [threads, ranks, exchange, engine] = GetParam();

  CsrGraph graph(barabasi_albert(400, 3, 77));
  assign_uniform_weights(graph, 78);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 4242;
  options.num_ranks = ranks;
  options.num_threads = threads;
  options.selection_exchange = exchange;
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

  ImmResult reference = imm_sequential(graph, options);
  EXPECT_EQ(on.seeds, reference.seeds);
  EXPECT_EQ(on.theta, reference.theta);
}

INSTANTIATE_TEST_SUITE_P(
    RanksExchangeEngine, StealSweep,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(SelectionExchange::Dense,
                                         SelectionExchange::Sparse),
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

  CsrGraph graph(barabasi_albert(400, 3, 77));
  assign_uniform_weights(graph, 78);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);

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

// Deterministic word-count regression: at p >= 4 and k >= 8 the sparse
// protocol must move strictly fewer selection-exchange words than the dense
// allreduce on the same workload.  Counted from the metrics registry, which
// both protocols feed (dense logs n words per rank per round).
TEST(SelectionExchangeWords, DenseMovesStrictlyMoreWordsThanSparse) {
  CsrGraph graph(barabasi_albert(400, 3, 77));
  assign_uniform_weights(graph, 78);

  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 8;
  options.model = DiffusionModel::IndependentCascade;
  options.seed = 4242;
  options.num_ranks = 4;
  // Pin the dense arm: the default is env-derived and the check.sh sparse
  // leg runs this binary with RIPPLES_SELECTION_EXCHANGE=sparse.
  options.selection_exchange = SelectionExchange::Dense;

  metrics::Counter &words =
      metrics::Registry::instance().counter("imm.select.exchange_words");
  metrics::set_enabled(true);
  const std::uint64_t base = words.value();
  (void)imm_distributed(graph, options);
  const std::uint64_t dense_words = words.value() - base;

  options.selection_exchange = SelectionExchange::Sparse;
  (void)imm_distributed(graph, options);
  const std::uint64_t sparse_words = words.value() - base - dense_words;
  metrics::set_enabled(false);

  ASSERT_GT(dense_words, 0u);
  ASSERT_GT(sparse_words, 0u);
  EXPECT_GT(dense_words, sparse_words);
}

} // namespace
} // namespace ripples
