// Tests for the four IMM drivers: output contracts, cross-driver
// equivalence (the parallel implementations must return the sequential
// result under the shared counter-based RNG discipline), rank/thread
// invariance, and solution quality against the Monte-Carlo oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "diffusion/simulate.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/greedy.hpp"
#include "imm/imm.hpp"

namespace ripples {
namespace {

CsrGraph test_graph(DiffusionModel model, std::uint64_t seed = 1) {
  CsrGraph graph(barabasi_albert(600, 3, seed));
  assign_uniform_weights(graph, seed + 1);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

ImmOptions base_options(DiffusionModel model) {
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 10;
  options.model = model;
  options.seed = 2019;
  return options;
}

void check_contract(const ImmResult &result, const CsrGraph &graph,
                    const ImmOptions &options) {
  ASSERT_EQ(result.seeds.size(), options.k);
  std::set<vertex_t> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), options.k) << "seeds must be distinct";
  for (vertex_t s : result.seeds) EXPECT_LT(s, graph.num_vertices());
  EXPECT_GE(result.theta, 1u);
  EXPECT_GE(result.num_samples, result.theta);
  EXPECT_GE(result.lower_bound, 1.0);
  EXPECT_GT(result.coverage_fraction, 0.0);
  EXPECT_LE(result.coverage_fraction, 1.0);
  EXPECT_GT(result.rrr_peak_bytes, 0u);
  EXPECT_GT(result.total_associations, 0u);
  EXPECT_GT(result.timers.total(Phase::EstimateTheta), 0.0);
}

class ImmDrivers : public ::testing::TestWithParam<DiffusionModel> {};

TEST_P(ImmDrivers, SequentialSatisfiesContract) {
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  ImmResult result = imm_sequential(graph, options);
  check_contract(result, graph, options);
}

TEST_P(ImmDrivers, BaselineHypergraphMatchesSequentialSeeds) {
  // Same samples, same greedy: the storage layout must not change the
  // output.
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  ImmResult compact = imm_sequential(graph, options);
  ImmResult dual = imm_baseline_hypergraph(graph, options);
  EXPECT_EQ(compact.seeds, dual.seeds);
  EXPECT_EQ(compact.theta, dual.theta);
  EXPECT_EQ(compact.num_samples, dual.num_samples);
  check_contract(dual, graph, options);
}

TEST_P(ImmDrivers, BaselineUsesMoreMemory) {
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  ImmResult compact = imm_sequential(graph, options);
  ImmResult dual = imm_baseline_hypergraph(graph, options);
  // Table 2's storage claim: the dual-direction representation costs more.
  EXPECT_GT(dual.rrr_peak_bytes, compact.rrr_peak_bytes);
  EXPECT_EQ(dual.total_associations, 2 * compact.total_associations);
}

TEST_P(ImmDrivers, MultithreadedMatchesSequentialForAnyThreadCount) {
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  ImmResult reference = imm_sequential(graph, options);
  for (unsigned threads : {1u, 2u, 4u}) {
    options.num_threads = threads;
    ImmResult result = imm_multithreaded(graph, options);
    EXPECT_EQ(result.seeds, reference.seeds) << "threads=" << threads;
    EXPECT_EQ(result.theta, reference.theta);
    EXPECT_EQ(result.num_samples, reference.num_samples);
    EXPECT_DOUBLE_EQ(result.coverage_fraction, reference.coverage_fraction);
  }
}

TEST_P(ImmDrivers, DistributedMatchesSequentialForAnyRankCount) {
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  ImmResult reference = imm_sequential(graph, options);
  for (int ranks : {1, 2, 3, 4, 8}) {
    options.num_ranks = ranks;
    ImmResult result = imm_distributed(graph, options);
    EXPECT_EQ(result.seeds, reference.seeds) << "ranks=" << ranks;
    EXPECT_EQ(result.theta, reference.theta);
    EXPECT_EQ(result.num_samples, reference.num_samples);
  }
}

TEST_P(ImmDrivers, HybridRanksTimesThreadsMatchesSequential) {
  CsrGraph graph = test_graph(GetParam());
  ImmOptions options = base_options(GetParam());
  ImmResult reference = imm_sequential(graph, options);
  options.num_ranks = 2;
  options.num_threads = 2;
  ImmResult result = imm_distributed(graph, options);
  EXPECT_EQ(result.seeds, reference.seeds);
}

INSTANTIATE_TEST_SUITE_P(Models, ImmDrivers,
                         ::testing::Values(DiffusionModel::IndependentCascade,
                                           DiffusionModel::LinearThreshold));

TEST(ImmQuality, BeatsRandomSeedsSubstantially) {
  CsrGraph graph = test_graph(DiffusionModel::IndependentCascade);
  ImmOptions options = base_options(DiffusionModel::IndependentCascade);
  ImmResult result = imm_sequential(graph, options);

  std::vector<vertex_t> random_seeds;
  for (vertex_t v = 100; random_seeds.size() < options.k; v += 37)
    random_seeds.push_back(v % graph.num_vertices());

  double sigma_imm = estimate_influence(graph, result.seeds, options.model,
                                        2000, 7)
                         .mean;
  double sigma_random = estimate_influence(graph, random_seeds, options.model,
                                           2000, 7)
                            .mean;
  EXPECT_GT(sigma_imm, sigma_random);
}

TEST(ImmQuality, ComparableToCelfOnSmallGraph) {
  // On a small graph, IMM's seed quality must be in the same league as the
  // simulation-based CELF greedy (both are (1-1/e-ish)-approximations).
  CsrGraph graph(barabasi_albert(120, 2, 5));
  assign_constant_weights(graph, 0.1f);

  ImmOptions imm_options;
  imm_options.epsilon = 0.3;
  imm_options.k = 5;
  imm_options.seed = 3;
  ImmResult imm = imm_sequential(graph, imm_options);

  GreedyOptions greedy_options;
  greedy_options.k = 5;
  greedy_options.trials = 300;
  greedy_options.seed = 3;
  std::vector<vertex_t> celf = celf_greedy(graph, greedy_options);

  double sigma_imm =
      estimate_influence(graph, imm.seeds, imm_options.model, 4000, 11).mean;
  double sigma_celf =
      estimate_influence(graph, celf, imm_options.model, 4000, 11).mean;
  EXPECT_GT(sigma_imm, 0.9 * sigma_celf);
}

TEST(ImmParameters, SmallerEpsilonGeneratesMoreSamples) {
  CsrGraph graph = test_graph(DiffusionModel::IndependentCascade);
  ImmOptions loose = base_options(DiffusionModel::IndependentCascade);
  loose.epsilon = 0.5;
  ImmOptions tight = base_options(DiffusionModel::IndependentCascade);
  tight.epsilon = 0.25;
  EXPECT_GT(imm_sequential(graph, tight).theta,
            imm_sequential(graph, loose).theta);
}

TEST(ImmParameters, LargerKGeneratesMoreSamples) {
  CsrGraph graph = test_graph(DiffusionModel::IndependentCascade);
  ImmOptions small_k = base_options(DiffusionModel::IndependentCascade);
  small_k.k = 5;
  ImmOptions large_k = base_options(DiffusionModel::IndependentCascade);
  large_k.k = 40;
  EXPECT_GT(imm_sequential(graph, large_k).theta,
            imm_sequential(graph, small_k).theta);
}

TEST(ImmParameters, LtProducesSmallerSamplesThanIc) {
  // Section 4.2: "The LT model tends to produce very small RRR sets (when
  // compared to the IC model)".
  CsrGraph ic_graph = test_graph(DiffusionModel::IndependentCascade);
  CsrGraph lt_graph = test_graph(DiffusionModel::LinearThreshold);
  ImmOptions ic_options = base_options(DiffusionModel::IndependentCascade);
  ImmOptions lt_options = base_options(DiffusionModel::LinearThreshold);
  ImmResult ic = imm_sequential(ic_graph, ic_options);
  ImmResult lt = imm_sequential(lt_graph, lt_options);
  double ic_avg = static_cast<double>(ic.total_associations) /
                  static_cast<double>(ic.num_samples);
  double lt_avg = static_cast<double>(lt.total_associations) /
                  static_cast<double>(lt.num_samples);
  EXPECT_LT(lt_avg, ic_avg);
}

TEST(ImmDeterminism, SameSeedSameResult) {
  CsrGraph graph = test_graph(DiffusionModel::IndependentCascade);
  ImmOptions options = base_options(DiffusionModel::IndependentCascade);
  ImmResult a = imm_sequential(graph, options);
  ImmResult b = imm_sequential(graph, options);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.theta, b.theta);
}

TEST(ImmDeterminism, DifferentSeedsUsuallyDiffer) {
  CsrGraph graph = test_graph(DiffusionModel::IndependentCascade);
  ImmOptions a_options = base_options(DiffusionModel::IndependentCascade);
  ImmOptions b_options = a_options;
  b_options.seed = 99999;
  ImmResult a = imm_sequential(graph, a_options);
  ImmResult b = imm_sequential(graph, b_options);
  // Not guaranteed to differ, but with k=10 over 600 vertices a collision of
  // the full ordered seed vector would be extraordinary.
  EXPECT_NE(a.seeds, b.seeds);
}

// --- no environment defaults --------------------------------------------------

TEST(ImmOptionsEnv, RetiredVariablesReachNeitherDefaultsNorRuns) {
  // ImmOptions is plain data apart from `sampler`: these variables once set
  // its defaults and now mean nothing.  Each is set off its default here.
  const std::string checkpoint_dir =
      ::testing::TempDir() + "ripples_imm_options_env_ckpt";
  std::filesystem::remove_all(checkpoint_dir);
  const std::pair<const char *, std::string> retired[] = {
      {"RIPPLES_STEAL", "on"},
      {"RIPPLES_STEAL_CHUNK", "17"},
      {"RIPPLES_STEAL_SKEW", "1"},
      {"RIPPLES_MEM_BUDGET", "-1"},
      {"RIPPLES_RRR_COMPRESS", "always"},
      {"RIPPLES_SCRUB_RRR", "paranoid"},
      {"RIPPLES_VERIFY_COLLECTIVES", "1"},
      {"RIPPLES_CHECKPOINT_DIR", checkpoint_dir},
      {"RIPPLES_CHECKPOINT_EVERY", "4"},
      {"RIPPLES_CHECKPOINT_KEEP", "7"},
      {"RIPPLES_CHECKPOINT_RESUME", "1"},
  };
  for (const auto &[name, value] : retired) setenv(name, value.c_str(), 1);
  const ImmOptions defaults;
  CsrGraph graph = test_graph(DiffusionModel::IndependentCascade);
  ImmOptions options = base_options(DiffusionModel::IndependentCascade);
  options.num_ranks = 2;
  const ImmResult result = imm_distributed(graph, options);
  for (const auto &[name, value] : retired) unsetenv(name);

  EXPECT_EQ(defaults.mem_budget, 0u);
  EXPECT_EQ(defaults.rrr_compress, CompressMode::Auto);
  EXPECT_EQ(defaults.steal, StealMode::Off);
  EXPECT_EQ(defaults.steal_chunk, 64u);
  EXPECT_FALSE(defaults.steal_skew);
  EXPECT_FALSE(defaults.verify_collectives);
  EXPECT_EQ(defaults.scrub_rrr, ScrubMode::Off);
  EXPECT_TRUE(defaults.checkpoint.dir.empty());
  EXPECT_EQ(defaults.checkpoint.every, 1u);
  EXPECT_EQ(defaults.checkpoint.keep_last, 3u);
  EXPECT_FALSE(defaults.checkpoint.resume);

  const metrics::RunReport &report = result.report;
  EXPECT_EQ(report.mem_budget, 0u);
  EXPECT_EQ(report.rrr_compress, "auto");
  EXPECT_EQ(report.steal, "off");
  EXPECT_EQ(report.steal_chunk, 64u);
  EXPECT_FALSE(report.steal_skew);
  EXPECT_FALSE(report.verify_collectives);
  EXPECT_EQ(report.scrub_rrr, "off");
  EXPECT_FALSE(std::filesystem::exists(checkpoint_dir))
      << "the run wrote snapshots to RIPPLES_CHECKPOINT_DIR";
}

TEST(ImmEdgeCases, KEqualsOneWorks) {
  CsrGraph graph = test_graph(DiffusionModel::IndependentCascade);
  ImmOptions options = base_options(DiffusionModel::IndependentCascade);
  options.k = 1;
  ImmResult result = imm_sequential(graph, options);
  EXPECT_EQ(result.seeds.size(), 1u);
}

TEST(ImmEdgeCases, EdgelessGraphStillReturnsSeeds) {
  EdgeList list;
  list.num_vertices = 64;
  CsrGraph graph(list);
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 3;
  ImmResult result = imm_sequential(graph, options);
  EXPECT_EQ(result.seeds.size(), 3u);
}

} // namespace
} // namespace ripples
