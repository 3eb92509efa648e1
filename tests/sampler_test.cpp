// Tests for the sampling engines: thread-count invariance (the central
// parallel-correctness property), incremental extension, equivalence of
// the compact and hypergraph storage paths, and the fused engine's shared
// edge table, including the LT prefix search.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "graph/registry.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"
#include "imm/sampler.hpp"
#include "imm/sampler_fused.hpp"

namespace ripples {
namespace {

CsrGraph test_graph(std::uint64_t seed) {
  CsrGraph graph(barabasi_albert(400, 3, seed));
  assign_uniform_weights(graph, seed + 1);
  return graph;
}

TEST(SampleSequential, ProducesRequestedCount) {
  CsrGraph graph = test_graph(1);
  RRRCollection collection;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 100, 7,
                    collection);
  EXPECT_EQ(collection.size(), 100u);
  for (const RRRSet &set : collection.sets()) {
    EXPECT_FALSE(set.empty());
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
  }
}

TEST(SampleSequential, ExtensionKeepsExistingSamples) {
  CsrGraph graph = test_graph(2);
  RRRCollection collection;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 50, 7,
                    collection);
  std::vector<RRRSet> snapshot = collection.sets();
  sample_sequential(graph, DiffusionModel::IndependentCascade, 120, 7,
                    collection);
  ASSERT_EQ(collection.size(), 120u);
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(collection.sets()[i], snapshot[i]) << "sample " << i;
}

TEST(SampleSequential, TargetBelowCurrentIsNoOp) {
  CsrGraph graph = test_graph(3);
  RRRCollection collection;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 60, 7,
                    collection);
  sample_sequential(graph, DiffusionModel::IndependentCascade, 30, 7,
                    collection);
  EXPECT_EQ(collection.size(), 60u);
}

class SamplerThreadInvariance
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, unsigned>> {};

TEST_P(SamplerThreadInvariance, MultithreadedMatchesSequentialBitExactly) {
  auto [model, threads] = GetParam();
  CsrGraph graph = test_graph(4);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);

  RRRCollection sequential, parallel;
  sample_sequential(graph, model, 200, 11, sequential);
  sample_multithreaded(graph, model, 200, 11, threads, parallel);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i)
    EXPECT_EQ(sequential.sets()[i], parallel.sets()[i]) << "sample " << i;
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndThreads, SamplerThreadInvariance,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(SampleMultithreaded, IncrementalExtensionMatchesOneShot) {
  CsrGraph graph = test_graph(5);
  RRRCollection one_shot, incremental;
  sample_multithreaded(graph, DiffusionModel::IndependentCascade, 150, 13, 4,
                       one_shot);
  sample_multithreaded(graph, DiffusionModel::IndependentCascade, 40, 13, 4,
                       incremental);
  sample_multithreaded(graph, DiffusionModel::IndependentCascade, 90, 13, 4,
                       incremental);
  sample_multithreaded(graph, DiffusionModel::IndependentCascade, 150, 13, 4,
                       incremental);
  ASSERT_EQ(one_shot.size(), incremental.size());
  for (std::size_t i = 0; i < one_shot.size(); ++i)
    EXPECT_EQ(one_shot.sets()[i], incremental.sets()[i]);
}

TEST(SampleHypergraph, StoresSameSamplesWithIncidence) {
  CsrGraph graph = test_graph(6);
  RRRCollection compact;
  HypergraphCollection dual(graph.num_vertices());
  sample_sequential(graph, DiffusionModel::IndependentCascade, 120, 17, compact);
  sample_hypergraph(graph, DiffusionModel::IndependentCascade, 120, 17, dual);
  ASSERT_EQ(dual.size(), compact.size());
  for (std::size_t i = 0; i < compact.size(); ++i)
    EXPECT_EQ(dual.sets()[i], compact.sets()[i]);

  // Incidence must be the exact inverse relation.
  for (vertex_t v = 0; v < graph.num_vertices(); ++v)
    for (std::uint32_t j : dual.samples_containing(v))
      EXPECT_TRUE(std::binary_search(dual.sets()[j].begin(),
                                     dual.sets()[j].end(), v));
  std::size_t incidence_total = 0;
  for (vertex_t v = 0; v < graph.num_vertices(); ++v)
    incidence_total += dual.samples_containing(v).size();
  std::size_t sample_total = 0;
  for (const RRRSet &set : dual.sets()) sample_total += set.size();
  EXPECT_EQ(incidence_total, sample_total);
}

TEST(RRRCollectionStorage, HypergraphStoresAssociationsTwice) {
  // The paper: "each association between a sample and a vertex is stored
  // twice" in the baseline.  total_associations must reflect exactly 2x.
  CsrGraph graph = test_graph(7);
  RRRCollection compact;
  HypergraphCollection dual(graph.num_vertices());
  sample_sequential(graph, DiffusionModel::IndependentCascade, 80, 19, compact);
  sample_hypergraph(graph, DiffusionModel::IndependentCascade, 80, 19, dual);
  EXPECT_EQ(dual.total_associations(), 2 * compact.total_associations());
  EXPECT_GT(dual.footprint_bytes(), compact.footprint_bytes());
}

TEST(RRRCollectionStorage, FootprintGrowsWithSamples) {
  CsrGraph graph = test_graph(8);
  RRRCollection collection;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 10, 23,
                    collection);
  std::size_t small = collection.footprint_bytes();
  sample_sequential(graph, DiffusionModel::IndependentCascade, 100, 23,
                    collection);
  EXPECT_GT(collection.footprint_bytes(), small);
  EXPECT_GT(collection.total_associations(), 0u);
}

// --- fused engine ----------------------------------------------------------
//
// The fused kernel's whole contract is byte-identity with the scalar
// engine: same (graph, model, seed, |R|) -> same collection, whatever the
// batch geometry.  The sweep crosses both models with graph shapes chosen
// to stress different kernel paths: hub-heavy preferential attachment
// (long frontier rows), sparse uniform random (many single-vertex sets),
// a ring lattice (uniform short rows), a bidirectional star (every lane
// collides on the hub immediately), a path (deep narrow walks), and a
// small complete graph (fewer vertices than lanes, dense emission path).
struct FusedShape {
  const char *name;
  EdgeList (*make)();
};

const FusedShape kFusedShapes[] = {
    {"barabasi_albert", [] { return barabasi_albert(400, 3, 21); }},
    {"erdos_renyi", [] { return erdos_renyi(300, 900, 22); }},
    {"watts_strogatz", [] { return watts_strogatz(256, 4, 0.1, 23); }},
    {"star", [] { return star_graph(100, true); }},
    {"path", [] { return path_graph(50); }},
    {"complete", [] { return complete_graph(40); }},
};

class FusedIdentity
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, int>> {};

TEST_P(FusedIdentity, FusedMatchesSequentialBitExactly) {
  auto [model, shape_index] = GetParam();
  const FusedShape &shape = kFusedShapes[shape_index];
  CsrGraph graph(shape.make());
  assign_uniform_weights(graph, 91);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);

  // 130 = two full 64-lane batches plus a 2-lane remainder batch.
  RRRCollection scalar, fused;
  sample_sequential(graph, model, 130, 37, scalar);
  sample_sequential_fused(graph, model, 130, 37, fused);
  ASSERT_EQ(scalar.size(), fused.size());
  for (std::size_t i = 0; i < scalar.size(); ++i)
    EXPECT_EQ(scalar.sets()[i], fused.sets()[i])
        << shape.name << " sample " << i;
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndShapes, FusedIdentity,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Range(0, 6)));

TEST(FusedSamplerEngine, SingleSampleBatchMatchesSequential) {
  CsrGraph graph = test_graph(12);
  RRRCollection scalar, fused;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 1, 41, scalar);
  sample_sequential_fused(graph, DiffusionModel::IndependentCascade, 1, 41,
                          fused);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(scalar.sets()[0], fused.sets()[0]);
}

TEST(FusedSamplerEngine, IncrementalExtensionMatchesOneShot) {
  // Extension re-batches from an unaligned start (40 -> 90 -> 200), so lane
  // assignments differ between the two runs; identity must hold anyway.
  CsrGraph graph = test_graph(13);
  RRRCollection one_shot, incremental;
  sample_sequential_fused(graph, DiffusionModel::IndependentCascade, 200, 43,
                          one_shot);
  sample_sequential_fused(graph, DiffusionModel::IndependentCascade, 40, 43,
                          incremental);
  sample_sequential_fused(graph, DiffusionModel::IndependentCascade, 90, 43,
                          incremental);
  sample_sequential_fused(graph, DiffusionModel::IndependentCascade, 200, 43,
                          incremental);
  ASSERT_EQ(one_shot.size(), incremental.size());
  for (std::size_t i = 0; i < one_shot.size(); ++i)
    EXPECT_EQ(one_shot.sets()[i], incremental.sets()[i]) << "sample " << i;
}

class FusedThreadInvariance
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, unsigned>> {};

TEST_P(FusedThreadInvariance, MultithreadedFusedMatchesSequentialBitExactly) {
  auto [model, threads] = GetParam();
  CsrGraph graph = test_graph(4);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);

  RRRCollection scalar, fused;
  sample_sequential(graph, model, 200, 11, scalar);
  sample_multithreaded_fused(graph, model, 200, 11, threads, fused);
  ASSERT_EQ(scalar.size(), fused.size());
  for (std::size_t i = 0; i < scalar.size(); ++i)
    EXPECT_EQ(scalar.sets()[i], fused.sets()[i]) << "sample " << i;
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndThreads, FusedThreadInvariance,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(FusedSamplerEngine, CounterIndicesMatchScalarOnScatteredIndices) {
  // The healing path regenerates arbitrary index subsets; the fused batch
  // must reproduce each stream regardless of which lanes its neighbors
  // occupy.  Indices are deliberately non-contiguous and unsorted-adjacent.
  CsrGraph graph = test_graph(14);
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < 150; i += 3) indices.push_back(i ^ 1);
  RRRCollection scalar, fused;
  sample_counter_indices(graph, DiffusionModel::IndependentCascade, 47,
                         indices, 2, scalar);
  const FusedEdgeTable table(graph, DiffusionModel::IndependentCascade);
  sample_counter_indices_fused(table, 47, indices, 2, fused);
  ASSERT_EQ(scalar.size(), fused.size());
  for (std::size_t i = 0; i < scalar.size(); ++i)
    EXPECT_EQ(scalar.sets()[i], fused.sets()[i]) << "index " << indices[i];
}

/// Shape of the index list a rank hands the counter samplers.
enum class IndexShape { Scattered, TwoFullBlocks, Single };

std::vector<std::uint64_t> index_list(IndexShape shape) {
  std::vector<std::uint64_t> indices;
  switch (shape) {
  case IndexShape::Scattered:
    // 149 non-contiguous, out-of-order indices: a short final block for
    // both the 16-index and the 64-lane schedules.
    for (std::uint64_t i = 0; i < 447; i += 3) indices.push_back(i ^ 5);
    break;
  case IndexShape::TwoFullBlocks:
    // 128 contiguous indices: exactly two 64-lane blocks, eight 16-index
    // chunks, no short tail.
    for (std::uint64_t i = 0; i < 128; ++i) indices.push_back(1000 + i);
    break;
  case IndexShape::Single:
    // One index: every thread but one finds the schedule already empty.
    indices.push_back(77);
    break;
  }
  return indices;
}

/// (fused engine, model, threads, index shape)
using CounterIndicesCell =
    std::tuple<bool, DiffusionModel, unsigned, IndexShape>;

class CounterIndicesThreadInvariance
    : public ::testing::TestWithParam<CounterIndicesCell> {};

TEST_P(CounterIndicesThreadInvariance, MatchesOneThreadScalar) {
  // The distributed driver hands each rank's index list straight to these
  // samplers, whose dynamic schedule is the only balancer of a rank's
  // threads: whichever thread draws a position, its set lands in that
  // position's slot.
  const auto [fused, model, threads, shape] = GetParam();
  CsrGraph graph(barabasi_albert(300, 3, 31));
  assign_uniform_weights(graph, 32);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  const std::vector<std::uint64_t> indices = index_list(shape);

  RRRCollection expected, sampled;
  sample_counter_indices(graph, model, 71, indices, 1, expected);
  if (fused) {
    const FusedEdgeTable table(graph, model);
    EXPECT_EQ(
        sample_counter_indices_fused(table, 71, indices, threads, sampled),
        indices.size());
  } else {
    EXPECT_EQ(
        sample_counter_indices(graph, model, 71, indices, threads, sampled),
        indices.size());
  }
  ASSERT_EQ(sampled.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(sampled.sets()[i], expected.sets()[i]) << "index " << indices[i];
}

INSTANTIATE_TEST_SUITE_P(
    EnginesModelsThreadsShapes, CounterIndicesThreadInvariance,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(1u, 3u, 4u),
                       ::testing::Values(IndexShape::Scattered,
                                         IndexShape::TwoFullBlocks,
                                         IndexShape::Single)));

// --- shared edge table ------------------------------------------------------
//
// The edge table is per-graph state built once per solve and read by every
// worker: the IC thresholds and packed edges, or the LT row prefixes.

TEST(FusedEdgeTable, LtTableHoldsItsPrefixAndIcTableHoldsItsFormula) {
  CsrGraph graph = test_graph(16);
  renormalize_linear_threshold(graph);
  const FusedEdgeTable lt(graph, DiffusionModel::LinearThreshold);
  EXPECT_EQ(lt.bytes(),
            FusedEdgeTable::bytes(graph, DiffusionModel::LinearThreshold));
  EXPECT_EQ(lt.bytes(), 8u * (graph.num_edges() + graph.num_vertices()));
  for (vertex_t v = 0; v < graph.num_vertices(); ++v) {
    const std::size_t end = graph.in_offsets()[v + 1];
    EXPECT_EQ(lt.lt_totals()[v],
              end == graph.in_offsets()[v] ? 0.0 : lt.lt_prefix()[end - 1])
        << "vertex " << v;
  }
  const FusedEdgeTable ic(graph, DiffusionModel::IndependentCascade);
  EXPECT_EQ(ic.bytes(),
            FusedEdgeTable::bytes(graph, DiffusionModel::IndependentCascade));
  EXPECT_EQ(ic.bytes(), 16u * graph.num_edges());
}

TEST(FusedEdgeTable, RejectsWeightOutsideUnitInterval) {
  // A weight above 1 overflows the packed IC threshold, and a negative or
  // NaN weight breaks the LT prefix's order; both models refuse them and
  // name the edge.  The interval's ends are accepted.
  for (const DiffusionModel model : {DiffusionModel::IndependentCascade,
                                     DiffusionModel::LinearThreshold}) {
    for (const float bad : {2.0f, -0.5f, std::nextafter(1.0f, 2.0f),
                            -std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      EdgeList list{3, {{0, 1, 0.5f}, {2, 1, bad}}};
      const CsrGraph graph(list);
      try {
        const FusedEdgeTable table(graph, model);
        ADD_FAILURE() << "weight " << bad << " was accepted";
      } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("2 -> 1"), std::string::npos) << what;
        EXPECT_NE(what.find("[0, 1]"), std::string::npos) << what;
      }
    }
    EdgeList ends{3, {{0, 1, 0.0f}, {2, 1, 1.0f}}};
    const CsrGraph graph(ends);
    EXPECT_NO_THROW(FusedEdgeTable(graph, model));
  }
}

/// LT input shaped to exercise every branch of the prefix search: a hub
/// whose 2,400 in-edges include zero weights and sum below 1, which most
/// other vertices step into; a hub whose 8,000 in-edge weights rise and
/// then fall geometrically, so the search's guess from the row total
/// misses by a thousand entries and more, on both sides, and the gallop
/// walks far both ways; a vertex whose in-edges all weigh 0;
/// a row summing to exactly 1; a row renormalized from a sum above 1; and
/// scattered rows with zero weights and residual mass.
CsrGraph lt_prefix_graph() {
  constexpr vertex_t kHub = 0, kDead = 1, kExact = 2, kRenormalized = 3,
                     kGeometric = 4;
  constexpr vertex_t kN = 9000;
  constexpr vertex_t kHubDegree = 2400;
  constexpr vertex_t kGeometricDegree = 8000;
  EdgeList list{kN, {}};
  for (vertex_t u = 1; u <= kHubDegree; ++u)
    list.edges.push_back({u, kHub, u % 5 == 0 ? 0.0f : 1.0f / 2400});
  for (vertex_t j = 0; j < kGeometricDegree; ++j) {
    const int from_peak = static_cast<int>(j) - kGeometricDegree / 2;
    list.edges.push_back(
        {5 + j, kGeometric,
         static_cast<float>(0.0004 * std::pow(0.999, std::abs(from_peak)))});
  }
  for (vertex_t u = 5; u < 13; ++u) list.edges.push_back({u, kDead, 0.0f});
  for (vertex_t u = 5; u < 9; ++u) list.edges.push_back({u, kExact, 0.25f});
  for (vertex_t u = 5; u < 12; ++u)
    list.edges.push_back({u, kRenormalized, 0.3f});
  std::uint64_t state = 88172645463325252ull; // xorshift64
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (vertex_t v = 5; v < kN; ++v) {
    // Two out of three rows lead to the hub and every row to the geometric
    // hub, so walks reach both often.
    list.edges.push_back({kHub, v, v % 3 == 0 ? 0.0f : 0.5f});
    list.edges.push_back({kGeometric, v, v % 3 == 0 ? 0.4f : 0.1f});
    list.edges.push_back({kDead, v, 0.05f});
    list.edges.push_back({kExact, v, 0.05f});
    list.edges.push_back({kRenormalized, v, 0.05f});
    for (int j = 0; j < 4; ++j) {
      const auto u = static_cast<vertex_t>(next() % kN);
      list.edges.push_back({u, v, j == 0 ? 0.0f : 0.07f});
    }
  }
  CsrGraph graph(list);
  renormalize_linear_threshold(graph);
  return graph;
}

TEST(FusedLtPrefixSearch, EveryFusedEntryPointMatchesTheScalarScan) {
  const CsrGraph graph = lt_prefix_graph();
  auto row_sum = [&graph](vertex_t v) {
    double sum = 0.0;
    for (const Adjacency &in : graph.in_neighbors(v)) sum += in.weight;
    return sum;
  };
  ASSERT_GE(graph.in_degree(0), 2000u);
  ASSERT_LT(row_sum(0), 1.0);
  ASSERT_EQ(row_sum(1), 0.0);
  ASSERT_EQ(row_sum(2), 1.0);
  ASSERT_NEAR(row_sum(3), 1.0, 1e-6);
  ASSERT_GE(graph.in_degree(4), 8000u);
  ASSERT_LT(row_sum(4), 1.0);
  ASSERT_LT(row_sum(5), 1.0);

  const auto lt = DiffusionModel::LinearThreshold;
  constexpr std::uint64_t kSets = 20000;
  constexpr std::uint64_t kSeed = 61;
  RRRCollection scalar;
  sample_sequential(graph, lt, kSets, kSeed, scalar);
  // Many walks must step into each hub, or its long row is never searched.
  for (const vertex_t hub : {vertex_t{0}, vertex_t{4}}) {
    std::uint64_t through_hub = 0;
    for (const RRRSet &set : scalar.sets())
      through_hub += set.size() > 1 &&
                     std::binary_search(set.begin(), set.end(), hub);
    EXPECT_GT(through_hub, kSets / 4) << "hub " << hub;
  }

  RRRCollection sequential;
  sample_sequential_fused(graph, lt, kSets, kSeed, sequential);
  ASSERT_EQ(sequential.size(), kSets);
  RRRCollection threaded;
  sample_multithreaded_fused(graph, lt, kSets, kSeed, 4, threaded);
  ASSERT_EQ(threaded.size(), kSets);
  for (std::uint64_t i = 0; i < kSets; ++i) {
    ASSERT_EQ(sequential.sets()[i], scalar.sets()[i]) << "sample " << i;
    ASSERT_EQ(threaded.sets()[i], scalar.sets()[i]) << "sample " << i;
  }

  // Scattered indices, descending, as a heal or a steal chunk asks for.
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < kSets; i += 3) indices.push_back(kSets - 1 - i);
  const FusedEdgeTable table(graph, lt);
  RRRCollection scattered;
  sample_counter_indices_fused(table, kSeed, indices, 4, scattered);
  ASSERT_EQ(scattered.size(), indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j)
    ASSERT_EQ(scattered.sets()[j], scalar.sets()[indices[j]])
        << "index " << indices[j];
}

// --- the LT walk step's row search -----------------------------------------
//
// detail::lt_row_guess and detail::lt_row_search pick an LT walk step's
// in-edge; together they must answer exactly what std::upper_bound answers
// over the row's prefix, and the search must do so from any guess.

/// The running double sums of \p weights, as FusedEdgeTable accumulates an
/// LT row.
std::vector<double> prefix_of(const std::vector<float> &weights) {
  std::vector<double> prefix;
  double cumulative = 0.0;
  for (const float weight : weights) prefix.push_back(cumulative += weight);
  return prefix;
}

/// Checks the guided search for \p x over \p row against std::upper_bound,
/// from lt_row_guess's guess and from guesses spread over the whole row;
/// returns how far that guess landed from the answer.
std::size_t expect_search_matches(const std::vector<double> &row, double x) {
  const std::size_t degree = row.size();
  const auto expected = static_cast<std::size_t>(
      std::upper_bound(row.begin(), row.end(), x) - row.begin());
  const std::size_t guess = detail::lt_row_guess(x, row.back(), degree);
  EXPECT_LE(guess, degree);
  EXPECT_EQ(guess == degree, expected == degree)
      << "x " << x << ": the guess is the residual mass exactly when the "
      << "answer is";
  EXPECT_EQ(detail::lt_row_search(row.data(), degree, x, guess), expected)
      << "x " << x << " guess " << guess;
  const std::size_t stride = std::max<std::size_t>(1, degree / 61);
  for (std::size_t g = 0; g < degree; g += stride)
    EXPECT_EQ(detail::lt_row_search(row.data(), degree, x, g), expected)
        << "x " << x << " from guess " << g;
  EXPECT_EQ(detail::lt_row_search(row.data(), degree, x, degree - 1), expected)
      << "x " << x << " from the last entry";
  return guess > expected ? guess - expected : expected - guess;
}

TEST(LtRowSearch, RunsOfEqualPrefixesFromZeroWeights) {
  const std::vector<double> row = prefix_of(
      {0.0f, 0.0f, 0.0f, 0.125f, 0.0f, 0.0f, 0.25f, 0.0f, 0.0f, 0.0f, 0.0f,
       0.125f, 0.0f, 0.0f});
  for (const double x : {0.0, 0.0625, 0.125, 0.25, 0.375, 0.4375, 0.5,
                         0.75, std::nextafter(0.125, 0.0),
                         std::nextafter(0.375, 1.0)})
    expect_search_matches(row, x);
  // Every entry of a run has the run's value: x equal to it skips the
  // whole run, and x just below it stops at the run's first entry.
  EXPECT_EQ(detail::lt_row_search(row.data(), row.size(), 0.125, 0), 6u);
  EXPECT_EQ(detail::lt_row_search(row.data(), row.size(), 0.0, 13), 3u);
}

TEST(LtRowSearch, DrawEqualToAPrefixValue) {
  const std::vector<double> quarters = prefix_of({0.25f, 0.25f, 0.25f, 0.25f});
  for (std::size_t j = 0; j < quarters.size(); ++j) {
    expect_search_matches(quarters, quarters[j]);
    EXPECT_EQ(detail::lt_row_search(quarters.data(), 4, quarters[j], 0), j + 1);
  }
  // Unequal weights whose running sums are inexact doubles: each prefix
  // value itself, and its neighbours on both sides.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> weight(0.0f, 1.0f / 300);
  std::vector<float> weights(300);
  for (float &w : weights) w = weight(rng);
  const std::vector<double> row = prefix_of(weights);
  for (const double value : row) {
    expect_search_matches(row, value);
    expect_search_matches(row, std::nextafter(value, 0.0));
    expect_search_matches(row, std::nextafter(value, 1.0));
  }
}

TEST(LtRowSearch, ResidualMassAndZeroTotal) {
  const std::vector<double> row = prefix_of({0.1f, 0.2f, 0.3f});
  const double total = row.back();
  for (const double x : {total, std::nextafter(total, 1.0), 0.75,
                         std::nextafter(1.0, 0.0)}) {
    EXPECT_EQ(detail::lt_row_guess(x, total, row.size()), row.size());
    expect_search_matches(row, x);
  }
  // A row whose weights are all 0: every draw is the residual mass.
  const std::vector<double> dead = prefix_of({0.0f, 0.0f, 0.0f, 0.0f});
  for (const double x : {0.0, 0x1.0p-53, 0.5, std::nextafter(1.0, 0.0)}) {
    EXPECT_EQ(detail::lt_row_guess(x, 0.0, dead.size()), dead.size());
    expect_search_matches(dead, x);
  }
}

TEST(LtRowSearch, RowsOfLengthOneAndTwoToTheSixteen) {
  for (const float w : {0.0f, 0.5f, 1.0f}) {
    const std::vector<double> single = prefix_of({w});
    for (const double x : {0.0, 0.25, 0.5, 0.75, std::nextafter(1.0, 0.0)})
      expect_search_matches(single, x);
  }
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> weight(0.0f, 1.8f / 65536);
  std::vector<float> weights(std::size_t{1} << 16);
  for (std::size_t j = 0; j < weights.size(); ++j)
    weights[j] = j % 7 == 0 ? 0.0f : weight(rng);
  const std::vector<double> row = prefix_of(weights);
  ASSERT_LT(row.back(), 1.0);
  std::uniform_real_distribution<double> draw(0.0, 1.0);
  for (int i = 0; i < 2000; ++i) expect_search_matches(row, draw(rng));
  for (std::size_t j = 0; j < row.size(); j += 997)
    expect_search_matches(row, row[j]);
}

TEST(LtRowSearch, GeometricWeightsMissTheGuessByThousands) {
  // Weights falling (and, reversed, rising) by a factor 0.999 per entry put
  // the mass far from where equal weights would, so the guess lands
  // thousands of entries off and the gallop covers the distance.
  std::vector<float> falling(std::size_t{1} << 16);
  float w = 0.0009f;
  for (float &weight : falling) {
    weight = w;
    w *= 0.999f;
  }
  std::vector<float> rising(falling.rbegin(), falling.rend());
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> draw(0.0, 1.0);
  for (const auto *weights : {&falling, &rising}) {
    const std::vector<double> row = prefix_of(*weights);
    std::size_t worst_miss = 0;
    for (int i = 0; i < 2000; ++i)
      worst_miss = std::max(worst_miss, expect_search_matches(row, draw(rng)));
    EXPECT_GT(worst_miss, 10000u);
  }
}

TEST(FusedEdgeTable, OneIcTableSharedByFourThreadsMatchesScalar) {
  // Four samplers over one table on four threads, each taking every fourth
  // 64-draw batch: the table is read concurrently and never written.
  CsrGraph graph = test_graph(17);
  constexpr std::uint64_t kSets = 600;
  constexpr unsigned kThreads = 4;
  RRRCollection scalar;
  sample_sequential(graph, DiffusionModel::IndependentCascade, kSets, 53,
                    scalar);

  const FusedEdgeTable table(graph, DiffusionModel::IndependentCascade);
  std::vector<RRRSet> fused(kSets);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t)
    workers.emplace_back([&table, &fused, t] {
      FusedSampler sampler(table);
      std::array<std::uint64_t, FusedSampler::kLanes> indices;
      for (std::uint64_t base = t * FusedSampler::kLanes; base < kSets;
           base += kThreads * FusedSampler::kLanes) {
        const auto lanes = static_cast<unsigned>(std::min<std::uint64_t>(
            FusedSampler::kLanes, kSets - base));
        for (unsigned l = 0; l < lanes; ++l) indices[l] = base + l;
        sampler.generate(DiffusionModel::IndependentCascade, 53,
                         std::span(indices.data(), lanes), &fused[base]);
      }
    });
  for (std::thread &worker : workers) worker.join();
  for (std::uint64_t i = 0; i < kSets; ++i)
    EXPECT_EQ(scalar.sets()[i], fused[i]) << "sample " << i;
}

using FusedEdgeTableDeathTest = ::testing::Test;

TEST(FusedEdgeTableDeathTest, SamplerRejectsAModelItsTableWasNotBuiltFor) {
  CsrGraph graph = test_graph(18);
  renormalize_linear_threshold(graph);
  const FusedEdgeTable lt(graph, DiffusionModel::LinearThreshold);
  EXPECT_DEATH(
      {
        FusedSampler sampler(lt);
        const std::uint64_t index = 0;
        RRRSet out;
        sampler.generate(DiffusionModel::IndependentCascade, 59,
                         std::span(&index, 1), &out);
      },
      "edge table");
}

// The fused LT walk searches each row from a guess made from the row's
// total, and R-MAT hub rows (the benchmark's graph shape, hundreds of
// in-edges a row) are where that guess misses furthest.  On the soc-Pokec
// surrogate with imm_cli's default weights, the fused collections must
// equal the scalar ones byte for byte: over a contiguous range on 4
// threads, and over each of 4 ranks' stream-strided index lists.
TEST(FusedSamplerEngine, LtMatchesScalarOnThePokecSurrogate) {
  const std::uint64_t seed = 2019;
  CsrGraph graph = materialize(find_dataset("soc-Pokec"), 0.005, seed);
  assign_uniform_weights(graph, seed + 1);
  renormalize_linear_threshold(graph);
  const std::uint64_t count = 8192;

  RRRCollection scalar, fused;
  sample_multithreaded(graph, DiffusionModel::LinearThreshold, count, seed, 4,
                       scalar);
  sample_multithreaded_fused(graph, DiffusionModel::LinearThreshold, count,
                             seed, 4, fused);
  ASSERT_EQ(fused.size(), count);
  EXPECT_TRUE(fused.sets() == scalar.sets());

  const FusedEdgeTable table(graph, DiffusionModel::LinearThreshold);
  for (std::uint64_t stream = 0; stream < 4; ++stream) {
    std::vector<std::uint64_t> indices;
    append_stream_indices(indices, 0, count, stream, 4);
    RRRCollection scalar_rank, fused_rank;
    sample_counter_indices(graph, DiffusionModel::LinearThreshold, seed,
                           indices, 4, scalar_rank);
    sample_counter_indices_fused(table, seed, indices, 4, fused_rank);
    ASSERT_EQ(fused_rank.size(), indices.size());
    EXPECT_TRUE(fused_rank.sets() == scalar_rank.sets()) << "stream " << stream;
    for (std::size_t j = 0; j < indices.size(); ++j)
      ASSERT_EQ(fused_rank.sets()[j], scalar.sets()[indices[j]])
          << "index " << indices[j];
  }
}

using SamplerEnvDeathTest = ::testing::Test;

TEST(SamplerEnvDeathTest, TypoedEngineIsRejected) {
  EXPECT_EXIT(
      {
        setenv("RIPPLES_SAMPLER", "fussed", 1);
        (void)sampler_engine_from_env();
      },
      ::testing::ExitedWithCode(2),
      "RIPPLES_SAMPLER: expected seq.fused, got 'fussed'");
}

// --- leap-frog index arithmetic --------------------------------------------

TEST(LeapfrogFirstIndex, FindsTheNextStreamMember) {
  EXPECT_EQ(leapfrog_first_index(0, 0, 4), 0u);
  EXPECT_EQ(leapfrog_first_index(0, 3, 4), 3u);
  EXPECT_EQ(leapfrog_first_index(7, 3, 5), 8u);
  EXPECT_EQ(leapfrog_first_index(8, 3, 5), 8u);
  EXPECT_EQ(leapfrog_first_index(9, 3, 5), 13u);
}

TEST(LeapfrogFirstIndex, SaturatesInsteadOfWrappingNearMax) {
  // from = 2^64 - 2 is congruent to 2 mod 4; stream 0's next index would be
  // 2^64, which must saturate to UINT64_MAX (an unreachable sample index),
  // not wrap to 0 and regenerate the whole range.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(leapfrog_first_index(max - 1, 0, 4), max);
  // A reachable index just below the edge still comes out exact:
  // 2^64 - 2 is congruent to 2 mod 4, so it is stream 2's own member.
  EXPECT_EQ(leapfrog_first_index(max - 1, 2, 4), max - 1);
}

TEST(AppendStreamIndices, AppendsTheStreamMembersOfTheRange) {
  std::vector<std::uint64_t> indices = {1};
  append_stream_indices(indices, 7, 19, 3, 5);
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{1, 8, 13, 18}));
  append_stream_indices(indices, 19, 23, 3, 5);
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{1, 8, 13, 18}));
}

TEST(AppendStreamIndices, TerminatesWhenStrideWrapsPastMax) {
  // num_streams = 2^63 puts exactly two indices of stream 5 in
  // [0, UINT64_MAX): 5 and 5 + 2^63.  The next candidate, 5 + 2^64, wraps
  // to 5 again — without the wrap guard this loop never terminates.
  const std::uint64_t huge_stride = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> indices;
  append_stream_indices(indices, 0, std::numeric_limits<std::uint64_t>::max(),
                        5, huge_stride);
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{5, 5 + huge_stride}));
}

TEST(SamplerDeterminism, DifferentSeedsGiveDifferentCollections) {
  CsrGraph graph = test_graph(9);
  RRRCollection a, b;
  sample_sequential(graph, DiffusionModel::IndependentCascade, 50, 1, a);
  sample_sequential(graph, DiffusionModel::IndependentCascade, 50, 2, b);
  EXPECT_NE(a.sets(), b.sets());
}

} // namespace
} // namespace ripples
