// Tests for GenerateRR: representation invariants (sorted, unique, contains
// the root), model-specific structure, and distributional agreement with
// closed-form reverse-reachability probabilities; and for the stored record
// kinds: where a set becomes a bitmap, what it costs, and the fused engine's
// transposed bitmap emission against the scalar engine's conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/rrr.hpp"
#include "imm/rrr_collection.hpp"
#include "imm/sampler.hpp"
#include "imm/sampler_fused.hpp"
#include "rng/xoshiro.hpp"

namespace ripples {
namespace {

struct RRRCase {
  const char *name;
  DiffusionModel model;
};

class RRRInvariants
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, std::uint64_t>> {
};

TEST_P(RRRInvariants, SortedUniqueAndContainsRoot) {
  auto [model, seed] = GetParam();
  CsrGraph graph(barabasi_albert(500, 3, seed));
  assign_uniform_weights(graph, seed + 1);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);

  RRRGenerator generator(graph);
  RRRSet set;
  Xoshiro256 rng(seed + 2);
  for (int i = 0; i < 200; ++i) {
    auto root = static_cast<vertex_t>(uniform_index(rng, graph.num_vertices()));
    generator.generate(root, model, rng, set);
    ASSERT_FALSE(set.empty());
    EXPECT_TRUE(std::binary_search(set.begin(), set.end(), root));
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end())
        << "duplicate vertex in RRR set";
    for (vertex_t v : set) EXPECT_LT(v, graph.num_vertices());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSeeds, RRRInvariants,
    ::testing::Combine(::testing::Values(DiffusionModel::IndependentCascade,
                                         DiffusionModel::LinearThreshold),
                       ::testing::Values(1, 2, 3)));

TEST(RRRGenerator, ScratchIsCleanAcrossCalls) {
  // Repeated generation must not leak visited state between calls: a p=1
  // graph visited fully, then a p=0 graph must yield a singleton.
  CsrGraph graph(complete_graph(20));
  RRRGenerator generator(graph);
  RRRSet set;

  assign_constant_weights(graph, 1.0f);
  Philox4x32 rng_a(1, 1);
  generator.generate(0, DiffusionModel::IndependentCascade, rng_a, set);
  EXPECT_EQ(set.size(), 20u);

  assign_constant_weights(graph, 0.0f);
  Philox4x32 rng_b(1, 2);
  generator.generate(0, DiffusionModel::IndependentCascade, rng_b, set);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0], 0u);
}

TEST(RRRGenerator, IcFullProbabilityGivesReverseReachableSet) {
  // Path 0 -> 1 -> 2 -> 3: with p = 1 the RRR set of root v is {0..v}.
  CsrGraph graph(path_graph(4));
  assign_constant_weights(graph, 1.0f);
  RRRGenerator generator(graph);
  RRRSet set;
  for (vertex_t root = 0; root < 4; ++root) {
    Philox4x32 rng(7, root);
    generator.generate(root, DiffusionModel::IndependentCascade, rng, set);
    ASSERT_EQ(set.size(), root + 1u);
    for (vertex_t v = 0; v <= root; ++v) EXPECT_EQ(set[v], v);
  }
}

TEST(RRRGenerator, IcZeroProbabilityGivesSingleton) {
  CsrGraph graph(erdos_renyi(100, 1000, 4));
  assign_constant_weights(graph, 0.0f);
  RRRGenerator generator(graph);
  RRRSet set;
  for (vertex_t root = 0; root < 100; root += 7) {
    Philox4x32 rng(9, root);
    generator.generate(root, DiffusionModel::IndependentCascade, rng, set);
    EXPECT_EQ(set, RRRSet{root});
  }
}

TEST(RRRGenerator, LtWalkIsAPath) {
  // Under LT the reverse traversal picks at most one in-edge per vertex, so
  // |RRR| - 1 edges form a simple path: every prefix vertex has exactly one
  // selected predecessor.  We can't observe the path structure directly from
  // the sorted output, but we can bound the set size by the walk length on a
  // graph with bounded reverse paths.
  CsrGraph graph(path_graph(50)); // reverse walk can only go toward 0
  assign_constant_weights(graph, 1.0f);
  RRRGenerator generator(graph);
  RRRSet set;
  Philox4x32 rng(11, 0);
  generator.generate(30, DiffusionModel::LinearThreshold, rng, set);
  // Weight 1 on the unique in-edge: the walk always continues to vertex 0.
  ASSERT_EQ(set.size(), 31u);
  for (vertex_t v = 0; v <= 30; ++v) EXPECT_EQ(set[v], v);
}

TEST(RRRGenerator, LtResidualMassStopsWalk) {
  CsrGraph graph(path_graph(50));
  assign_constant_weights(graph, 0.0f);
  RRRGenerator generator(graph);
  RRRSet set;
  Philox4x32 rng(13, 0);
  generator.generate(30, DiffusionModel::LinearThreshold, rng, set);
  EXPECT_EQ(set, RRRSet{30});
}

TEST(RRRGenerator, LtHandlesCycles) {
  // 0 -> 1 -> 2 -> 0 with weight 1: the walk must terminate when it returns
  // to a visited vertex instead of looping forever.
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 0, 1.0f}};
  CsrGraph graph(list);
  RRRGenerator generator(graph);
  RRRSet set;
  Philox4x32 rng(15, 0);
  generator.generate(0, DiffusionModel::LinearThreshold, rng, set);
  EXPECT_EQ(set.size(), 3u);
}

TEST(RRRGenerator, IcEdgeProbabilityMatchesMembershipFrequency) {
  // 0 -> 1 with p = 0.35: P[0 in RRR(1)] = 0.35.  Frequency over many
  // samples must match within Monte-Carlo tolerance.
  EdgeList list;
  list.num_vertices = 2;
  list.edges = {{0, 1, 0.35f}};
  CsrGraph graph(list);
  RRRGenerator generator(graph);
  RRRSet set;
  int hits = 0;
  const int trials = 40000;
  Xoshiro256 rng(17);
  for (int i = 0; i < trials; ++i) {
    generator.generate(1, DiffusionModel::IndependentCascade, rng, set);
    hits += (set.size() == 2) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.35, 0.01);
}

TEST(RRRGenerator, LtPicksInNeighborsProportionallyToWeight) {
  // Vertex 2 has in-edges from 0 (b=0.2) and 1 (b=0.5); residual 0.3.
  EdgeList list;
  list.num_vertices = 3;
  list.edges = {{0, 2, 0.2f}, {1, 2, 0.5f}};
  CsrGraph graph(list);
  RRRGenerator generator(graph);
  RRRSet set;
  std::map<std::size_t, int> histogram; // key: which predecessor (0, 1, none)
  const int trials = 60000;
  Xoshiro256 rng(19);
  int picked0 = 0, picked1 = 0, none = 0;
  for (int i = 0; i < trials; ++i) {
    generator.generate(2, DiffusionModel::LinearThreshold, rng, set);
    if (set.size() == 1) {
      ++none;
    } else {
      ASSERT_EQ(set.size(), 2u);
      if (set[0] == 0)
        ++picked0;
      else
        ++picked1;
    }
  }
  EXPECT_NEAR(static_cast<double>(picked0) / trials, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(picked1) / trials, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(none) / trials, 0.3, 0.01);
  (void)histogram;
}

TEST(SampleStream, IsDeterministicPerIndex) {
  Philox4x32 a = sample_stream(42, 7);
  Philox4x32 b = sample_stream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
  Philox4x32 c = sample_stream(42, 8);
  EXPECT_NE(sample_stream(42, 7)(), c());
}

TEST(RRRGenerator, GenerateRandomRootCoversVertexSpace) {
  CsrGraph graph(erdos_renyi(64, 256, 21));
  assign_constant_weights(graph, 0.0f);
  RRRGenerator generator(graph);
  RRRSet set;
  std::vector<int> root_histogram(64, 0);
  Xoshiro256 rng(23);
  for (int i = 0; i < 6400; ++i) {
    generator.generate_random_root(DiffusionModel::IndependentCascade, rng, set);
    ASSERT_EQ(set.size(), 1u); // p = 0: the set is exactly the root
    ++root_histogram[set[0]];
  }
  for (int count : root_histogram) EXPECT_GT(count, 0);
}

TEST(RRRCollectionGrowth, AbsurdGrowthThrowsADiagnosticNotBadAlloc) {
  // theta-derived totals reach grow() before any parallel fill region; a
  // corrupted total must surface as a catchable length_error naming the
  // sizes, not as a size_t wrap (grow(SIZE_MAX) on a non-empty collection
  // wraps to a tiny resize) or an allocator abort on a worker thread.
  RRRCollection collection;
  collection.grow(3);
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW((void)collection.grow(huge), std::length_error);
  EXPECT_THROW((void)collection.grow(huge - 2), std::length_error);
  EXPECT_EQ(collection.size(), 3u) << "failed growth must not change state";
  try {
    (void)collection.grow(huge);
  } catch (const std::length_error &error) {
    EXPECT_NE(std::string(error.what()).find("RRRCollection"),
              std::string::npos)
        << error.what();
  }
}

// --- record kinds ---------------------------------------------------------

TEST(RRRRecordKinds, ASetBecomesABitmapExactlyAtWMembers) {
  // n = 100: W = ⌈100/32⌉ = 4 words, so 3 members stay a list and 4 are
  // stored as a bitmap of the same 16 bytes.
  constexpr vertex_t n = 100;
  RRRCollection collection(n);
  ASSERT_EQ(collection.bitmap_words(), 4u);
  const RRRSet below = {1, 50, 99};
  const RRRSet at = {0, 31, 32, 99};
  collection.add(RRRSet(below));
  collection.add(RRRSet(at));
  EXPECT_FALSE(collection.is_bitmap(collection.sets()[0]));
  EXPECT_EQ(collection.sets()[0], below);
  ASSERT_TRUE(collection.is_bitmap(collection.sets()[1]));
  // Vertex v is bit v % 32 of word v / 32.
  EXPECT_EQ(collection.sets()[1],
            (RRRSet{0x80000001u, 0x00000001u, 0x0u, 0x00000008u}));

  const RRRRecord bitmap = collection.record(1);
  EXPECT_TRUE(bitmap.is_bitmap());
  EXPECT_EQ(bitmap.size(), at.size());
  for (vertex_t v = 0; v < n; ++v)
    EXPECT_EQ(bitmap.contains(v),
              std::binary_search(at.begin(), at.end(), v))
        << "vertex " << v;
  RRRSet walked;
  bitmap.for_each_member([&walked](vertex_t v) { walked.push_back(v); });
  EXPECT_EQ(walked, at);
  // Counting over [31, 99) sees 31 and 32 only.
  std::vector<std::uint32_t> counters(n, 0);
  bitmap.adjust_counters<false>(counters.data(), 31, 99);
  for (vertex_t v = 0; v < n; ++v)
    EXPECT_EQ(counters[v], v == 31 || v == 32 ? 1u : 0u) << "vertex " << v;

  // A list-only collection never stores a bitmap.
  RRRCollection lists;
  lists.add(RRRSet(at));
  EXPECT_EQ(lists.bitmap_words(), 0u);
  EXPECT_EQ(lists.sets()[0], at);
  EXPECT_FALSE(lists.record(0).is_bitmap());
}

TEST(RRRRecordKinds, TailBitsPastNStayZero) {
  // n % 32 = 5: the last word holds vertices 96..100 in its low 5 bits.
  constexpr vertex_t n = 101;
  RRRCollection collection(n);
  RRRSet everything(n);
  for (vertex_t v = 0; v < n; ++v) everything[v] = v;
  collection.add(std::move(everything));
  ASSERT_TRUE(collection.is_bitmap(collection.sets()[0]));
  EXPECT_EQ(collection.sets()[0],
            (RRRSet{~0u, ~0u, ~0u, 0x1Fu}));
  EXPECT_EQ(collection.total_associations(), std::size_t{n});

  // Counting over the top interval of a team touches only [lo, n).
  std::vector<std::uint32_t> counters(n + 8, 0);
  collection.record(0).adjust_counters<false>(counters.data(), 37, n);
  for (vertex_t v = 0; v < n + 8; ++v)
    EXPECT_EQ(counters[v], v >= 37 && v < n ? 1u : 0u) << "vertex " << v;
}

TEST(RRRRecordKinds, FootprintIsHeadersPlusListCapacityPlusWWordsPerBitmap) {
  constexpr vertex_t n = 100; // W = 4
  RRRCollection collection(n);
  collection.add(RRRSet{5, 6}); // capacity 2
  RRRSet roomy;
  roomy.reserve(10);
  roomy.assign({7, 8, 9}); // added as is: capacity 10 stays
  collection.add(std::move(roomy));
  RRRSet dense;
  for (vertex_t v = 0; v < n; v += 2) dense.push_back(v); // 50 members
  collection.add(std::move(dense)); // a 4-word bitmap
  collection.add(RRRSet{1, 2, 3, 4}); // W members: a bitmap too

  std::size_t list_words = 0;
  std::size_t bitmaps = 0;
  for (const RRRSet &set : collection.sets()) {
    if (collection.is_bitmap(set))
      ++bitmaps;
    else
      list_words += set.capacity();
  }
  ASSERT_EQ(bitmaps, 2u);
  ASSERT_EQ(list_words, 2u + 10u);
  EXPECT_EQ(collection.footprint_bytes(),
            collection.sets().capacity() * sizeof(RRRSet) +
                (2 + 10) * sizeof(vertex_t) + 2 * 4 * sizeof(std::uint32_t));
  EXPECT_EQ(collection.total_associations(), 2u + 3u + 50u + 4u);
}

/// \p list as \p collection stores it.
RRRSet sealed(const RRRCollection &collection, RRRSet list) {
  collection.seal(list);
  return list;
}

/// Fused emission against the scalar engine's list -> bitmap conversion:
/// (model, n, sets).  Each n leaves n % 64 != 0, and 101 sets end on a
/// 37-lane batch.
class FusedBitmapEmission
    : public ::testing::TestWithParam<
          std::tuple<DiffusionModel, vertex_t, std::uint64_t>> {};

TEST_P(FusedBitmapEmission, EqualsTheScalarEngineConversion) {
  const auto [model, n, count] = GetParam();
  CsrGraph graph(barabasi_albert(n, 3, 41));
  assign_uniform_weights(graph, 42);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  constexpr std::uint64_t kSeed = 2019;

  RRRCollection lists;
  detail::sample_counter_range(graph, model, kSeed, 0, count, 1, lists);
  RRRCollection scalar(n);
  detail::sample_counter_range(graph, model, kSeed, 0, count, 2, scalar);
  RRRCollection fused(n);
  const FusedEdgeTable table(graph, model);
  detail::sample_counter_range_fused(table, kSeed, 0, count, 2, fused);

  ASSERT_EQ(fused.size(), count);
  EXPECT_EQ(fused.sets(), scalar.sets());
  const std::size_t words = scalar.bitmap_words();
  std::size_t bitmaps = 0;
  for (std::size_t j = 0; j < count; ++j) {
    const RRRSet &record = fused.sets()[j];
    EXPECT_EQ(record, sealed(scalar, lists.sets()[j])) << "set " << j;
    if (!fused.is_bitmap(record)) continue;
    ++bitmaps;
    EXPECT_EQ(record.capacity(), words) << "set " << j;
    if (n % 32 != 0) {
      EXPECT_EQ(record.back() >> (n % 32), 0u) << "tail bits of set " << j;
    }
  }
  // Both kinds occur, so batches mix bitmap and list lanes.
  EXPECT_GT(bitmaps, 0u);
  EXPECT_LT(bitmaps, count);

  // One partial batch straight through the sampler.
  FusedSampler sampler(table);
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < 37; ++i) indices.push_back(3 * i + 1);
  std::vector<RRRSet> outs(indices.size());
  sampler.generate(model, kSeed, indices, outs.data(), words);
  RRRGenerator generator(graph);
  for (std::size_t l = 0; l < indices.size(); ++l) {
    Philox4x32 rng = sample_stream(kSeed, indices[l]);
    RRRSet list;
    generator.generate_random_root(model, rng, list);
    EXPECT_EQ(outs[l], sealed(scalar, list)) << "lane " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSizes, FusedBitmapEmission,
    ::testing::Values(
        std::make_tuple(DiffusionModel::IndependentCascade, vertex_t{70},
                        std::uint64_t{101}),
        std::make_tuple(DiffusionModel::IndependentCascade, vertex_t{1000},
                        std::uint64_t{101}),
        std::make_tuple(DiffusionModel::LinearThreshold, vertex_t{70},
                        std::uint64_t{101}),
        std::make_tuple(DiffusionModel::LinearThreshold, vertex_t{200},
                        std::uint64_t{101})));

} // namespace
} // namespace ripples
