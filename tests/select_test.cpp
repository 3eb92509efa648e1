// Tests for SelectSeeds: greedy max-coverage correctness against brute
// force, equivalence of every implementation with a brute-force greedy
// (Algorithm 4 at several thread counts over plain and compressed storage,
// which select_seeds runs on a team of one; CELF; the hypergraph
// baseline), the same over collections that mix list and bitmap records,
// and the counter/retirement building blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "imm/select.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace ripples {
namespace {

/// \p count sorted sets of min_size..max_size distinct members drawn
/// uniformly from [first, last).
std::vector<RRRSet> sized_samples(vertex_t first, vertex_t last,
                                  std::size_t count, std::size_t min_size,
                                  std::size_t max_size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<RRRSet> samples(count);
  for (RRRSet &sample : samples) {
    std::size_t size = min_size + uniform_index(rng, max_size - min_size + 1);
    while (sample.size() < size) {
      auto v = first + static_cast<vertex_t>(uniform_index(rng, last - first));
      if (std::find(sample.begin(), sample.end(), v) == sample.end())
        sample.push_back(v);
    }
    std::sort(sample.begin(), sample.end());
  }
  return samples;
}

std::vector<RRRSet> random_samples(vertex_t num_vertices, std::size_t count,
                                   std::size_t max_size, std::uint64_t seed) {
  return sized_samples(0, num_vertices, count, 1, max_size, seed);
}

/// Brute-force greedy max-coverage, the reference of the equivalence tests:
/// every round recounts the live samples from scratch, takes the largest
/// count among unselected vertices (smallest id on ties) and retires the
/// samples holding it.  O(k·|R|·|S|), and it shares no code with the
/// library's kernels.
SelectionResult greedy_oracle(vertex_t num_vertices, std::uint32_t k,
                              const std::vector<RRRSet> &samples) {
  SelectionResult result;
  result.total_samples = samples.size();
  std::vector<bool> retired(samples.size(), false);
  std::vector<bool> selected(num_vertices, false);
  std::vector<std::uint32_t> counts(num_vertices);
  for (std::uint32_t round = 0; round < k; ++round) {
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t j = 0; j < samples.size(); ++j)
      if (!retired[j])
        for (vertex_t v : samples[j]) ++counts[v];
    vertex_t seed = num_vertices;
    for (vertex_t v = 0; v < num_vertices; ++v)
      if (!selected[v] && (seed == num_vertices || counts[v] > counts[seed]))
        seed = v;
    selected[seed] = true;
    result.seeds.push_back(seed);
    for (std::size_t j = 0; j < samples.size(); ++j) {
      if (retired[j] || std::find(samples[j].begin(), samples[j].end(),
                                  seed) == samples[j].end())
        continue;
      retired[j] = true;
      ++result.covered_samples;
    }
  }
  return result;
}

/// Exhaustive max-coverage for tiny instances (the correctness oracle).
std::uint64_t best_coverage_brute_force(vertex_t num_vertices, std::uint32_t k,
                                        std::span<const RRRSet> samples) {
  std::vector<vertex_t> combo(k);
  std::uint64_t best = 0;
  // Enumerate all k-subsets of [0, n).
  std::vector<std::uint32_t> index(k);
  for (std::uint32_t i = 0; i < k; ++i) index[i] = i;
  for (;;) {
    std::uint64_t covered = 0;
    for (const RRRSet &sample : samples) {
      bool hit = false;
      for (std::uint32_t i : index)
        if (std::binary_search(sample.begin(), sample.end(), vertex_t{i})) {
          hit = true;
          break;
        }
      covered += hit ? 1 : 0;
    }
    best = std::max(best, covered);
    // Next combination.
    int pos = static_cast<int>(k) - 1;
    while (pos >= 0 &&
           index[static_cast<std::uint32_t>(pos)] ==
               num_vertices - k + static_cast<std::uint32_t>(pos))
      --pos;
    if (pos < 0) break;
    ++index[static_cast<std::uint32_t>(pos)];
    for (std::uint32_t i = static_cast<std::uint32_t>(pos) + 1; i < k; ++i)
      index[i] = index[i - 1] + 1;
  }
  (void)combo;
  return best;
}

TEST(SelectSeeds, PicksTheObviousCoveringVertex) {
  // Vertex 7 appears in every sample; it must be picked first.
  std::vector<RRRSet> samples = {{1, 7}, {2, 7}, {3, 7}, {7, 9}};
  SelectionResult result = select_seeds(10, 1, samples);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 7u);
  EXPECT_EQ(result.covered_samples, 4u);
  EXPECT_EQ(result.total_samples, 4u);
  EXPECT_DOUBLE_EQ(result.coverage_fraction(), 1.0);
}

TEST(SelectSeeds, RetiresCoveredSamplesBeforeSecondPick) {
  // 7 covers four samples and is picked first.  After retiring them, vertex
  // 1's counter drops to zero, so the best remaining vertex is 4 (covers the
  // two leftover samples) — picking by stale counters would choose 1.
  std::vector<RRRSet> samples = {{1, 7}, {1, 7}, {1, 7}, {7, 9}, {4, 5}, {4, 6}};
  SelectionResult result = select_seeds(10, 2, samples);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 7u);
  EXPECT_EQ(result.seeds[1], 4u);
  EXPECT_EQ(result.covered_samples, 6u);
}

TEST(SelectSeeds, TieBreaksToSmallestId) {
  std::vector<RRRSet> samples = {{2, 5}, {2, 5}};
  SelectionResult result = select_seeds(10, 1, samples);
  EXPECT_EQ(result.seeds[0], 2u);
}

TEST(SelectSeeds, HandlesMoreSeedsThanCoverage) {
  std::vector<RRRSet> samples = {{3}};
  SelectionResult result = select_seeds(5, 3, samples);
  ASSERT_EQ(result.seeds.size(), 3u);
  EXPECT_EQ(result.seeds[0], 3u);
  // Remaining picks fall back to smallest unselected ids with zero counters.
  EXPECT_EQ(result.seeds[1], 0u);
  EXPECT_EQ(result.seeds[2], 1u);
  EXPECT_EQ(result.covered_samples, 1u);
}

TEST(SelectSeeds, EmptySampleSetStillReturnsKSeeds) {
  std::vector<RRRSet> samples;
  SelectionResult result = select_seeds(6, 2, samples);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.covered_samples, 0u);
  EXPECT_DOUBLE_EQ(result.coverage_fraction(), 0.0);
}

TEST(SelectSeeds, GreedyIsWithinTheoreticalFactorOfOptimal) {
  // Greedy max-coverage guarantees (1 - 1/e) of optimal; verify on random
  // instances small enough for brute force.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<RRRSet> samples = random_samples(10, 40, 3, seed);
    SelectionResult greedy = select_seeds(10, 3, samples);
    std::uint64_t optimal = best_coverage_brute_force(10, 3, samples);
    EXPECT_GE(static_cast<double>(greedy.covered_samples),
              (1.0 - 1.0 / std::exp(1.0)) * static_cast<double>(optimal))
        << "seed " << seed;
    EXPECT_LE(greedy.covered_samples, optimal);
  }
}

// --- multithreaded (Algorithm 4) equivalence --------------------------------------

class SelectEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(SelectEquivalence, MultithreadedMatchesSequentialExactly) {
  auto [threads, seed] = GetParam();
  const vertex_t n = 200;
  std::vector<RRRSet> samples = random_samples(n, 500, 12, seed);
  SelectionResult sequential = greedy_oracle(n, 10, samples);
  SelectionResult parallel = select_seeds_multithreaded(n, 10, samples, threads);
  EXPECT_EQ(sequential.seeds, parallel.seeds);
  EXPECT_EQ(sequential.covered_samples, parallel.covered_samples);
  EXPECT_EQ(sequential.total_samples, parallel.total_samples);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSeeds, SelectEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 8u),
                       ::testing::Values(11, 22, 33)));

TEST(SelectSeedsMultithreaded, MoreThreadsThanVerticesIsSafe) {
  std::vector<RRRSet> samples = {{0, 2}, {1, 2}, {2, 3}};
  SelectionResult sequential = greedy_oracle(4, 2, samples);
  SelectionResult parallel = select_seeds_multithreaded(4, 2, samples, 8);
  EXPECT_EQ(sequential.seeds, parallel.seeds);
}

TEST(SelectSeedsMultithreaded, AllHitsInOneSampleBlock) {
  // Two hubs whose sets all sit in one thread's sample block: vertex 0 in
  // the last 60 of 700 sets, vertex n-1 in the first 50, so at 2, 3, 4 or 7
  // threads the first two rounds each find every hit in a single block and
  // that one hit list feeds the decrement of every interval owner.  The hub
  // sets reach into every interval.
  const vertex_t n = 300;
  std::vector<RRRSet> samples = random_samples(n - 2, 700, 4, 5);
  for (RRRSet &sample : samples)
    for (vertex_t &v : sample) ++v; // shift off vertex 0; n-1 stays unused
  for (std::size_t j = 0; j < samples.size(); ++j) {
    RRRSet &sample = samples[j];
    if (j >= samples.size() - 60) {
      sample.insert(sample.begin(), 0);
    } else if (j < 50) {
      sample.push_back(n - 1);
    } else {
      continue;
    }
    for (vertex_t v = 37 + static_cast<vertex_t>(j % 13); v < n - 1; v += 41)
      if (!std::binary_search(sample.begin(), sample.end(), v))
        sample.insert(std::lower_bound(sample.begin(), sample.end(), v), v);
  }
  const SelectionResult sequential = greedy_oracle(n, 10, samples);
  ASSERT_EQ(sequential.seeds[0], 0u);
  ASSERT_EQ(sequential.seeds[1], n - 1);
  for (unsigned threads : {2u, 3u, 4u, 7u}) {
    const SelectionResult parallel =
        select_seeds_multithreaded(n, 10, samples, threads);
    EXPECT_EQ(parallel.seeds, sequential.seeds) << threads << " threads";
    EXPECT_EQ(parallel.covered_samples, sequential.covered_samples)
        << threads << " threads";
  }
}

TEST(SelectSeedsMultithreaded, TinySetsRetireEverything) {
  // LT-shaped: thousands of sets of 1-3 members, and k = n, so every set
  // retires and every thread's live list runs empty well before the end.
  // n stays small: over hundreds of rounds TSan loses the worker stacks its
  // suppressions (scripts/tsan-suppressions.txt) need to match.
  const vertex_t n = 32;
  const std::vector<RRRSet> samples = random_samples(n, 2000, 3, 9);
  const SelectionResult sequential = greedy_oracle(n, n, samples);
  ASSERT_EQ(sequential.covered_samples, samples.size());
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    const SelectionResult parallel =
        select_seeds_multithreaded(n, n, samples, threads);
    EXPECT_EQ(parallel.covered_samples, parallel.total_samples)
        << threads << " threads";
    EXPECT_EQ(parallel.seeds, sequential.seeds) << threads << " threads";
  }
}

// --- lazy-greedy (CELF-style) equivalence ------------------------------------------

class LazyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazyEquivalence, LazySelectionMatchesEagerExactly) {
  const vertex_t n = 180;
  std::vector<RRRSet> samples = random_samples(n, 450, 10, GetParam());
  SelectionResult eager = select_seeds(n, 12, samples);
  SelectionResult lazy = select_seeds_lazy(n, 12, samples);
  EXPECT_EQ(eager.seeds, lazy.seeds);
  EXPECT_EQ(eager.covered_samples, lazy.covered_samples);
  EXPECT_EQ(eager.total_samples, lazy.total_samples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyEquivalence,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(SelectSeedsLazy, HandlesZeroCoverageTail) {
  std::vector<RRRSet> samples = {{3}};
  SelectionResult eager = select_seeds(6, 4, samples);
  SelectionResult lazy = select_seeds_lazy(6, 4, samples);
  EXPECT_EQ(eager.seeds, lazy.seeds);
}

TEST(SelectSeedsLazy, EmptySampleSet) {
  std::vector<RRRSet> samples;
  SelectionResult lazy = select_seeds_lazy(5, 2, samples);
  ASSERT_EQ(lazy.seeds.size(), 2u);
  EXPECT_EQ(lazy.seeds[0], 0u);
  EXPECT_EQ(lazy.seeds[1], 1u);
}

// --- hypergraph baseline equivalence ----------------------------------------------

class HypergraphEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HypergraphEquivalence, BaselineSelectionMatchesSequential) {
  const vertex_t n = 150;
  std::vector<RRRSet> samples = random_samples(n, 400, 10, GetParam());
  HypergraphCollection hypergraph(n);
  for (const RRRSet &sample : samples) {
    RRRSet copy = sample;
    hypergraph.add(std::move(copy));
  }
  SelectionResult compact = select_seeds(n, 8, samples);
  SelectionResult dual = select_seeds_hypergraph(n, 8, hypergraph);
  EXPECT_EQ(compact.seeds, dual.seeds);
  EXPECT_EQ(compact.covered_samples, dual.covered_samples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypergraphEquivalence,
                         ::testing::Values(5, 6, 7, 8));

// --- cross-variant determinism ------------------------------------------------------

CompressedRRRCollection compress(const std::vector<RRRSet> &samples) {
  CompressedRRRCollection compressed;
  for (const RRRSet &sample : samples) compressed.append(sample);
  return compressed;
}

/// Runs every selection variant on the same samples and demands the brute-
/// force greedy's seed sequence and coverage: one greedy max-coverage
/// definition, every storage and implementation.
void expect_all_variants_agree(vertex_t n, std::uint32_t k,
                               const std::vector<RRRSet> &samples) {
  const SelectionResult reference = greedy_oracle(n, k, samples);
  ASSERT_EQ(reference.seeds.size(), k);
  auto expect_same = [&](const SelectionResult &other, const char *variant) {
    EXPECT_EQ(reference.seeds, other.seeds) << variant;
    EXPECT_EQ(reference.covered_samples, other.covered_samples) << variant;
    EXPECT_EQ(reference.total_samples, other.total_samples) << variant;
  };

  expect_same(select_seeds(n, k, samples), "plain");
  {
    // The arena leaves right after its last team read it: under TSan a
    // later long region would evict the workers' stacks that
    // scripts/tsan-suppressions.txt matches.
    const CompressedRRRCollection compressed = compress(samples);
    expect_same(select_seeds(n, k, compressed), "compressed");
    for (unsigned threads : {1u, 3u, 7u})
      expect_same(select_seeds_multithreaded(n, k, compressed, threads),
                  ("compressed threads=" + std::to_string(threads)).c_str());
  }
  expect_same(select_seeds_lazy(n, k, samples), "lazy");
  for (unsigned threads : {1u, 2u, 7u})
    expect_same(select_seeds_multithreaded(n, k, samples, threads),
                ("threads=" + std::to_string(threads)).c_str());

  HypergraphCollection hypergraph(n);
  for (const RRRSet &sample : samples) {
    RRRSet copy = sample;
    hypergraph.add(std::move(copy));
  }
  expect_same(select_seeds_hypergraph(n, k, hypergraph), "hypergraph");
}

TEST(SelectDeterminism, AllVariantsAgreeOnRandomFixtures) {
  for (std::uint64_t seed : {7u, 77u, 777u})
    expect_all_variants_agree(120, 9, random_samples(120, 360, 8, seed));
}

TEST(SelectDeterminism, AllVariantsAgreeOnTies) {
  // Every round is a tie on purpose: vertices 2/5 and then 3/8 have equal
  // counters, so any variant that does not break ties to the smallest id
  // (or lets thread interleaving pick the winner) diverges here.
  std::vector<RRRSet> samples = {{2, 5}, {2, 5}, {3, 8}, {3, 8}};
  expect_all_variants_agree(10, 4, samples);
}

TEST(SelectDeterminism, AllVariantsAgreeOnZeroCoverageTail) {
  // k exceeds the number of useful picks; the zero-counter fallback order
  // must also match across variants.
  std::vector<RRRSet> samples = {{4}, {4}, {6}};
  expect_all_variants_agree(9, 5, samples);
}

// The fixtures below aim at Alg. 4's per-set signature filter: a set's
// members are searched only when its 64-bit signature holds the seed's bit.

TEST(SelectDeterminism, AllVariantsAgreeWithSignatureFalsePositives) {
  // 20-40 members hash onto 64 signature bits, so a third or more of the
  // sets that lack a round's seed still pass its signature test.
  for (std::uint64_t seed : {3u, 33u})
    expect_all_variants_agree(1000, 25,
                              sized_samples(0, 1000, 600, 20, 40, seed));
}

TEST(SelectDeterminism, AllVariantsAgreeWithSaturatedSignatures) {
  // 201-600 members set nearly every signature bit, and the larger sets
  // saturate it before their last member: the filter passes almost
  // everything and the member search decides alone.
  expect_all_variants_agree(1000, 15, sized_samples(0, 1000, 150, 201, 600, 4));
}

TEST(SelectDeterminism, AllVariantsAgreeOnIdsNearTheTopOfALargeRange) {
  // n = 2^20 with every member in the last 400 ids: the hash of ids near
  // n - 1, and the top vertex interval of every team size.
  constexpr vertex_t n = vertex_t{1} << 20;
  expect_all_variants_agree(n, 10, sized_samples(n - 400, n, 300, 1, 12, 5));
}

TEST(SelectDeterminism, AllVariantsAgreeWithEmptySetsMixedIn) {
  // Every third set is empty: it never retires, yet it counts in |R|.
  std::vector<RRRSet> samples = random_samples(80, 240, 6, 6);
  for (std::size_t j = 0; j < samples.size(); j += 3) samples[j].clear();
  expect_all_variants_agree(80, 12, samples);
}

TEST(SelectDeterminism, AllVariantsAgreeOnAnEmptyCollection) {
  // No samples at all: every variant falls back to the smallest ids.
  expect_all_variants_agree(6, 3, {});
  const SelectionResult compressed =
      select_seeds(6, 3, CompressedRRRCollection{});
  EXPECT_EQ(compressed.seeds, (std::vector<vertex_t>{0, 1, 2}));
  EXPECT_EQ(compressed.total_samples, 0u);
}

// --- mixed list / bitmap records ------------------------------------------------

/// n = 1000: W = 32 words, and n % 32 = 8, so the last word is partial.
/// Interleaves 1-31-member lists with 32-400-member sets, which a hybrid
/// collection stores as bitmaps.
std::vector<RRRSet> mixed_samples(vertex_t n, std::uint64_t seed) {
  const std::vector<RRRSet> small = sized_samples(0, n, 240, 1, 31, seed);
  const std::vector<RRRSet> large =
      sized_samples(0, n, 120, 32, 400, seed + 1);
  std::vector<RRRSet> samples;
  for (std::size_t j = 0; j < small.size(); ++j) {
    samples.push_back(small[j]);
    if (j % 2 == 1) samples.push_back(large[j / 2]);
  }
  // Sets reaching the top id exercise the partial last word.
  samples.push_back({n - 40, n - 1});
  RRRSet top;
  for (vertex_t v = n - 64; v < n; ++v) top.push_back(v);
  samples.push_back(top);
  return samples;
}

TEST(SelectMixedRecords, EveryKernelAgreesWithTheBruteForceGreedy) {
  constexpr vertex_t n = 1000;
  constexpr std::uint32_t k = 14;
  for (std::uint64_t seed : {11u, 12u}) {
    const std::vector<RRRSet> samples = mixed_samples(n, seed);
    RRRCollection hybrid(n);
    for (const RRRSet &sample : samples) hybrid.add(RRRSet(sample));
    std::size_t bitmaps = 0;
    for (const RRRSet &record : hybrid.sets())
      bitmaps += hybrid.is_bitmap(record) ? 1 : 0;
    ASSERT_GT(bitmaps, 100u);
    ASSERT_LT(bitmaps, samples.size() / 2);

    const SelectionResult reference = greedy_oracle(n, k, samples);
    auto expect_same = [&](const SelectionResult &other,
                           const std::string &variant) {
      EXPECT_EQ(reference.seeds, other.seeds) << variant;
      EXPECT_EQ(reference.covered_samples, other.covered_samples) << variant;
      EXPECT_EQ(reference.total_samples, other.total_samples) << variant;
    };

    // Alg. 4: teams of 3 and 7 put the interval bounds [vl, vh) inside
    // bitmap words (333, 666; 142, 285, ...).
    for (unsigned threads : {1u, 2u, 3u, 4u, 7u})
      expect_same(select_seeds_multithreaded(n, k, hybrid, threads),
                  "alg4 threads=" + std::to_string(threads));

    // Compressed selection over an arena holding both kinds.
    CompressedRRRCollection compressed(n);
    for (std::size_t j = 0; j < hybrid.size(); ++j)
      compressed.append(hybrid.record(j));
    std::size_t compressed_bitmaps = 0;
    auto cursor = compressed.cursor();
    while (!cursor.at_end()) {
      cursor.skip_members(cursor.next_header());
      compressed_bitmaps += cursor.at_bitmap() ? 1 : 0;
    }
    EXPECT_GT(compressed_bitmaps, 0u);
    expect_same(select_seeds(n, k, compressed), "compressed");
    for (unsigned threads : {1u, 3u, 7u})
      expect_same(select_seeds_multithreaded(n, k, compressed, threads),
                  "compressed threads=" + std::to_string(threads));

    // The distributed shape: the caller picks each seed.
    for (unsigned threads : {1u, 3u, 7u}) {
      for (const bool packed : {false, true}) {
        SelectionHooks hooks;
        hooks.pick = [](std::uint32_t, std::span<const std::uint32_t> counts,
                        std::span<const std::uint8_t> selected) {
          return argmax_counter(counts, selected);
        };
        expect_same(packed ? select_seeds_multithreaded(n, k, compressed,
                                                        threads, hooks)
                           : select_seeds_multithreaded(n, k, hybrid, threads,
                                                        hooks),
                    std::string(packed ? "compressed" : "plain") +
                        " picked threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(SelectSeedsMultithreaded, NestedCallWithASmallerTeamPicksDistinctSeeds) {
  // Inside another parallel region the inner team gets fewer threads than
  // requested, so some per-thread candidate slots are never written.  Once
  // every remaining counter is 0 those slots must not pose as vertex 0.
  const std::vector<RRRSet> samples = {{0}, {0}};
  SelectionResult nested;
#pragma omp parallel num_threads(2)
#pragma omp single
  nested = select_seeds_multithreaded(5, 3, samples, 4);
  EXPECT_EQ(nested.seeds, (std::vector<vertex_t>{0, 1, 2}));
}

// --- building blocks ----------------------------------------------------------------

TEST(CountMemberships, CountsEveryAssociation) {
  std::vector<RRRSet> samples = {{0, 1, 2}, {1, 2}, {2}};
  std::vector<std::uint32_t> counters(4, 0);
  count_memberships(samples, counters);
  EXPECT_EQ(counters[0], 1u);
  EXPECT_EQ(counters[1], 2u);
  EXPECT_EQ(counters[2], 3u);
  EXPECT_EQ(counters[3], 0u);
}

TEST(RetireSamples, DecrementsAndMarks) {
  std::vector<RRRSet> samples = {{0, 1}, {1, 2}, {2, 3}};
  std::vector<std::uint32_t> counters(4, 0);
  count_memberships(samples, counters);
  std::vector<std::uint8_t> retired(3, 0);
  std::uint64_t count = retire_samples_containing(1, samples, counters, retired);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(retired[0], 1);
  EXPECT_EQ(retired[1], 1);
  EXPECT_EQ(retired[2], 0);
  EXPECT_EQ(counters[0], 0u);
  EXPECT_EQ(counters[1], 0u);
  EXPECT_EQ(counters[2], 1u); // only sample {2,3} still counts it
}

TEST(RetireSamples, SkipsAlreadyRetired) {
  std::vector<RRRSet> samples = {{0, 1}};
  std::vector<std::uint32_t> counters(2, 0);
  count_memberships(samples, counters);
  std::vector<std::uint8_t> retired(1, 0);
  EXPECT_EQ(retire_samples_containing(0, samples, counters, retired), 1u);
  EXPECT_EQ(retire_samples_containing(1, samples, counters, retired), 0u);
}

TEST(ArgmaxCounter, SkipsSelectedAndBreaksTiesLow) {
  std::vector<std::uint32_t> counters{5, 9, 9, 2};
  std::vector<std::uint8_t> selected{0, 0, 0, 0};
  EXPECT_EQ(argmax_counter(counters, selected), 1u);
  selected[1] = 1;
  EXPECT_EQ(argmax_counter(counters, selected), 2u);
  selected[2] = 1;
  EXPECT_EQ(argmax_counter(counters, selected), 0u);
}

TEST(ArgmaxCounter, AllZeroReturnsSmallestUnselected) {
  std::vector<std::uint32_t> counters{0, 0, 0};
  std::vector<std::uint8_t> selected{1, 0, 0};
  EXPECT_EQ(argmax_counter(counters, selected), 1u);
}

} // namespace
} // namespace ripples
