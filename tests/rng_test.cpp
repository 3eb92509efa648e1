// Unit and property tests for the PRNG substrate: LCG jump-ahead and
// leap-frog splitting (the paper's TRNG-style parallel stream discipline),
// SplitMix64, xoshiro256**, Philox, and the distribution helpers.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/lcg.hpp"
#include "rng/philox.hpp"
#include "rng/philox_buffered.hpp"
#include "rng/splitmix.hpp"
#include "rng/xoshiro.hpp"

namespace ripples {
namespace {

TEST(Lcg64, ProducesKnownRecurrence) {
  Lcg64 gen(1);
  std::uint64_t expected =
      Lcg64::kDefaultMultiplier * 1 + Lcg64::kDefaultIncrement;
  EXPECT_EQ(gen(), expected);
  expected = Lcg64::kDefaultMultiplier * expected + Lcg64::kDefaultIncrement;
  EXPECT_EQ(gen(), expected);
}

TEST(Lcg64, DistinctSeedsDiverge) {
  Lcg64 a(1), b(2);
  EXPECT_NE(a(), b());
}

TEST(Lcg64, TransitionPowerIdentity) {
  LcgTransition step{Lcg64::kDefaultMultiplier, Lcg64::kDefaultIncrement};
  LcgTransition zero = Lcg64::power(step, 0);
  EXPECT_EQ(zero.mult, 1u);
  EXPECT_EQ(zero.add, 0u);
  LcgTransition one = Lcg64::power(step, 1);
  EXPECT_EQ(one.mult, step.mult);
  EXPECT_EQ(one.add, step.add);
}

class LcgJumpAhead : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LcgJumpAhead, DiscardEqualsIteratedStepping) {
  const std::uint64_t steps = GetParam();
  Lcg64 jumped(12345);
  jumped.discard(steps);
  Lcg64 stepped(12345);
  for (std::uint64_t i = 0; i < steps; ++i) stepped();
  EXPECT_EQ(jumped.state(), stepped.state()) << "steps=" << steps;
}

INSTANTIATE_TEST_SUITE_P(JumpLengths, LcgJumpAhead,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 63, 64, 1000,
                                           12345, 1u << 20));

class LcgLeapfrog : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LcgLeapfrog, StreamsPartitionTheBaseSequence) {
  const std::uint64_t p = GetParam();
  const std::size_t per_stream = 64;

  Lcg64 base(987654321);
  std::vector<std::uint64_t> reference;
  Lcg64 base_copy = base;
  for (std::size_t i = 0; i < per_stream * p; ++i)
    reference.push_back(base_copy());

  // Stream r must produce exactly elements r, r+p, r+2p, ... of the base
  // sequence — the leap-frog contract of the paper's distributed sampler,
  // which bench/ablation_rng_streams runs.
  for (std::uint64_t r = 0; r < p; ++r) {
    Lcg64 stream = base.leapfrog(r, p);
    for (std::size_t j = 0; j < per_stream; ++j) {
      EXPECT_EQ(stream(), reference[j * p + r])
          << "stream " << r << " of " << p << ", element " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StreamCounts, LcgLeapfrog,
                         ::testing::Values(1, 2, 3, 4, 7, 16, 64, 1024));

TEST(Lcg64, NextDoubleIsInUnitInterval) {
  Lcg64 gen(7);
  for (int i = 0; i < 10000; ++i) {
    double x = gen.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(SplitMix64, MixerIsBijectiveOnSample) {
  // Distinct inputs must give distinct outputs (injectivity on a sample).
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i)
    outputs.insert(splitmix64_mix(i * 0x9e3779b97f4a7c15ULL + 1));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(SplitMix64, ReproducibleFromSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, ReproducibleFromSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, JumpProducesDisjointPrefixes) {
  Xoshiro256 a(42);
  Xoshiro256 b = a;
  b.jump();
  std::set<std::uint64_t> from_a;
  for (int i = 0; i < 4096; ++i) from_a.insert(a());
  for (int i = 0; i < 4096; ++i) EXPECT_EQ(from_a.count(b()), 0u);
}

TEST(Xoshiro256, SubstreamEqualsRepeatedJump) {
  Xoshiro256 expected(9);
  expected.jump();
  expected.jump();
  Xoshiro256 actual = Xoshiro256::substream(9, 2);
  EXPECT_EQ(actual, expected);
}

TEST(Philox4x32, ReproducibleFromKeyAndStream) {
  Philox4x32 a(11, 3), b(11, 3);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a(), b());
}

TEST(Philox4x32, StreamsAreDistinct) {
  Philox4x32 a(11, 0), b(11, 1);
  bool any_different = false;
  for (int i = 0; i < 16; ++i) any_different |= (a() != b());
  EXPECT_TRUE(any_different);
}

TEST(Philox4x32, KeysAreDistinct) {
  Philox4x32 a(1, 0), b(2, 0);
  EXPECT_NE(a(), b());
}

// --- distribution helpers --------------------------------------------------

TEST(Distributions, UniformUnitRange) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    double x = uniform_unit(rng);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Distributions, UniformUnitMeanIsHalf) {
  Xoshiro256 rng(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += uniform_unit(rng);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

class UniformIndexBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformIndexBounds, StaysBelowBoundAndHitsAllValues) {
  const std::uint64_t bound = GetParam();
  Xoshiro256 rng(17);
  std::vector<std::uint32_t> histogram(bound, 0);
  const std::uint64_t draws = bound * 200;
  for (std::uint64_t i = 0; i < draws; ++i) {
    std::uint64_t x = uniform_index(rng, bound);
    ASSERT_LT(x, bound);
    ++histogram[x];
  }
  for (std::uint64_t v = 0; v < bound; ++v)
    EXPECT_GT(histogram[v], 0u) << "value " << v << " never drawn";
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformIndexBounds,
                         ::testing::Values(1, 2, 3, 10, 100, 1000));

TEST(Distributions, UniformIndexIsApproximatelyUniform) {
  Xoshiro256 rng(3);
  const std::uint64_t bound = 10;
  const int draws = 200000;
  std::array<int, 10> histogram{};
  for (int i = 0; i < draws; ++i) ++histogram[uniform_index(rng, bound)];
  // Chi-squared with 9 dof; 99.9th percentile is ~27.9.
  double chi2 = 0;
  const double expected = draws / 10.0;
  for (int count : histogram) {
    double d = count - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 27.9);
}

TEST(Distributions, BernoulliMatchesProbability) {
  Xoshiro256 rng(23);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += bernoulli(rng, 0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Distributions, BernoulliEdgeCases) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(bernoulli(rng, 0.0));
    EXPECT_TRUE(bernoulli(rng, 1.0));
  }
}

TEST(Distributions, UniformRealRespectsRange) {
  Xoshiro256 rng(29);
  for (int i = 0; i < 10000; ++i) {
    double x = uniform_real(rng, -2.5, 7.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 7.5);
  }
}

// --- bulk / buffered Philox --------------------------------------------------
//
// The fused sampling engine's byte-identity rests on one property: every
// consumption pattern of BufferedPhilox emits the exact draw sequence of
// the scalar Philox4x32 on the same (key, counter_hi) stream.

TEST(PhiloxBulk, BlocksMatchTheScalarEngineDrawForDraw) {
  const std::uint64_t key = 0xDEADBEEF, stream = 42;
  std::vector<std::uint64_t> bulk(2 * 1000);
  philox4x32_bulk(0, 1000, key, stream, bulk.data());
  Philox4x32 scalar(key, stream);
  for (std::size_t i = 0; i < bulk.size(); ++i)
    ASSERT_EQ(bulk[i], scalar()) << "draw " << i;
}

TEST(PhiloxBulk, ArbitraryFirstBlockContinuesTheStream) {
  const std::uint64_t key = 7, stream = 3;
  Philox4x32 scalar(key, stream);
  for (int i = 0; i < 2 * 317; ++i) (void)scalar();
  std::vector<std::uint64_t> bulk(2 * 5);
  philox4x32_bulk(317, 5, key, stream, bulk.data());
  for (std::size_t i = 0; i < bulk.size(); ++i)
    ASSERT_EQ(bulk[i], scalar()) << "draw " << i;
}

TEST(BufferedPhilox, OperatorMatchesScalarAcrossManyRefills) {
  BufferedPhilox buffered;
  buffered.reset(11, 5);
  Philox4x32 scalar(11, 5);
  // 3x capacity forces several refills through the quantum ramp.
  for (std::size_t i = 0; i < 3 * BufferedPhilox::capacity(); ++i)
    ASSERT_EQ(buffered(), scalar()) << "draw " << i;
}

TEST(BufferedPhilox, InterleavedPeekConsumeEmitsTheScalarSequence) {
  BufferedPhilox buffered;
  buffered.reset(13, 9);
  Philox4x32 scalar(13, 9);
  // Mixed consumption: peek a chunk, consume only part of it (as the fused
  // kernel does when edges are masked off), occasionally draw directly.
  const std::size_t chunks[] = {1, 3, 8, 2, 60, 7, 128, 1, 30, 256, 5, 90};
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t chunk : chunks) {
      const std::uint64_t *draws = buffered.peek(chunk);
      ASSERT_GE(buffered.buffered(), chunk);
      std::size_t used = chunk - chunk / 3;
      for (std::size_t i = 0; i < used; ++i)
        ASSERT_EQ(draws[i], scalar()) << "chunk " << chunk << " draw " << i;
      buffered.consume(used);
    }
    ASSERT_EQ(buffered(), scalar());
  }
}

TEST(BufferedPhilox, FirstRefillKeepsOneWholeBulkPass) {
  // A fresh stream's first refill keeps every block of the bulk pass it
  // pays for; the draws on both sides of that refill's end, and of the
  // doubled one after it, are the scalar engine's.
  constexpr std::size_t kFirst = 2 * kPhiloxBulkWidth;
  for (const std::uint64_t stream : {1u, 2u, 77u}) {
    BufferedPhilox buffered;
    buffered.reset(23, stream);
    Philox4x32 scalar(23, stream);
    ASSERT_EQ(buffered(), scalar());
    EXPECT_EQ(buffered.buffered(), kFirst - 1);
    for (std::size_t i = 1; i < 3 * kFirst + 3; ++i)
      ASSERT_EQ(buffered(), scalar()) << "stream " << stream << " draw " << i;
  }
}

TEST(BufferedPhilox, PeekAcrossTheFirstRefillBoundary) {
  // A first request just short of, at, and just past one bulk pass, then
  // single draws past the second refill: the LT walk's consumption shape.
  constexpr std::size_t kFirst = 2 * kPhiloxBulkWidth;
  for (const std::size_t n : {kFirst - 1, kFirst, kFirst + 1}) {
    BufferedPhilox buffered;
    buffered.reset(29, n);
    Philox4x32 scalar(29, n);
    const std::uint64_t *draws = buffered.peek(n);
    ASSERT_GE(buffered.buffered(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(draws[i], scalar()) << "peek " << n << " draw " << i;
    buffered.consume(n);
    for (std::size_t i = 0; i < 2 * kFirst; ++i)
      ASSERT_EQ(buffered(), scalar()) << "peek " << n << " then draw " << i;
  }
}

TEST(BufferedPhilox, EnsureKeepsAlreadyBufferedDrawsStable) {
  BufferedPhilox buffered;
  buffered.reset(17, 2);
  const std::uint64_t first = buffered.peek(4)[0];
  buffered.ensure(BufferedPhilox::capacity());
  EXPECT_EQ(buffered.peek(1)[0], first);
  Philox4x32 scalar(17, 2);
  EXPECT_EQ(buffered(), scalar());
}

TEST(BufferedPhilox, ResetRetargetsTheStreamExactly) {
  BufferedPhilox buffered;
  buffered.reset(19, 1);
  for (int i = 0; i < 100; ++i) (void)buffered();
  // Re-point mid-buffer at another stream: no draws of the old stream may
  // leak, and the quantum ramp restarts (short streams stay cheap).
  buffered.reset(19, 2);
  Philox4x32 scalar(19, 2);
  for (int i = 0; i < 50; ++i) ASSERT_EQ(buffered(), scalar()) << "draw " << i;
  // And back to the first stream, from the top.
  buffered.reset(19, 1);
  Philox4x32 scalar1(19, 1);
  for (int i = 0; i < 50; ++i) ASSERT_EQ(buffered(), scalar1());
}

} // namespace
} // namespace ripples
