/// \file xoshiro.hpp
/// \brief xoshiro256** — the library's default general-purpose generator.
///
/// The shared-memory sampler gives each OpenMP thread an independent
/// xoshiro256** obtained with jump(), which advances 2^128 steps and thereby
/// partitions the period into non-overlapping substreams (the shared-memory
/// analogue of the paper's leap-frog split).
#ifndef RIPPLES_RNG_XOSHIRO_HPP
#define RIPPLES_RNG_XOSHIRO_HPP

#include <array>
#include <cstdint>
#include <limits>

#include "rng/splitmix.hpp"

namespace ripples {

/// xoshiro256** 1.0 (Blackman & Vigna 2018).
class Xoshiro256 {
public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0xa02bdbf7bb3c0a7ULL) {
    // Expand the seed with SplitMix64 as the authors recommend; an all-zero
    // state (the one invalid state) cannot arise from a bijective mixer fed
    // with distinct inputs.
    SplitMix64 mixer(seed);
    for (auto &word : state_) word = mixer();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) from the top 53 bits.
  [[nodiscard]] double next_double() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Advances 2^128 steps; 2^128 non-overlapping subsequences available.
  void jump() {
    static constexpr std::array<std::uint64_t, 4> kJump = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
        0x39abdc4529b1661cULL};
    std::array<std::uint64_t, 4> acc{};
    for (std::uint64_t word : kJump) {
      for (int bit = 0; bit < 64; ++bit) {
        if (word & (std::uint64_t{1} << bit)) {
          for (int i = 0; i < 4; ++i) acc[i] ^= state_[i];
        }
        operator()();
      }
    }
    state_ = acc;
  }

  /// The generator for substream \p stream: seeded identically, then jumped
  /// \p stream times.
  [[nodiscard]] static Xoshiro256 substream(std::uint64_t seed,
                                            std::uint64_t stream) {
    Xoshiro256 gen(seed);
    for (std::uint64_t i = 0; i < stream; ++i) gen.jump();
    return gen;
  }

  friend bool operator==(const Xoshiro256 &, const Xoshiro256 &) = default;

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

} // namespace ripples

#endif // RIPPLES_RNG_XOSHIRO_HPP
