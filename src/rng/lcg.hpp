/// \file lcg.hpp
/// \brief 64-bit linear congruential generator with O(lg j) jump-ahead and
/// leap-frog stream splitting.
///
/// The paper's distributed sampler requires that "accurate generation of
/// pseudorandom numbers in parallel is critical to guarantee the
/// approximation bounds" and employs a linear congruential generator "by
/// splitting the sequence between ranks using the Leap Frog method
/// implemented in TRNG".  This class reproduces that construction from
/// scratch:
///
///  * the base sequence is X_{n+1} = a * X_n + c  (mod 2^64);
///  * jump-ahead by j steps computes (A_j, C_j) with A_j = a^j and
///    C_j = c * (a^j - 1) / (a - 1) via iterated squaring in O(lg j);
///  * leap-frog stream i of p is the subsequence X_i, X_{i+p}, X_{i+2p},...
///    which is itself an LCG with multiplier A_p and increment C_p started
///    from X_i.
///
/// Consequently the multiset of random numbers consumed by p ranks equals
/// the prefix of one global stream, independent of p — the property the
/// determinism tests and `ablation_rng_streams` verify.
#ifndef RIPPLES_RNG_LCG_HPP
#define RIPPLES_RNG_LCG_HPP

#include <cstdint>
#include <limits>

namespace ripples {

/// Affine map x -> mult * x + add (mod 2^64); the transition function of an
/// LCG.  Composition of affine maps models multi-step transitions.
struct LcgTransition {
  std::uint64_t mult = 1;
  std::uint64_t add = 0;

  /// The map applying \p first and then \p second.
  friend LcgTransition compose(const LcgTransition &second,
                               const LcgTransition &first) {
    return {second.mult * first.mult, second.mult * first.add + second.add};
  }

  [[nodiscard]] std::uint64_t apply(std::uint64_t x) const {
    return mult * x + add;
  }
};

/// 64-bit LCG (Knuth MMIX constants).  Satisfies UniformRandomBitGenerator.
/// The low bits of a power-of-two-modulus LCG have short periods, so the
/// 64-bit output is the raw state but consumers should prefer
/// next_double()/next_u32(), which use the high bits.
class Lcg64 {
public:
  using result_type = std::uint64_t;

  static constexpr std::uint64_t kDefaultMultiplier = 6364136223846793005ULL;
  static constexpr std::uint64_t kDefaultIncrement = 1442695040888963407ULL;

  explicit Lcg64(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
      : state_(seed), step_{kDefaultMultiplier, kDefaultIncrement} {}

  /// A generator with an explicit transition (used by leapfrog()).
  Lcg64(std::uint64_t state, LcgTransition step) : state_(state), step_(step) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Advances one step and returns the new state.
  result_type operator()() {
    state_ = step_.apply(state_);
    return state_;
  }

  /// High 32 bits of the next state — the statistically strong half.
  [[nodiscard]] std::uint32_t next_u32() {
    return static_cast<std::uint32_t>(operator()() >> 32);
  }

  /// Uniform double in [0, 1) built from the top 53 bits.
  [[nodiscard]] double next_double() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  [[nodiscard]] std::uint64_t state() const { return state_; }
  [[nodiscard]] LcgTransition transition() const { return step_; }

  /// The transition of \p steps applications of \p base, in O(lg steps).
  static LcgTransition power(LcgTransition base, std::uint64_t steps);

  /// Jumps this generator forward by \p steps in O(lg steps).
  void discard(std::uint64_t steps) { state_ = power(step_, steps).apply(state_); }

  /// Leap-frog substream \p stream of \p num_streams (0-based): yields
  /// elements stream, stream+num_streams, stream+2*num_streams, ... of this
  /// generator's future sequence.  *this is left unmodified.
  [[nodiscard]] Lcg64 leapfrog(std::uint64_t stream,
                               std::uint64_t num_streams) const;

  friend bool operator==(const Lcg64 &, const Lcg64 &) = default;

private:
  std::uint64_t state_;
  LcgTransition step_;
};

} // namespace ripples

#endif // RIPPLES_RNG_LCG_HPP
