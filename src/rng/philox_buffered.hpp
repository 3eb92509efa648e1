/// \file philox_buffered.hpp
/// \brief Bulk Philox4x32-10 block generation and a buffered engine facade.
///
/// The scalar Philox4x32 interleaves counter-block arithmetic with the
/// consuming traversal: one bijection (10 rounds of 32x32 multiplies) per
/// two draws, on the critical path of every edge decision.  Because the
/// generator is counter-based, any run of future blocks is computable out
/// of order and in bulk; philox4x32_bulk lays the counters out
/// structure-of-arrays and lets the compiler vectorize the rounds across
/// blocks, and BufferedPhilox turns that into a drop-in engine that emits
/// the *exact* draw sequence of Philox4x32(key, counter_hi) — the identity
/// the fused sampling kernel (DESIGN.md §10) depends on.
#ifndef RIPPLES_RNG_PHILOX_BUFFERED_HPP
#define RIPPLES_RNG_PHILOX_BUFFERED_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/philox.hpp"
#include "support/assert.hpp"

namespace ripples {

/// Blocks philox4x32_bulk computes per pass of its rounds: a request for
/// fewer still pays for this many, so buffered consumers refill in
/// multiples of it.
inline constexpr std::size_t kPhiloxBulkWidth = 16;

/// Computes Philox blocks [first_block, first_block + num_blocks) of the
/// stream (key, counter_hi) into \p out as draws — two 64-bit draws per
/// block, packed exactly as Philox4x32::operator() packs them (word1:word0,
/// then word3:word2).  Block b of a stream is the bijection of the counter
/// {lo32(b), hi32(b), lo32(counter_hi), hi32(counter_hi)}: Philox4x32
/// starts its low counter words at zero and carries only between them, so
/// the b-th advance is exactly that value for every b < 2^64.
inline void philox4x32_bulk(std::uint64_t first_block, std::size_t num_blocks,
                            std::uint64_t key, std::uint64_t counter_hi,
                            std::uint64_t *out) {
  constexpr std::size_t kWidth = kPhiloxBulkWidth;
  const auto c2_init = static_cast<std::uint32_t>(counter_hi);
  const auto c3_init = static_cast<std::uint32_t>(counter_hi >> 32);
  alignas(64) std::uint32_t c0[kWidth];
  alignas(64) std::uint32_t c1[kWidth];
  alignas(64) std::uint32_t c2[kWidth];
  alignas(64) std::uint32_t c3[kWidth];
  std::size_t done = 0;
  while (done < num_blocks) {
    const std::size_t width = std::min(kWidth, num_blocks - done);
    // Fill every lane (even past `width`): a uniform trip count keeps the
    // round loop branch-free and the surplus lanes are simply discarded.
    for (std::size_t i = 0; i < kWidth; ++i) {
      std::uint64_t b = first_block + done + i;
      c0[i] = static_cast<std::uint32_t>(b);
      c1[i] = static_cast<std::uint32_t>(b >> 32);
      c2[i] = c2_init;
      c3[i] = c3_init;
    }
    // The key schedule is block-independent, so it stays scalar while the
    // counters stream through the rounds kWidth at a time.
    std::uint32_t k0 = static_cast<std::uint32_t>(key);
    std::uint32_t k1 = static_cast<std::uint32_t>(key >> 32);
    for (int r = 0; r < 10; ++r) {
#pragma omp simd
      for (std::size_t i = 0; i < kWidth; ++i) {
        std::uint64_t p0 = static_cast<std::uint64_t>(Philox4x32::kMult0) * c0[i];
        std::uint64_t p1 = static_cast<std::uint64_t>(Philox4x32::kMult1) * c2[i];
        std::uint32_t n0 = static_cast<std::uint32_t>(p1 >> 32) ^ c1[i] ^ k0;
        std::uint32_t n1 = static_cast<std::uint32_t>(p1);
        std::uint32_t n2 = static_cast<std::uint32_t>(p0 >> 32) ^ c3[i] ^ k1;
        std::uint32_t n3 = static_cast<std::uint32_t>(p0);
        c0[i] = n0;
        c1[i] = n1;
        c2[i] = n2;
        c3[i] = n3;
      }
      k0 += Philox4x32::kWeyl0;
      k1 += Philox4x32::kWeyl1;
    }
    for (std::size_t i = 0; i < width; ++i) {
      out[2 * (done + i)] =
          (static_cast<std::uint64_t>(c1[i]) << 32) | c0[i];
      out[2 * (done + i) + 1] =
          (static_cast<std::uint64_t>(c3[i]) << 32) | c2[i];
    }
    done += width;
  }
}

/// A Philox4x32 stream consumed through a refill buffer.  operator() yields
/// the same draws in the same order as Philox4x32(key, counter_hi), but
/// blocks are generated in bulk through philox4x32_bulk: the first refill
/// after reset() is one full bulk width (32 draws, the least a bulk pass
/// computes), and each later one doubles its quantum up to the buffer
/// capacity, so short streams (an LT walk, a root draw) take one bulk pass
/// while long streams (an IC traversal's edge draws) amortize the
/// bijection over hundreds of vectorized blocks.  ensure() optionally
/// pre-fills when the consumer knows a lower bound on upcoming draws.
class BufferedPhilox {
public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  BufferedPhilox() : buffer_(kCapacity + 1) {}

  /// Re-points the engine at the beginning of stream (key, counter_hi),
  /// discarding any buffered draws of the previous stream.
  void reset(std::uint64_t key, std::uint64_t counter_hi) {
    key_ = key;
    counter_hi_ = counter_hi;
    next_block_ = 0;
    head_ = 0;
    size_ = 0;
    quantum_ = kMinQuantum;
  }

  result_type operator()() {
    if (head_ == size_) refill(1);
    return buffer_[head_++];
  }

  /// Guarantees at least min(n, capacity) draws are buffered, generating
  /// the shortfall in one bulk call.
  void ensure(std::size_t n) {
    n = std::min(n, kCapacity);
    std::size_t have = size_ - head_;
    if (have < n) refill(n - have);
  }

  /// ensure(n) and a pointer to the buffered draws: the branchless
  /// consumption interface.  The caller reads draws[0..min(n, capacity))
  /// in order and reports how many it actually used via consume(), which
  /// is how a fused traversal skips already-visited targets without a
  /// data-dependent branch around the engine.
  [[nodiscard]] const std::uint64_t *peek(std::size_t n) {
    ensure(n);
    return buffer_.data() + head_;
  }

  /// Advances past the first \p n buffered draws.
  void consume(std::size_t n) {
    head_ += n;
    RIPPLES_DEBUG_ASSERT(head_ <= size_);
  }

  /// Largest single ensure()/peek() request (draws).
  static constexpr std::size_t capacity() { return kCapacity; }

  /// Draws currently buffered (observability for tests).
  [[nodiscard]] std::size_t buffered() const { return size_ - head_; }

private:
  static constexpr std::size_t kCapacity = 256; // draws (2 KiB)
  // One bulk pass: a smaller first refill would discard the rest of the
  // pass's computed blocks.
  static constexpr std::size_t kMinQuantum = 2 * kPhiloxBulkWidth;

  void refill(std::size_t need) {
    // Compact the unconsumed tail to the front, then top up by the ramped
    // quantum: geometric growth bounds the waste of a stream that ends
    // early by its final quantum while reaching full-width bulk generation
    // within a few refills.
    std::size_t left = size_ - head_;
    if (left > 0 && head_ > 0)
      std::copy(buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
                buffer_.begin() + static_cast<std::ptrdiff_t>(size_),
                buffer_.begin());
    head_ = 0;
    size_ = left;
    std::size_t want = std::max(need, quantum_);
    want = std::min(want, kCapacity - left);
    RIPPLES_DEBUG_ASSERT(want >= need);
    quantum_ = std::min(quantum_ * 2, kCapacity);
    std::size_t blocks = (want + 1) / 2;
    philox4x32_bulk(next_block_, blocks, key_, counter_hi_,
                    buffer_.data() + size_);
    next_block_ += blocks;
    size_ += 2 * blocks;
  }

  std::uint64_t key_ = 0;
  std::uint64_t counter_hi_ = 0;
  std::uint64_t next_block_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t quantum_ = kMinQuantum;
  std::vector<std::uint64_t> buffer_;
};

} // namespace ripples

#endif // RIPPLES_RNG_PHILOX_BUFFERED_HPP
