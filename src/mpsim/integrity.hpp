/// \file integrity.hpp
/// \brief Payload-integrity primitives for the mpsim runtime (DESIGN.md §14).
///
/// With `--verify-collectives` every collective payload, mailbox message,
/// and steal-channel item carries a CRC-32 (the checkpoint kernel from
/// support/checkpoint.hpp) computed by the producer before publication and
/// recomputed by every consumer before any byte is used.  A mismatch is
/// never acted on silently: the consumer quiesces the exchange, sleeps a
/// capped exponential backoff, and retries against the producer's still-live
/// buffer.  When the retry budget exhausts, the mismatch escalates —
/// `PayloadCorrupt` for the producer of the bad bytes, the shrink-and-heal
/// path for its peers — so a sticky corruption costs a rank, not the answer.
///
/// The backoff schedule is deterministic and testable: `retry_delay` is a
/// pure function of the attempt number, and the actual sleep is routed
/// through a process-global hook so tests substitute a fake clock and
/// assert the schedule without waiting it out.
#ifndef RIPPLES_MPSIM_INTEGRITY_HPP
#define RIPPLES_MPSIM_INTEGRITY_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>

namespace ripples::mpsim {

/// Retry budget per exchange: the first pass plus kMaxAttempts - 1 retries.
/// Exhaustion escalates to the failure path, so the budget bounds how long a
/// sticky corrupter can stall its peers.
inline constexpr int kMaxVerifyAttempts = 4;

/// First-retry delay: fast, because transient flips are the common case.
inline constexpr std::chrono::microseconds kBackoffBase{100};

/// Backoff ceiling: doubling stops here so the worst-case retry cost stays
/// bounded and deterministic.
inline constexpr std::chrono::microseconds kBackoffCap{400};

/// The capped exponential schedule, as a pure function: retry \p attempt
/// (1-based) sleeps base * 2^(attempt-1), clamped to the cap.
[[nodiscard]] std::chrono::microseconds retry_delay(int attempt);

/// Sleeps `retry_delay(attempt)` — or reports it to the installed hook
/// instead, when a test wants the schedule without the wall-clock cost.
void backoff_sleep(int attempt);

/// Replaces the sleep behind backoff_sleep; pass nullptr to restore the real
/// clock.  Returns the previously installed hook so scopes can nest.
using BackoffHook = std::function<void(std::chrono::microseconds)>;
BackoffHook set_backoff_hook(BackoffHook hook);

/// RAII form of set_backoff_hook for tests.
class ScopedBackoffHook {
public:
  explicit ScopedBackoffHook(BackoffHook hook)
      : previous_(set_backoff_hook(std::move(hook))) {}
  ~ScopedBackoffHook() { set_backoff_hook(std::move(previous_)); }
  ScopedBackoffHook(const ScopedBackoffHook &) = delete;
  ScopedBackoffHook &operator=(const ScopedBackoffHook &) = delete;

private:
  BackoffHook previous_;
};

/// Thrown by a rank whose own payload kept failing verification after the
/// full retry budget — the producer of the bad bytes, not its detectors.
/// The message is a pure function of the coordinates, so repeated runs of
/// one plan fail with byte-identical diagnostics.
class PayloadCorrupt : public std::runtime_error {
public:
  PayloadCorrupt(const char *op, std::uint64_t site, int rank, int attempts);

  [[nodiscard]] const std::string &op() const { return op_; }
  [[nodiscard]] std::uint64_t site() const { return site_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int attempts() const { return attempts_; }

private:
  std::string op_;
  std::uint64_t site_;
  int rank_;
  int attempts_;
};

} // namespace ripples::mpsim

#endif // RIPPLES_MPSIM_INTEGRITY_HPP
