/// \file memory.hpp
/// \brief Data-structure footprint accounting (Table 2's memory columns).
///
/// The paper measures peak memory of the two RRR-set representations with
/// Valgrind Massif.  Massif is unavailable here and its instrumentation
/// overhead prevented the authors from measuring large inputs anyway, so we
/// substitute a byte counter with the same meaning: every container that
/// stores reverse-reachability information reports its footprint, and a
/// process-wide MemoryTracker records the running and peak totals.  An RSS
/// sampler backs this up with an OS-level view.
#ifndef RIPPLES_SUPPORT_MEMORY_HPP
#define RIPPLES_SUPPORT_MEMORY_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ripples {

/// Diagnostic refusal of a tracked memory reservation: the named consumer
/// asked for more than the enforced budget (or an injected oom fault) allows.
/// Thrown only by callers that opted into hard refusal (the distributed
/// driver); the shared-memory drivers degrade to a certified early stop
/// instead (DESIGN.md §12).  The message names the consumer and the sizes so
/// an out-of-budget run is a one-line diagnosis, never a raw bad_alloc.
class MemoryBudgetExceeded : public std::runtime_error {
public:
  MemoryBudgetExceeded(const std::string &consumer, std::size_t requested,
                       std::size_t reserved, std::size_t budget);

  [[nodiscard]] const std::string &consumer() const { return consumer_; }
  [[nodiscard]] std::size_t requested_bytes() const { return requested_; }

private:
  std::string consumer_;
  std::size_t requested_;
};

/// One planned reservation failure: the \p site-th tracked reservation
/// attempted by mpsim world rank \p rank (thread-local trace rank; 0 on the
/// shared-memory drivers) is refused, and — modelling a hard per-rank
/// ceiling — every later reservation on that rank is refused too.  The
/// sticky semantics make the whole degradation ladder deterministic: the
/// compress and shed rungs re-reserve, fail again, and the run ends in the
/// same certified early stop (or diagnosed refusal) on every execution.
/// Mirrors mpsim::FaultSpec, but lives here so support/ stays independent
/// of the mpsim layer; the drivers translate `kind=oom` plan entries.
struct OomFaultSpec {
  int rank = 0;
  std::uint64_t site = 0;
};

/// Process-wide live/peak byte counter for tracked data structures.
///
/// Thread-safe: sampling engines update it concurrently.  The counter is
/// *logical* (bytes of tracked containers), not an allocator hook, so it
/// measures exactly the representation cost that Table 2 compares.
///
/// The tracker doubles as the budget authority (DESIGN.md §12): consumers
/// that can react to memory pressure route their growth through
/// try_reserve()/release() and the reserved total is checked against the
/// enforced budget (`--mem-budget` / ImmOptions::mem_budget).  Reservations
/// are *cooperative* — an untracked allocation is not stopped — which keeps
/// refusal a catchable decision point on the requesting thread instead of a
/// bad_alloc inside a parallel region.
class MemoryTracker {
public:
  /// The single process-wide instance.
  static MemoryTracker &instance();

  /// Registers \p bytes of newly held memory.
  void allocate(std::size_t bytes) {
    std::size_t live = live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // Lock-free peak update; contention is negligible (batched updates).
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (live > peak &&
           !peak_.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
    }
  }

  /// Registers \p bytes of released memory.
  void deallocate(std::size_t bytes) {
    live_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t live_bytes() const {
    return live_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

  /// Resets both counters; call between benchmark repetitions.
  void reset() {
    live_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

  // --- budget & reservations (DESIGN.md §12) ------------------------------

  /// Sets the enforced reservation budget in bytes; 0 means unlimited.
  void set_budget(std::size_t bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t budget() const {
    return budget_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }

  /// Attempts to reserve \p bytes against the budget on behalf of
  /// \p consumer.  Success charges both the reservation total and the
  /// live/peak counters; failure (budget exceeded, or an installed oom
  /// fault) changes nothing and returns false.  Counted in
  /// `mem.budget.reservations` / `mem.budget.refusals`.
  bool try_reserve(std::size_t bytes, const char *consumer);

  /// Unchecked reservation bookkeeping: used to reconcile an estimate-ahead
  /// admission with the bytes a batch actually occupies.  Never refused, not
  /// an oom fault site — admission decisions stay at try_reserve.
  void force_reserve(std::size_t bytes) {
    reserved_.fetch_add(bytes, std::memory_order_relaxed);
    allocate(bytes);
  }

  /// Returns \p bytes of reservation.
  void release(std::size_t bytes) {
    reserved_.fetch_sub(bytes, std::memory_order_relaxed);
    deallocate(bytes);
  }

  /// Installs the deterministic reservation-failure plan (`kind=oom` fault
  /// specs; see mpsim/fault.hpp).  Each rank's try_reserve calls are
  /// numbered from this installation; once rank R reaches its planned site
  /// its reservations fail *stickily* from then on.  Replaces any previous
  /// plan and resets the per-rank site counters.
  void install_oom_faults(std::vector<OomFaultSpec> faults);

  /// Removes the fault plan and resets the site counters and sticky state.
  void clear_oom_faults();

private:
  /// Fault check for one reservation attempt; returns true when the attempt
  /// must be refused.  Only called when a plan is installed.
  bool oom_fault_fires();

  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> budget_{0};
  std::atomic<std::size_t> reserved_{0};

  // Oom fault state: guarded by a mutex — reservations are per-batch, not
  // per-sample, so this is far off every hot path, and only ever touched
  // when a plan is installed (have_oom_faults_ gates with one relaxed load).
  std::atomic<bool> have_oom_faults_{false};
  std::mutex oom_mutex_;
  std::vector<OomFaultSpec> oom_faults_;
  std::vector<std::uint64_t> oom_sites_;  // per-rank attempt counters
  std::vector<std::uint8_t> oom_sticky_;  // per-rank "ceiling hit" flags
};

/// Allocator adaptor that reports every allocation to the MemoryTracker.
/// Used by the RRR-set containers so their exact heap footprint (including
/// growth slack) is visible to the Table 2 harness.
template <typename T> class TrackingAllocator {
public:
  using value_type = T;

  TrackingAllocator() noexcept = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U> &) noexcept {}

  T *allocate(std::size_t n) {
    MemoryTracker::instance().allocate(n * sizeof(T));
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T *p, std::size_t n) noexcept {
    MemoryTracker::instance().deallocate(n * sizeof(T));
    std::allocator<T>{}.deallocate(p, n);
  }

  friend bool operator==(const TrackingAllocator &, const TrackingAllocator &) {
    return true;
  }
};

/// Current resident set size of the process in bytes (Linux /proc based).
/// Returns 0 when the information is unavailable.
[[nodiscard]] std::size_t current_rss_bytes();

/// Peak resident set size of the process in bytes (VmHWM).
[[nodiscard]] std::size_t peak_rss_bytes();

/// Formats a byte count as a human-readable string ("12.3 MB").
[[nodiscard]] std::string format_bytes(std::size_t bytes);

/// One tick of the ResourceSampler: logical tracker bytes and kernel RSS at
/// \p t_seconds on the process trace epoch (see process_now_seconds()), so
/// the series aligns with trace spans and RunReport phase starts.
struct ResourceSample {
  double t_seconds = 0.0;
  std::uint64_t tracker_live_bytes = 0;
  std::uint64_t tracker_peak_bytes = 0;
  std::uint64_t rss_bytes = 0;
};

/// Low-rate background memory profiler (`--profile-mem`, default 10 Hz).
///
/// A dedicated thread samples MemoryTracker live/peak and /proc RSS,
/// appending to a bounded in-memory series and — when tracing is enabled —
/// emitting `mem.tracker_live_bytes` / `mem.tracker_peak_bytes` /
/// `mem.rss_bytes` counter tracks, which Perfetto renders as area charts
/// under rank 0.  When the series hits its capacity it halves itself (keep
/// every other sample) and doubles the sampling period, so an arbitrarily
/// long run costs bounded memory at degrading resolution — the same
/// recent-window-survives spirit as the trace ring, but here the *shape*
/// of the whole run matters more than the tail, hence decimation over
/// overwrite.
///
/// start()/stop() are idempotent and thread-safe; stop() joins the thread
/// (also registered atexit, so the sampler is quiescent before the trace
/// and report atexit flushes run — they were armed earlier, and atexit
/// runs LIFO).
class ResourceSampler {
public:
  static ResourceSampler &instance();

  /// Starts the sampler thread at \p hz (clamped to [0.1, 1000]); no-op if
  /// already running.
  void start(double hz = 10.0);

  /// Stops and joins the sampler thread; no-op if not running.
  void stop();

  [[nodiscard]] bool running() const;

  /// Snapshot of the collected series (thread-safe).
  [[nodiscard]] std::vector<ResourceSample> samples() const;

  /// Drops all collected samples (the thread, if running, keeps sampling).
  void clear();

  /// Caps the series length (>= 2); exceeding it triggers decimation.
  /// Mainly for tests exercising the overflow policy.
  void set_capacity(std::size_t max_samples);

  /// How many keep-every-other compactions have happened (tests).
  [[nodiscard]] std::uint64_t compactions() const;

  ResourceSampler(const ResourceSampler &) = delete;
  ResourceSampler &operator=(const ResourceSampler &) = delete;

private:
  ResourceSampler() = default;
  void run();
  void record_once();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
  double period_seconds_ = 0.1;
  std::size_t capacity_ = 1 << 16;
  std::uint64_t compactions_ = 0;
  std::vector<ResourceSample> samples_;
};

} // namespace ripples

#endif // RIPPLES_SUPPORT_MEMORY_HPP
