/// \file metrics.hpp
/// \brief Process-wide observability: counters, gauges, log-scale
/// histograms, and the structured per-execution RunReport.
///
/// The paper's evaluation hinges on quantified breakdowns — per-phase wall
/// time (Figs. 3-8), memory footprint (Table 2), and the O(k n lg p)
/// All-Reduce volume of the distributed selection (Sec. 3.2).  This module
/// is the substrate that makes those numbers machine-readable so every
/// optimization can prove its win:
///
///  * `Counter` / `Gauge` / `LogHistogram` — cheap thread-safe instruments,
///    owned by the process-wide `Registry` and addressed by name.
///  * `enabled()` — one relaxed atomic load; when metrics are off (the
///    default unless `RIPPLES_METRICS=1` or `set_enabled(true)`), hot-path
///    instrumentation reduces to a single predictable branch.
///  * `RunReport` — a structured record of one influence-maximization
///    execution (phase times, theta schedule, RRR-size histogram, storage
///    footprint, per-collective communication volume, seeds), serialized to
///    JSON.  See EXPERIMENTS.md for the schema.
///  * `report_log()` — process-wide collection point; when a report output
///    path is set (bench `--json-report`), every completed run lands there
///    and the file is written at exit.
#ifndef RIPPLES_SUPPORT_METRICS_HPP
#define RIPPLES_SUPPORT_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"
#include "support/timer.hpp"

namespace ripples::metrics {

namespace detail {
/// The global toggle.  Defined in metrics.cpp; initialized from the
/// RIPPLES_METRICS environment variable ("1", "true", "on" enable).
extern std::atomic<bool> g_enabled;
} // namespace detail

/// True when instrumentation should record.  One relaxed load — callers on
/// hot paths guard with this and skip the atomic update entirely when off.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the process-wide toggle (e.g. from a --json-report CLI flag).
void set_enabled(bool on);

/// Monotonically increasing event/byte counter.
class Counter {
public:
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void increment() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. current footprint bytes).
class Gauge {
public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to \p v if larger (peak tracking).
  void set_max(std::int64_t v) {
    std::int64_t current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v, std::memory_order_relaxed))
      ;
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> value_{0};
};

/// Snapshot of a log-scale histogram: bucket b counts values whose
/// floor(log2(value)) == b - 1 (bucket 0 counts zeros), i.e. bucket bounds
/// [0,0], [1,1], [2,3], [4,7], ... — the standard power-of-two layout that
/// resolves the heavy-tailed RRR-set size distribution in O(64) words.
struct HistogramData {
  static constexpr std::size_t kBuckets = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Bucket index for one value.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) {
    return value == 0 ? 0 : 64 - static_cast<std::size_t>(__builtin_clzll(value));
  }

  /// Inclusive lower bound of bucket \p b.
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// Inclusive upper bound of bucket \p b.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t b) {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) * 2 - 1;
  }

  void record(std::uint64_t value) {
    ++count;
    sum += value;
    if (value < min) min = value;
    if (value > max) max = value;
    ++buckets[bucket_of(value)];
  }

  void merge(const HistogramData &other) {
    count += other.count;
    sum += other.sum;
    if (other.count > 0) {
      if (other.min < min) min = other.min;
      if (other.max > max) max = other.max;
    }
    for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  }

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Serializes as {"count", "sum", "min", "max", "mean", "buckets": [
  /// {"lo", "hi", "count"}, ...]} with empty buckets omitted.
  void to_json(JsonWriter &w) const;
};

/// Thread-safe log-scale histogram (atomic twin of HistogramData).
class LogHistogram {
public:
  void record(std::uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    update_min(value);
    update_max(value);
    buckets_[HistogramData::bucket_of(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramData snapshot() const;
  void reset();

private:
  void update_min(std::uint64_t value) {
    std::uint64_t current = min_.load(std::memory_order_relaxed);
    while (value < current &&
           !min_.compare_exchange_weak(current, value, std::memory_order_relaxed))
      ;
  }
  void update_max(std::uint64_t value) {
    std::uint64_t current = max_.load(std::memory_order_relaxed);
    while (value > current &&
           !max_.compare_exchange_weak(current, value, std::memory_order_relaxed))
      ;
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, HistogramData::kBuckets> buckets_{};
};

/// Process-wide instrument registry.  Lookup creates on first use and
/// returns a reference that stays valid for the process lifetime, so hot
/// paths can cache it:
///
/// \code
///   static metrics::Counter &calls =
///       metrics::Registry::instance().counter("sampler.batches");
///   if (metrics::enabled()) calls.increment();
/// \endcode
class Registry {
public:
  static Registry &instance();

  Counter &counter(std::string_view name);
  Gauge &gauge(std::string_view name);
  LogHistogram &histogram(std::string_view name);

  /// Serializes every registered instrument as
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void to_json(JsonWriter &w) const;

  /// Zeroes every instrument (references stay valid).
  void reset();

  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

private:
  Registry() = default;
  struct Impl;
  Impl &impl() const;
};

/// Per-collective communication volume (filled from the mpsim counters).
struct CollectiveStats {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// One rank's phase accounting for one martingale round, recorded by the
/// RoundLedger (imm_core.hpp) and reduced into RunReport.rounds.  The
/// sample/select times are inclusive wall seconds; collective_wait_seconds
/// is the portion of both spent blocked in mpsim collectives, so per-rank
/// compute is (sample + select - collective_wait).
struct RoundEntry {
  std::uint32_t round = 0; ///< 1-based; estimation rounds then the final one.
  std::int32_t rank = 0;
  double sample_seconds = 0.0;
  double select_seconds = 0.0;
  double collective_wait_seconds = 0.0;
  std::uint64_t rrr_sets = 0;  ///< Rank-local sets held after the round.
  std::uint64_t rrr_bytes = 0; ///< Rank-local storage footprint bytes.
};

/// Load-imbalance factor of one round: max over ranks of per-rank compute
/// (sample + select - collective_wait, clamped at 0) divided by the median.
/// 1.0 for perfectly balanced or degenerate (<=1 rank, zero median) rounds.
[[nodiscard]] double round_imbalance_factor(const std::vector<RoundEntry> &ranks);

/// One tick of the background resource sampler (memory.hpp): logical
/// tracker bytes and kernel RSS on the shared process trace epoch.
struct MemorySample {
  double t_seconds = 0.0;
  std::uint64_t tracker_live_bytes = 0;
  std::uint64_t tracker_peak_bytes = 0;
  std::uint64_t rss_bytes = 0;
};

/// Per-thread collective-wait accounting: mpsim's rendezvous adds the
/// seconds a rank thread spends blocked in sync() (gated on enabled());
/// the martingale skeleton reads deltas at round boundaries.  Thread-local,
/// so concurrent ranks never contend.
[[nodiscard]] double thread_collective_wait_seconds();
void add_thread_collective_wait(double seconds);

/// Structured record of one influence-maximization execution — the
/// machine-readable sibling of the printf summaries.  Drivers always fill
/// it (the bookkeeping is negligible next to the run itself); only the
/// mpsim per-collective counters additionally require `metrics::enabled()`
/// because they sit on the communication hot path.
struct RunReport {
  /// v2: added "phase_starts_seconds" — per-phase first-entry offsets on the
  /// process trace epoch, so reports cross-reference trace timelines.
  /// v3: added "failed"/"failure_reason" — a run that died with an exception
  /// still lands in the log (partial, marked) instead of vanishing.
  /// v4: added "resumed_from" — the martingale round a checkpoint-resumed
  /// run re-entered at (null for fresh runs).
  /// v5: added "rounds" (per-round, per-rank phase accounting with derived
  /// imbalance factors), "storage.tracker_peak_bytes" /
  /// "storage.peak_rss_bytes", and the optional "memory_timeline" series
  /// from the background resource sampler.
  /// v6: added "degraded" / "epsilon_achieved" — the memory-budget
  /// governor's certified-early-stop outcome (DESIGN.md §12), plus
  /// "options.mem_budget" / "options.rrr_compress".
  /// v7: added "options.steal" / "options.steal_chunk" /
  /// "options.steal_skew" — the work-stealing sampler's placement knobs
  /// (DESIGN.md §13).
  /// v8: added "options.verify_collectives" / "options.scrub_rrr" — the
  /// end-to-end data-integrity knobs (DESIGN.md §14); their runtime
  /// activity lands in the "integrity.*" counter family.
  static constexpr std::uint32_t kSchemaVersion = 8;

  std::string driver;

  /// True for the partial report of a run an exception unwound; the other
  /// fields then hold whatever was recorded before the failure.
  bool failed = false;
  /// what() of the exception that killed the run (empty when !failed).
  std::string failure_reason;
  /// Martingale round a checkpoint resume re-entered at; -1 (serialized as
  /// null) for a fresh run.
  std::int64_t resumed_from = -1;

  // Experiment configuration.
  double epsilon = 0.0;
  std::uint32_t k = 0;
  std::string model;
  std::uint64_t seed = 0;
  unsigned num_threads = 1;
  int num_ranks = 1;
  std::string rng_mode;
  /// Enforced RRR reservation budget in bytes (0 = unlimited) and the
  /// compression policy ("auto"/"always"/"off") the run executed under.
  std::uint64_t mem_budget = 0;
  std::string rrr_compress;
  /// Work-stealing placement knobs (v7): inter-rank stealing ("off"/"on"),
  /// the chunk size in draws, and whether the skewed-partition benchmark
  /// knob was on (DESIGN.md §13).
  std::string steal;
  std::uint64_t steal_chunk = 0;
  bool steal_skew = false;
  /// Data-integrity knobs (v8): checksummed collectives and the RRR-store
  /// scrub mode ("off"/"on"/"paranoid"), DESIGN.md §14.
  bool verify_collectives = false;
  std::string scrub_rrr = "off";

  /// True when the memory budget forced a certified early stop (v6): the
  /// seeds are valid at accuracy epsilon_achieved rather than the
  /// requested epsilon (DESIGN.md §12).
  bool degraded = false;
  /// Accuracy certified by the samples actually generated; equals epsilon
  /// on a non-degraded run.
  double epsilon_achieved = 0.0;

  // Input shape.
  std::uint64_t graph_vertices = 0;
  std::uint64_t graph_edges = 0;

  // Phase wall-times (the paper's four categories) plus each phase's
  // first-entry offset on the process trace epoch (see
  // process_now_seconds()): "phases_seconds" answers how long,
  // "phase_starts_seconds" anchors *when*, so a report row can be matched
  // against the spans of a trace captured in the same process.
  PhaseTimers phases;

  // Theta estimation (Alg. 2).
  std::uint64_t theta = 0;
  std::uint32_t theta_iterations = 0;
  double lower_bound = 0.0;
  /// Sample-count target of every extend call, in execution order (the
  /// doubling schedule plus the final top-up when theta overshoots).
  std::vector<std::uint64_t> extend_targets;

  // Sampling (Alg. 3).
  std::uint64_t num_samples = 0;
  HistogramData rrr_sizes;

  // Storage (Table 2's metrics).  rrr_peak_bytes is the RRR-collection
  // footprint the driver itself tracked; tracker_peak_bytes/peak_rss_bytes
  // are the process-lifetime MemoryTracker peak and /proc VmHWM at report
  // time, filled for every driver by finalize_run_report.
  std::uint64_t rrr_peak_bytes = 0;
  std::uint64_t total_associations = 0;
  std::uint64_t tracker_peak_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;

  // Seed selection (Alg. 4).
  std::uint32_t selection_rounds = 0;
  std::uint64_t covered_samples = 0;
  std::uint64_t total_samples = 0;
  double coverage_fraction = 0.0;

  // Communication (Sec. 3.2): per-collective calls and payload bytes,
  // summed over ranks.  Empty for shared-memory drivers or when metrics
  // were disabled during the run.
  std::vector<CollectiveStats> collectives;

  /// Per-round, per-rank phase accounting (v5).  Entries arrive in ledger
  /// order; serialization groups them by round and derives the imbalance
  /// factor.  Empty when metrics were disabled during the run.
  std::vector<RoundEntry> rounds;

  /// Background resource-sampler series (v5); empty unless --profile-mem.
  std::vector<MemorySample> memory_timeline;

  std::vector<std::uint64_t> seeds;

  void to_json(JsonWriter &w) const;
  [[nodiscard]] std::string to_json_string() const;

  /// Writes the report as a standalone JSON document; false on I/O failure.
  bool write_json_file(const std::string &path) const;
};

/// Process-wide collection of completed run reports (thread-safe).
class ReportLog {
public:
  void add(const RunReport &report);
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Writes {"schema_version", "reports": [...], "registry": {...}}.
  bool write_json_file(const std::string &path) const;

private:
  friend ReportLog &report_log();
  ReportLog() = default;
  struct Impl;
  Impl &impl() const;
};

ReportLog &report_log();

/// Arms end-of-process report emission: enables metrics and registers an
/// atexit hook that writes the accumulated report log to \p path.  This is
/// what bench binaries call for `--json-report`.
void write_reports_at_exit(const std::string &path);

/// Appends a failed-run marker report for \p driver (failure_reason =
/// \p reason) to the process report log.  Drivers' exception handlers call
/// this so a crashed run leaves a diagnosable record next to any completed
/// runs instead of losing the log entirely.
void mark_run_failed(const std::string &driver, const std::string &reason);

/// Writes the report log to the path armed by write_reports_at_exit()
/// immediately (true on success or when no path is armed).  atexit hooks do
/// not run when an uncaught exception terminates the process, so failure
/// paths flush explicitly before unwinding further.
bool flush_reports_now();

} // namespace ripples::metrics

#endif // RIPPLES_SUPPORT_METRICS_HPP
