#include "support/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

namespace ripples::metrics {

namespace {

bool env_enabled() {
  const char *env = std::getenv("RIPPLES_METRICS");
  if (env == nullptr) return false;
  std::string_view v(env);
  return v == "1" || v == "true" || v == "on" || v == "yes";
}

} // namespace

namespace detail {
std::atomic<bool> g_enabled{env_enabled()};
} // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

// --- collective-wait accounting ---------------------------------------------

namespace {
thread_local double t_collective_wait_seconds = 0.0;
} // namespace

double thread_collective_wait_seconds() { return t_collective_wait_seconds; }

void add_thread_collective_wait(double seconds) {
  t_collective_wait_seconds += seconds;
}

// --- RoundEntry -------------------------------------------------------------

double round_imbalance_factor(const std::vector<RoundEntry> &ranks) {
  if (ranks.size() < 2) return 1.0;
  std::vector<double> compute;
  compute.reserve(ranks.size());
  for (const RoundEntry &entry : ranks)
    compute.push_back(std::max(0.0, entry.sample_seconds +
                                        entry.select_seconds -
                                        entry.collective_wait_seconds));
  std::sort(compute.begin(), compute.end());
  // Lower median for even counts, so a 2-rank round reads max/min instead
  // of the degenerate max/max = 1.
  double median = compute[(compute.size() - 1) / 2];
  double max = compute.back();
  if (median <= 0.0) return 1.0;
  return max / median;
}

// --- HistogramData ----------------------------------------------------------

void HistogramData::to_json(JsonWriter &w) const {
  w.begin_object();
  w.member("count", count);
  w.member("sum", sum);
  w.member("min", count == 0 ? std::uint64_t{0} : min);
  w.member("max", max);
  w.member("mean", mean());
  w.key("buckets");
  w.begin_array();
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    w.begin_object();
    w.member("lo", bucket_lower(b));
    w.member("hi", bucket_upper(b));
    w.member("count", buckets[b]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// --- LogHistogram -----------------------------------------------------------

HistogramData LogHistogram::snapshot() const {
  HistogramData data;
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = sum_.load(std::memory_order_relaxed);
  data.min = min_.load(std::memory_order_relaxed);
  data.max = max_.load(std::memory_order_relaxed);
  for (std::size_t b = 0; b < HistogramData::kBuckets; ++b)
    data.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  return data;
}

void LogHistogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<std::uint64_t>::max(),
             std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto &b : buckets_) b.store(0, std::memory_order_relaxed);
}

// --- Registry ---------------------------------------------------------------

// std::map keeps instrument addresses stable is not enough on its own (the
// mapped type could move); unique_ptr makes references permanent, and the
// ordered map gives deterministic JSON output.
struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>> histograms;
};

Registry &Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Impl &Registry::impl() const {
  // Intentionally leaked: the instruments are usually first touched after
  // write_reports_at_exit() has registered its atexit hook, so a static
  // Impl would be destroyed before that hook runs and the flush would walk
  // freed maps.  Process-lifetime state has no destruction order to get
  // wrong.
  static Impl *impl = new Impl;
  return *impl;
}

Counter &Registry::counter(std::string_view name) {
  Impl &state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.counters.find(name);
  if (it == state.counters.end())
    it = state.counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge &Registry::gauge(std::string_view name) {
  Impl &state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.gauges.find(name);
  if (it == state.gauges.end())
    it = state.gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  return *it->second;
}

LogHistogram &Registry::histogram(std::string_view name) {
  Impl &state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.histograms.find(name);
  if (it == state.histograms.end())
    it = state.histograms
             .emplace(std::string(name), std::make_unique<LogHistogram>())
             .first;
  return *it->second;
}

void Registry::to_json(JsonWriter &w) const {
  Impl &state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto &[name, counter] : state.counters)
    w.member(name, counter->value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto &[name, gauge] : state.gauges)
    w.member(name, static_cast<std::int64_t>(gauge->value()));
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto &[name, histogram] : state.histograms) {
    w.key(name);
    histogram->snapshot().to_json(w);
  }
  w.end_object();
  w.end_object();
}

void Registry::reset() {
  Impl &state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto &[name, counter] : state.counters) counter->reset();
  for (auto &[name, gauge] : state.gauges) gauge->reset();
  for (auto &[name, histogram] : state.histograms) histogram->reset();
}

// --- RunReport --------------------------------------------------------------

void RunReport::to_json(JsonWriter &w) const {
  w.begin_object();
  w.member("schema_version", kSchemaVersion);
  w.member("driver", driver);
  w.member("failed", failed);
  if (failed) w.member("failure_reason", failure_reason);
  w.member("degraded", degraded);
  w.member("epsilon_achieved", epsilon_achieved);
  w.key("resumed_from");
  if (resumed_from < 0)
    w.null();
  else
    w.value(resumed_from);

  w.key("options");
  w.begin_object();
  w.member("epsilon", epsilon);
  w.member("k", k);
  w.member("model", model);
  w.member("seed", seed);
  w.member("threads", static_cast<std::uint64_t>(num_threads));
  w.member("ranks", static_cast<std::int64_t>(num_ranks));
  w.member("mem_budget", mem_budget);
  w.member("rrr_compress", rrr_compress);
  w.member("steal", steal);
  w.member("steal_chunk", steal_chunk);
  w.member("steal_skew", steal_skew);
  w.member("verify_collectives", verify_collectives);
  w.member("scrub_rrr", scrub_rrr);
  w.end_object();

  w.key("graph");
  w.begin_object();
  w.member("vertices", graph_vertices);
  w.member("edges", graph_edges);
  w.end_object();

  w.key("phases_seconds");
  w.begin_object();
  w.member("estimate_theta", phases.total(Phase::EstimateTheta));
  w.member("sample", phases.total(Phase::Sample));
  w.member("select_seeds", phases.total(Phase::SelectSeeds));
  w.member("other", phases.total(Phase::Other));
  w.member("total", phases.total());
  w.end_object();

  // First-entry offsets on the process trace epoch; null when the phase was
  // never entered (e.g. "Sample" when estimation overshot theta, or the
  // residual "Other" bucket which has no scope of its own).
  w.key("phase_starts_seconds");
  w.begin_object();
  auto start_member = [&](const char *name, Phase phase) {
    w.key(name);
    double offset = phases.start_offset(phase);
    if (offset < 0.0)
      w.null();
    else
      w.value(offset);
  };
  start_member("estimate_theta", Phase::EstimateTheta);
  start_member("sample", Phase::Sample);
  start_member("select_seeds", Phase::SelectSeeds);
  start_member("other", Phase::Other);
  w.end_object();

  w.key("theta");
  w.begin_object();
  w.member("value", theta);
  w.member("iterations", theta_iterations);
  w.member("lower_bound", lower_bound);
  w.key("extend_targets");
  w.begin_array();
  for (std::uint64_t target : extend_targets) w.value(target);
  w.end_array();
  w.end_object();

  w.key("samples");
  w.begin_object();
  w.member("generated", num_samples);
  w.key("size_histogram");
  rrr_sizes.to_json(w);
  w.end_object();

  w.key("storage");
  w.begin_object();
  w.member("rrr_peak_bytes", rrr_peak_bytes);
  w.member("total_associations", total_associations);
  w.member("tracker_peak_bytes", tracker_peak_bytes);
  w.member("peak_rss_bytes", peak_rss_bytes);
  w.end_object();

  w.key("selection");
  w.begin_object();
  w.member("rounds", selection_rounds);
  w.member("covered_samples", covered_samples);
  w.member("total_samples", total_samples);
  w.member("coverage_fraction", coverage_fraction);
  w.end_object();

  w.key("mpsim");
  w.begin_object();
  for (const CollectiveStats &c : collectives) {
    w.key(c.name);
    w.begin_object();
    w.member("calls", c.calls);
    w.member("bytes", c.bytes);
    w.end_object();
  }
  w.end_object();

  // Per-round accounting, grouped by round in first-appearance order (the
  // ledger appends rounds as they complete, so that is chronological); each
  // group carries its derived imbalance factor.
  w.key("rounds");
  w.begin_array();
  {
    std::vector<std::uint32_t> order;
    for (const RoundEntry &entry : rounds)
      if (std::find(order.begin(), order.end(), entry.round) == order.end())
        order.push_back(entry.round);
    for (std::uint32_t round : order) {
      std::vector<RoundEntry> ranks;
      for (const RoundEntry &entry : rounds)
        if (entry.round == round) ranks.push_back(entry);
      w.begin_object();
      w.member("round", round);
      w.member("imbalance_factor", round_imbalance_factor(ranks));
      w.key("per_rank");
      w.begin_array();
      for (const RoundEntry &entry : ranks) {
        w.begin_object();
        w.member("rank", static_cast<std::int64_t>(entry.rank));
        w.member("sample_seconds", entry.sample_seconds);
        w.member("select_seconds", entry.select_seconds);
        w.member("collective_wait_seconds", entry.collective_wait_seconds);
        w.member("rrr_sets", entry.rrr_sets);
        w.member("rrr_bytes", entry.rrr_bytes);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
  }
  w.end_array();

  w.key("memory_timeline");
  w.begin_array();
  for (const MemorySample &sample : memory_timeline) {
    w.begin_object();
    w.member("t_seconds", sample.t_seconds);
    w.member("tracker_live_bytes", sample.tracker_live_bytes);
    w.member("tracker_peak_bytes", sample.tracker_peak_bytes);
    w.member("rss_bytes", sample.rss_bytes);
    w.end_object();
  }
  w.end_array();

  w.key("seeds");
  w.begin_array();
  for (std::uint64_t s : seeds) w.value(s);
  w.end_array();

  w.end_object();
}

std::string RunReport::to_json_string() const {
  JsonWriter w;
  to_json(w);
  return w.str();
}

bool RunReport::write_json_file(const std::string &path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json_string() << "\n";
  return static_cast<bool>(out);
}

// --- ReportLog --------------------------------------------------------------

struct ReportLog::Impl {
  mutable std::mutex mutex;
  std::vector<RunReport> reports;
};

ReportLog &report_log() {
  static ReportLog log;
  return log;
}

ReportLog::Impl &ReportLog::impl() const {
  // Intentionally leaked — same atexit ordering constraint as
  // Registry::impl().
  static Impl *impl = new Impl;
  return *impl;
}

void ReportLog::add(const RunReport &report) {
  Impl &state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.reports.push_back(report);
}

std::size_t ReportLog::size() const {
  Impl &state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.reports.size();
}

void ReportLog::clear() {
  Impl &state = impl();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.reports.clear();
}

bool ReportLog::write_json_file(const std::string &path) const {
  Impl &state = impl();
  JsonWriter w;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    w.begin_object();
    w.member("schema_version", RunReport::kSchemaVersion);
    w.key("reports");
    w.begin_array();
    for (const RunReport &report : state.reports) report.to_json(w);
    w.end_array();
    w.key("registry");
    Registry::instance().to_json(w);
    w.end_object();
  }
  std::ofstream out(path);
  if (!out) return false;
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

// --- end-of-process emission ------------------------------------------------

namespace {

std::string &report_output_path() {
  static std::string path;
  return path;
}

void flush_reports_at_exit() {
  const std::string &path = report_output_path();
  if (path.empty()) return;
  if (!report_log().write_json_file(path))
    std::fprintf(stderr, "[metrics] failed to write report log to %s\n",
                 path.c_str());
}

} // namespace

void write_reports_at_exit(const std::string &path) {
  set_enabled(true);
  static bool registered = false;
  report_output_path() = path;
  if (!registered) {
    registered = true;
    std::atexit(flush_reports_at_exit);
  }
}

void mark_run_failed(const std::string &driver, const std::string &reason) {
  RunReport report;
  report.driver = driver;
  report.failed = true;
  report.failure_reason = reason;
  report_log().add(report);
}

bool flush_reports_now() {
  const std::string &path = report_output_path();
  if (path.empty()) return true;
  if (report_log().write_json_file(path)) return true;
  std::fprintf(stderr, "[metrics] failed to write report log to %s\n",
               path.c_str());
  return false;
}

} // namespace ripples::metrics
