// Tests for the metrics subsystem: instrument semantics, the JSON
// writer/parser pair, the registry, and the RunReport schema every driver
// emits (validated by running real drivers and parsing their reports back).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace ripples {
namespace {

/// RAII toggle so a failing assertion cannot leak the enabled state into
/// other tests.
struct ScopedMetrics {
  explicit ScopedMetrics(bool on) { metrics::set_enabled(on); }
  ~ScopedMetrics() { metrics::set_enabled(false); }
};

// --- JSON writer -------------------------------------------------------------------

TEST(JsonWriter, EmitsNestedStructuresWithCorrectCommas) {
  JsonWriter w;
  w.begin_object();
  w.member("name", "imm");
  w.key("phases");
  w.begin_array();
  w.value(0.5);
  w.value(std::uint64_t{7});
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.member("flag", true);
  w.key("absent");
  w.null();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"name\":\"imm\",\"phases\":[0.5,7],"
                     "\"nested\":{\"flag\":true,\"absent\":null}}");
}

TEST(JsonWriter, EscapesStringsAndHandlesNonFiniteNumbers) {
  JsonWriter w;
  w.begin_object();
  w.member("text", "a\"b\\c\nd\te");
  w.member("ctrl", std::string_view("\x01", 1));
  w.member("inf", std::numeric_limits<double>::infinity());
  w.member("nan", std::nan(""));
  w.end_object();
  const std::string &text = w.str();
  EXPECT_NE(text.find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(text.find("\"nan\":null"), std::string::npos);
}

TEST(JsonWriter, OutputRoundTripsThroughTheParser) {
  JsonWriter w;
  w.begin_object();
  w.member("driver", "imm \"quoted\" \\ path\n");
  w.member("theta", std::uint64_t{123456789012345ULL});
  w.member("negative", std::int64_t{-42});
  w.member("pi", 3.25);
  w.member("flag", false);
  w.key("list");
  w.begin_array();
  w.value(std::uint32_t{1});
  w.value(std::uint32_t{2});
  w.end_array();
  w.end_object();

  auto parsed = JsonValue::parse(w.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->find("driver")->string, "imm \"quoted\" \\ path\n");
  EXPECT_EQ(parsed->find("theta")->number, 123456789012345.0);
  EXPECT_EQ(parsed->find("negative")->number, -42.0);
  EXPECT_EQ(parsed->find("pi")->number, 3.25);
  EXPECT_FALSE(parsed->find("flag")->boolean);
  ASSERT_EQ(parsed->find("list")->array.size(), 2u);
  EXPECT_EQ(parsed->find("list")->array[1].number, 2.0);
}

// --- JSON parser -------------------------------------------------------------------

TEST(JsonParser, AcceptsStandardDocuments) {
  auto v = JsonValue::parse(R"( {"a": [1, 2.5, -3e2], "b": {"c": null},
                                 "s": "xAy", "t": true} )");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("a")->array[2].number, -300.0);
  EXPECT_TRUE(v->find("b")->find("c")->is_null());
  EXPECT_EQ(v->find("s")->string, "xAy");
  EXPECT_TRUE(v->find("t")->boolean);
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\": 1,}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1 2]").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("tru").has_value());
}

// --- instruments -------------------------------------------------------------------

TEST(Metrics, CounterAccumulatesAcrossThreads) {
  metrics::Counter counter;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) counter.increment();
    });
  for (std::thread &worker : workers) worker.join();
  EXPECT_EQ(counter.value(), 4000u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Metrics, GaugeTracksLastAndPeak) {
  metrics::Gauge gauge;
  gauge.set(10);
  gauge.set(-3);
  EXPECT_EQ(gauge.value(), -3);
  gauge.set_max(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.set_max(2); // lower: no change
  EXPECT_EQ(gauge.value(), 7);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo) {
  using H = metrics::HistogramData;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(1023), 10u);
  EXPECT_EQ(H::bucket_of(1024), 11u);
  for (std::size_t b = 1; b < 20; ++b) {
    EXPECT_EQ(H::bucket_of(H::bucket_lower(b)), b);
    EXPECT_EQ(H::bucket_of(H::bucket_upper(b)), b);
  }
}

TEST(Metrics, HistogramRecordsAndMerges) {
  metrics::HistogramData a;
  a.record(0);
  a.record(5);
  a.record(5);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 10u);
  EXPECT_EQ(a.min, 0u);
  EXPECT_EQ(a.max, 5u);
  EXPECT_DOUBLE_EQ(a.mean(), 10.0 / 3.0);

  metrics::HistogramData b;
  b.record(100);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.max, 100u);
  a.merge(metrics::HistogramData{}); // empty merge: min/max unchanged
  EXPECT_EQ(a.min, 0u);

  metrics::LogHistogram atomic_h;
  atomic_h.record(0);
  atomic_h.record(5);
  atomic_h.record(5);
  atomic_h.record(100);
  metrics::HistogramData snap = atomic_h.snapshot();
  EXPECT_EQ(snap.count, a.count);
  EXPECT_EQ(snap.sum, a.sum);
  EXPECT_EQ(snap.buckets, a.buckets);
}

TEST(Metrics, RegistryReturnsStableReferencesByName) {
  metrics::Registry &registry = metrics::Registry::instance();
  metrics::Counter &first = registry.counter("test.registry.counter");
  first.add(3);
  metrics::Counter &second = registry.counter("test.registry.counter");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.value(), 3u);

  registry.gauge("test.registry.gauge").set(9);
  registry.histogram("test.registry.hist").record(17);

  JsonWriter w;
  registry.to_json(w);
  auto parsed = JsonValue::parse(w.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("counters")->find("test.registry.counter")->number,
            3.0);
  EXPECT_EQ(parsed->find("gauges")->find("test.registry.gauge")->number, 9.0);
  EXPECT_EQ(
      parsed->find("histograms")->find("test.registry.hist")->find("count")->number,
      1.0);

  first.reset();
}

// --- run reports -------------------------------------------------------------------

CsrGraph report_test_graph() {
  CsrGraph graph(barabasi_albert(300, 2, 1));
  assign_uniform_weights(graph, 2);
  return graph;
}

ImmOptions report_test_options() {
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 5;
  options.seed = 2019;
  return options;
}

/// Asserts the presence and basic shape of every top-level schema section.
void check_report_schema(const JsonValue &report, const char *driver) {
  EXPECT_EQ(report.find("schema_version")->number,
            static_cast<double>(metrics::RunReport::kSchemaVersion));
  EXPECT_EQ(report.find("driver")->string, driver);

  const JsonValue *options = report.find("options");
  ASSERT_NE(options, nullptr);
  EXPECT_EQ(options->find("k")->number, 5.0);
  EXPECT_EQ(options->find("epsilon")->number, 0.5);
  EXPECT_EQ(options->find("model")->string, "IC");
  EXPECT_EQ(options->find("rng_mode"), nullptr); // removed in v9

  const JsonValue *graph = report.find("graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->find("vertices")->number, 300.0);
  EXPECT_GT(graph->find("edges")->number, 0.0);

  const JsonValue *phases = report.find("phases_seconds");
  ASSERT_NE(phases, nullptr);
  for (const char *phase :
       {"estimate_theta", "sample", "select_seeds", "other", "total"})
    ASSERT_NE(phases->find(phase), nullptr) << phase;
  EXPECT_GT(phases->find("estimate_theta")->number, 0.0);

  // v2: per-phase first-entry offsets on the process trace epoch; null for
  // phases the run never entered.  EstimateTheta always runs, and offsets
  // are monotone in phase order when present.
  const JsonValue *starts = report.find("phase_starts_seconds");
  ASSERT_NE(starts, nullptr);
  for (const char *phase : {"estimate_theta", "sample", "select_seeds", "other"})
    ASSERT_NE(starts->find(phase), nullptr) << phase;
  const JsonValue *estimate_start = starts->find("estimate_theta");
  ASSERT_FALSE(estimate_start->is_null());
  EXPECT_GE(estimate_start->number, 0.0);
  const JsonValue *select_start = starts->find("select_seeds");
  ASSERT_FALSE(select_start->is_null());
  EXPECT_GE(select_start->number, estimate_start->number);

  const JsonValue *theta = report.find("theta");
  ASSERT_NE(theta, nullptr);
  EXPECT_GE(theta->find("value")->number, 1.0);
  EXPECT_GE(theta->find("iterations")->number, 1.0);
  EXPECT_GE(theta->find("lower_bound")->number, 1.0);
  ASSERT_TRUE(theta->find("extend_targets")->is_array());
  EXPECT_GE(theta->find("extend_targets")->array.size(),
            static_cast<std::size_t>(theta->find("iterations")->number));

  const JsonValue *samples = report.find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_GE(samples->find("generated")->number, theta->find("value")->number);
  const JsonValue *histogram = samples->find("size_histogram");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->find("count")->number, samples->find("generated")->number);
  EXPECT_FALSE(histogram->find("buckets")->array.empty());

  const JsonValue *storage = report.find("storage");
  ASSERT_NE(storage, nullptr);
  EXPECT_GT(storage->find("rrr_peak_bytes")->number, 0.0);
  EXPECT_GT(storage->find("total_associations")->number, 0.0);
  // v5: process-wide memory view for every driver.
  ASSERT_NE(storage->find("tracker_peak_bytes"), nullptr);
  ASSERT_NE(storage->find("peak_rss_bytes"), nullptr);
  EXPECT_GT(storage->find("peak_rss_bytes")->number, 0.0);

  // v5: the per-round ledger and memory timeline are always present as
  // arrays (empty when metrics are disabled or no sampler ran).
  ASSERT_NE(report.find("rounds"), nullptr);
  ASSERT_TRUE(report.find("rounds")->is_array());
  ASSERT_NE(report.find("memory_timeline"), nullptr);
  ASSERT_TRUE(report.find("memory_timeline")->is_array());

  const JsonValue *selection = report.find("selection");
  ASSERT_NE(selection, nullptr);
  EXPECT_EQ(selection->find("rounds")->number, 5.0);
  EXPECT_GT(selection->find("covered_samples")->number, 0.0);
  EXPECT_GT(selection->find("total_samples")->number, 0.0);
  EXPECT_GT(selection->find("coverage_fraction")->number, 0.0);

  ASSERT_NE(report.find("mpsim"), nullptr);
  ASSERT_TRUE(report.find("seeds")->is_array());
  EXPECT_EQ(report.find("seeds")->array.size(), 5u);
}

TEST(RunReport, SequentialDriverEmitsTheFullSchema) {
  ImmResult result = imm_sequential(report_test_graph(), report_test_options());
  auto parsed = JsonValue::parse(result.report.to_json_string());
  ASSERT_TRUE(parsed.has_value());
  check_report_schema(*parsed, "imm_sequential");
  // Shared-memory driver: no collective traffic.
  EXPECT_TRUE(parsed->find("mpsim")->object.empty());
}

TEST(RunReport, DistributedDriverReportsCollectiveTraffic) {
  ScopedMetrics on(true);
  ImmOptions options = report_test_options();
  options.num_ranks = 2;
  ImmResult result = imm_distributed(report_test_graph(), options);
  auto parsed = JsonValue::parse(result.report.to_json_string());
  ASSERT_TRUE(parsed.has_value());
  check_report_schema(*parsed, "imm_distributed");

  // Sec. 3.2: the allreduce dominates — it must show up with real volume.
  const JsonValue *allreduce = parsed->find("mpsim")->find("allreduce");
  ASSERT_NE(allreduce, nullptr);
  EXPECT_GT(allreduce->find("calls")->number, 0.0);
  EXPECT_GT(allreduce->find("bytes")->number, 0.0);
}

TEST(RunReport, WriteJsonFileProducesAParseableDocument) {
  ImmResult result = imm_sequential(report_test_graph(), report_test_options());
  const std::string path = ::testing::TempDir() + "metrics_run_report.json";
  ASSERT_TRUE(result.report.write_json_file(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::parse(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  check_report_schema(*parsed, "imm_sequential");
  std::remove(path.c_str());
}

TEST(RunReport, ReportLogCollectsRunsWhenEnabled) {
  ScopedMetrics on(true);
  metrics::report_log().clear();
  (void)imm_sequential(report_test_graph(), report_test_options());
  (void)imm_sequential(report_test_graph(), report_test_options());
  EXPECT_EQ(metrics::report_log().size(), 2u);

  const std::string path = ::testing::TempDir() + "metrics_report_log.json";
  ASSERT_TRUE(metrics::report_log().write_json_file(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::parse(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->find("reports")->array.size(), 2u);
  check_report_schema(parsed->find("reports")->array[0], "imm_sequential");
  ASSERT_NE(parsed->find("registry"), nullptr);
  // The sampler counter runs through the registry when metrics are on.
  const JsonValue *generated =
      parsed->find("registry")->find("counters")->find("sampler.samples_generated");
  ASSERT_NE(generated, nullptr);
  EXPECT_GT(generated->number, 0.0);

  metrics::report_log().clear();
  std::remove(path.c_str());
}

TEST(RunReport, DisabledMetricsSkipTheReportLog) {
  metrics::set_enabled(false);
  metrics::report_log().clear();
  ImmResult result = imm_sequential(report_test_graph(), report_test_options());
  EXPECT_EQ(metrics::report_log().size(), 0u);
  // The in-result report is still fully populated.
  EXPECT_FALSE(result.report.driver.empty());
  EXPECT_GT(result.report.rrr_sizes.count, 0u);
}

// --- round ledger (schema v5) -------------------------------------------------

TEST(RoundLedger, ImbalanceFactorIsMaxOverMedianOfCompute) {
  using metrics::RoundEntry;
  auto entry = [](double sample, double select, double wait) {
    RoundEntry e;
    e.sample_seconds = sample;
    e.select_seconds = select;
    e.collective_wait_seconds = wait;
    return e;
  };
  // Degenerate inputs read as balanced.
  EXPECT_DOUBLE_EQ(metrics::round_imbalance_factor({}), 1.0);
  EXPECT_DOUBLE_EQ(metrics::round_imbalance_factor({entry(1, 1, 0)}), 1.0);
  // Two ranks: lower median = min, so the factor is max/min, not 1.0.
  EXPECT_DOUBLE_EQ(
      metrics::round_imbalance_factor({entry(1, 0, 0), entry(3, 0, 0)}), 3.0);
  // Compute excludes the time spent waiting in collectives.
  EXPECT_DOUBLE_EQ(metrics::round_imbalance_factor(
                       {entry(2, 2, 2), entry(4, 2, 0)}),
                   3.0);
  // Perfectly balanced ranks read exactly 1.
  EXPECT_DOUBLE_EQ(metrics::round_imbalance_factor(
                       {entry(1, 1, 0), entry(1, 1, 0), entry(1, 1, 0)}),
                   1.0);
  // Wait exceeding the recorded phases clamps to zero compute; a zero
  // median yields the balanced sentinel instead of infinity.
  EXPECT_DOUBLE_EQ(metrics::round_imbalance_factor(
                       {entry(0, 0, 5), entry(1, 0, 5)}),
                   1.0);
}

TEST(RoundLedger, SerializationGroupsRanksByRoundWithImbalance) {
  metrics::RunReport report;
  report.driver = "test";
  auto entry = [](std::uint32_t round, std::int32_t rank, double sample) {
    metrics::RoundEntry e;
    e.round = round;
    e.rank = rank;
    e.sample_seconds = sample;
    e.select_seconds = 0.5;
    e.collective_wait_seconds = 0.25;
    e.rrr_sets = 100 + rank;
    e.rrr_bytes = 1000 + rank;
    return e;
  };
  // Appended in completion order: both ranks' round 1, then round 2.
  report.rounds = {entry(1, 0, 1.0), entry(1, 1, 3.25), entry(2, 0, 2.0),
                   entry(2, 1, 2.0)};
  report.memory_timeline = {{0.5, 111, 222, 333}, {1.0, 444, 555, 666}};

  auto parsed = JsonValue::parse(report.to_json_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema_version")->number,
            static_cast<double>(metrics::RunReport::kSchemaVersion));

  const JsonValue *rounds = parsed->find("rounds");
  ASSERT_NE(rounds, nullptr);
  ASSERT_EQ(rounds->array.size(), 2u);

  const JsonValue &first = rounds->array[0];
  EXPECT_EQ(first.find("round")->number, 1.0);
  // Rank 0 computes 1.0+0.5-0.25 = 1.25, rank 1 computes 3.25+0.5-0.25 =
  // 3.5; two ranks -> lower median = 1.25, factor = 2.8.
  EXPECT_DOUBLE_EQ(first.find("imbalance_factor")->number, 2.8);
  ASSERT_EQ(first.find("per_rank")->array.size(), 2u);
  const JsonValue &rank0 = first.find("per_rank")->array[0];
  EXPECT_EQ(rank0.find("rank")->number, 0.0);
  EXPECT_EQ(rank0.find("sample_seconds")->number, 1.0);
  EXPECT_EQ(rank0.find("select_seconds")->number, 0.5);
  EXPECT_EQ(rank0.find("collective_wait_seconds")->number, 0.25);
  EXPECT_EQ(rank0.find("rrr_sets")->number, 100.0);
  EXPECT_EQ(rank0.find("rrr_bytes")->number, 1000.0);

  const JsonValue &second = rounds->array[1];
  EXPECT_EQ(second.find("round")->number, 2.0);
  EXPECT_DOUBLE_EQ(second.find("imbalance_factor")->number, 1.0);

  const JsonValue *timeline = parsed->find("memory_timeline");
  ASSERT_NE(timeline, nullptr);
  ASSERT_EQ(timeline->array.size(), 2u);
  EXPECT_EQ(timeline->array[0].find("t_seconds")->number, 0.5);
  EXPECT_EQ(timeline->array[0].find("tracker_live_bytes")->number, 111.0);
  EXPECT_EQ(timeline->array[1].find("tracker_peak_bytes")->number, 555.0);
  EXPECT_EQ(timeline->array[1].find("rss_bytes")->number, 666.0);
}

TEST(RoundLedger, SequentialDriverLedgersEveryRoundWhenEnabled) {
  ScopedMetrics on(true);
  ImmResult result = imm_sequential(report_test_graph(), report_test_options());
  ASSERT_FALSE(result.report.rounds.empty());
  // One entry per estimation round plus the final extend+select round, all
  // rank 0, in chronological order, each with the storage probe attached.
  std::uint32_t expected_rounds = result.report.theta_iterations + 1;
  EXPECT_EQ(result.report.rounds.size(), expected_rounds);
  std::uint32_t previous = 0;
  for (const metrics::RoundEntry &entry : result.report.rounds) {
    EXPECT_EQ(entry.rank, 0);
    EXPECT_GT(entry.round, previous);
    previous = entry.round;
    EXPECT_GT(entry.rrr_sets, 0u);
    EXPECT_GT(entry.rrr_bytes, 0u);
    EXPECT_GE(entry.sample_seconds, 0.0);
    EXPECT_GE(entry.select_seconds, 0.0);
    EXPECT_EQ(entry.collective_wait_seconds, 0.0); // no collectives here
  }
  // The final round holds every generated sample.
  EXPECT_EQ(result.report.rounds.back().rrr_sets, result.num_samples);
}

TEST(RoundLedger, DistributedDriverLedgersEveryRankWithWait) {
  ScopedMetrics on(true);
  ImmOptions options = report_test_options();
  options.num_ranks = 3;
  ImmResult result = imm_distributed(report_test_graph(), options);
  ASSERT_FALSE(result.report.rounds.empty());

  std::map<std::uint32_t, std::set<std::int32_t>> ranks_per_round;
  double total_wait = 0.0;
  for (const metrics::RoundEntry &entry : result.report.rounds) {
    ranks_per_round[entry.round].insert(entry.rank);
    total_wait += entry.collective_wait_seconds;
  }
  // Every round was recorded by all three ranks — the reduction over ranks
  // at round boundaries lost nobody.
  for (const auto &[round, ranks] : ranks_per_round)
    EXPECT_EQ(ranks.size(), 3u) << "round " << round;
  // The martingale runs at least one estimation round plus the final.
  EXPECT_GE(ranks_per_round.size(), 2u);
  // Collectives ran, so somebody waited.
  EXPECT_GT(total_wait, 0.0);

  // The serialized form carries one imbalance factor per round group.
  auto parsed = JsonValue::parse(result.report.to_json_string());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue *rounds = parsed->find("rounds");
  ASSERT_EQ(rounds->array.size(), ranks_per_round.size());
  for (const JsonValue &group : rounds->array)
    EXPECT_GE(group.find("imbalance_factor")->number, 1.0);
}

TEST(RoundLedger, DisabledMetricsRecordNoRounds) {
  metrics::set_enabled(false);
  ImmOptions options = report_test_options();
  options.num_ranks = 2;
  ImmResult result = imm_distributed(report_test_graph(), options);
  EXPECT_TRUE(result.report.rounds.empty());
}

} // namespace
} // namespace ripples
