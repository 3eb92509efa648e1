// Tests for the span tracer: Chrome trace-event JSON schema, span nesting,
// rank/thread identity, concurrent emission, the ring-buffer overflow
// policy, and full-stack coverage when real drivers run under tracing.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "imm/imm.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace ripples {
namespace {

/// RAII harness: every test starts from an empty, enabled (or disabled)
/// tracer and leaves it disabled and empty, with the default ring capacity
/// restored, so no state leaks across tests.
struct ScopedTrace {
  explicit ScopedTrace(bool on = true) {
    trace::clear();
    trace::set_enabled(on);
  }
  ~ScopedTrace() {
    trace::set_enabled(false);
    trace::clear();
    trace::set_buffer_capacity(std::size_t{1} << 15);
  }
};

JsonValue parse_trace() {
  auto parsed = JsonValue::parse(trace::to_json_string());
  EXPECT_TRUE(parsed.has_value());
  return parsed.value_or(JsonValue{});
}

/// Non-metadata events (the actual samples; "M" entries carry names only).
std::vector<const JsonValue *> data_events(const JsonValue &doc) {
  std::vector<const JsonValue *> events;
  for (const JsonValue &event : doc.find("traceEvents")->array)
    if (event.find("ph")->string != "M") events.push_back(&event);
  return events;
}

const JsonValue *find_event(const JsonValue &doc, const std::string &name) {
  for (const JsonValue *event : data_events(doc))
    if (event->find("name")->string == name) return event;
  return nullptr;
}

/// Asserts one document is structurally valid Chrome trace-event JSON.
void check_trace_schema(const JsonValue &doc) {
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
  ASSERT_NE(doc.find("otherData"), nullptr);
  ASSERT_NE(doc.find("otherData")->find("dropped_events"), nullptr);
  const JsonValue *events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  for (const JsonValue &event : events->array) {
    ASSERT_TRUE(event.is_object());
    ASSERT_NE(event.find("name"), nullptr);
    const JsonValue *ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string &code = ph->string;
    ASSERT_TRUE(code == "X" || code == "i" || code == "C" || code == "M" ||
                code == "s" || code == "t" || code == "f")
        << code;
    ASSERT_NE(event.find("pid"), nullptr);
    if (code == "M") continue; // metadata: no timestamp
    ASSERT_NE(event.find("cat"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    EXPECT_GE(event.find("ts")->number, 0.0);
    if (code == "X") {
      ASSERT_NE(event.find("dur"), nullptr);
      EXPECT_GE(event.find("dur")->number, 0.0);
    }
    if (code == "i") EXPECT_EQ(event.find("s")->string, "t");
    if (code == "s" || code == "t" || code == "f") {
      ASSERT_NE(event.find("id"), nullptr);
      EXPECT_GT(event.find("id")->number, 0.0);
    }
    // Flow ends bind to the enclosing slice so the arrow lands on the
    // consumer's span, not on whatever slice starts next.
    if (code == "f") EXPECT_EQ(event.find("bp")->string, "e");
  }
}

TEST(Trace, DisabledTracingEmitsNothing) {
  ScopedTrace off(false);
  {
    trace::Span span("trace_test", "trace_test.disabled_span", "k", 1);
    trace::instant("trace_test", "trace_test.disabled_instant");
    trace::counter("trace_test.disabled_counter", 42);
  }
  JsonValue doc = parse_trace();
  check_trace_schema(doc);
  EXPECT_TRUE(data_events(doc).empty());
  EXPECT_EQ(doc.find("otherData")->find("dropped_events")->number, 0.0);
}

TEST(Trace, EmitsSchemaValidEventsWithArgs) {
  ScopedTrace on;
  {
    trace::Span span("trace_test", "trace_test.span", "alpha", 3, "beta", 7);
    trace::instant("trace_test", "trace_test.instant", "gamma", 11);
    trace::counter("trace_test.track", 42);
  }
  JsonValue doc = parse_trace();
  check_trace_schema(doc);

  const JsonValue *span = find_event(doc, "trace_test.span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->find("ph")->string, "X");
  EXPECT_EQ(span->find("cat")->string, "trace_test");
  EXPECT_EQ(span->find("args")->find("alpha")->number, 3.0);
  EXPECT_EQ(span->find("args")->find("beta")->number, 7.0);

  const JsonValue *instant = find_event(doc, "trace_test.instant");
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(instant->find("ph")->string, "i");
  EXPECT_EQ(instant->find("args")->find("gamma")->number, 11.0);

  const JsonValue *counter = find_event(doc, "trace_test.track");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->find("ph")->string, "C");
  EXPECT_EQ(counter->find("args")->find("value")->number, 42.0);
}

TEST(Trace, NestedSpansAreEnclosedByTheirParent) {
  ScopedTrace on;
  {
    trace::Span outer("trace_test", "trace_test.outer");
    trace::instant("trace_test", "trace_test.before_inner");
    {
      trace::Span inner("trace_test", "trace_test.inner");
      volatile std::uint64_t sink = 0;
      for (int i = 0; i < 10000; ++i) sink += static_cast<std::uint64_t>(i);
    }
  }
  JsonValue doc = parse_trace();
  const JsonValue *outer = find_event(doc, "trace_test.outer");
  const JsonValue *inner = find_event(doc, "trace_test.inner");
  const JsonValue *marker = find_event(doc, "trace_test.before_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(marker, nullptr);

  const double outer_start = outer->find("ts")->number;
  const double outer_end = outer_start + outer->find("dur")->number;
  const double inner_start = inner->find("ts")->number;
  const double inner_end = inner_start + inner->find("dur")->number;
  EXPECT_GE(inner_start, outer_start);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_GE(marker->find("ts")->number, outer_start);
  EXPECT_LE(marker->find("ts")->number, inner_start);
}

TEST(Trace, PostHocArgsAttachAndOverflowingArgsAreDropped) {
  ScopedTrace on;
  {
    trace::Span span("trace_test", "trace_test.posthoc");
    span.arg("late", 5);
    span.arg("later", 6);
    span.arg("overflow", 7); // third arg: beyond kMaxArgs, dropped
  }
  JsonValue doc = parse_trace();
  const JsonValue *span = find_event(doc, "trace_test.posthoc");
  ASSERT_NE(span, nullptr);
  const JsonValue *args = span->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("late")->number, 5.0);
  EXPECT_EQ(args->find("later")->number, 6.0);
  EXPECT_EQ(args->find("overflow"), nullptr);
}

TEST(Trace, RankScopeMapsEventsToProcessIds) {
  ScopedTrace on;
  trace::instant("trace_test", "trace_test.default_rank");
  {
    trace::RankScope scope(5);
    EXPECT_EQ(trace::thread_rank(), 5);
    trace::instant("trace_test", "trace_test.rank5");
    {
      trace::RankScope nested(2);
      trace::instant("trace_test", "trace_test.rank2");
    }
    EXPECT_EQ(trace::thread_rank(), 5);
  }
  EXPECT_EQ(trace::thread_rank(), 0);

  JsonValue doc = parse_trace();
  EXPECT_EQ(find_event(doc, "trace_test.default_rank")->find("pid")->number,
            0.0);
  EXPECT_EQ(find_event(doc, "trace_test.rank5")->find("pid")->number, 5.0);
  EXPECT_EQ(find_event(doc, "trace_test.rank2")->find("pid")->number, 2.0);

  // Every pid referenced by an event gets a process_name metadata record.
  std::set<double> named_pids;
  for (const JsonValue &event : doc.find("traceEvents")->array)
    if (event.find("ph")->string == "M" &&
        event.find("name")->string == "process_name")
      named_pids.insert(event.find("pid")->number);
  EXPECT_TRUE(named_pids.count(0.0));
  EXPECT_TRUE(named_pids.count(2.0));
  EXPECT_TRUE(named_pids.count(5.0));
}

TEST(Trace, ConcurrentThreadsEmitIntoDistinctBuffers) {
  ScopedTrace on;
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 25;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < kEventsPerThread; ++i)
        trace::instant("trace_test", "trace_test.worker", "i",
                       static_cast<std::uint64_t>(i));
    });
  for (std::thread &worker : workers) worker.join();

  JsonValue doc = parse_trace();
  check_trace_schema(doc);
  std::map<double, int> per_tid;
  std::map<double, double> last_ts;
  for (const JsonValue *event : data_events(doc)) {
    if (event->find("name")->string != "trace_test.worker") continue;
    const double tid = event->find("tid")->number;
    ++per_tid[tid];
    // Within one buffer, emission order is preserved: ts never decreases.
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) EXPECT_GE(event->find("ts")->number, it->second);
    last_ts[tid] = event->find("ts")->number;
  }
  ASSERT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto &[tid, count] : per_tid) EXPECT_EQ(count, kEventsPerThread);
}

TEST(Trace, OverflowKeepsTheNewestWindowAndCountsDrops) {
  ScopedTrace on;
  constexpr std::size_t kCapacity = 16;
  constexpr std::uint64_t kEmitted = 100;
  trace::set_buffer_capacity(kCapacity); // applies to buffers created after
  std::thread worker([] {
    for (std::uint64_t i = 0; i < kEmitted; ++i)
      trace::instant("trace_test", "trace_test.flood", "i", i);
  });
  worker.join();

  JsonValue doc = parse_trace();
  check_trace_schema(doc);
  std::vector<double> kept;
  for (const JsonValue *event : data_events(doc))
    if (event->find("name")->string == "trace_test.flood")
      kept.push_back(event->find("args")->find("i")->number);
  // Overwrite-oldest policy: exactly the last `capacity` events survive.
  ASSERT_EQ(kept.size(), kCapacity);
  for (std::size_t j = 0; j < kept.size(); ++j)
    EXPECT_EQ(kept[j], static_cast<double>(kEmitted - kCapacity + j));
  EXPECT_EQ(doc.find("otherData")->find("dropped_events")->number,
            static_cast<double>(kEmitted - kCapacity));
}

TEST(Trace, FlowEventsCarryBindingIdsAndSchema) {
  ScopedTrace on;
  const std::uint64_t id = trace::new_flow_id();
  {
    trace::Span producer("trace_test", "trace_test.producer");
    trace::flow_begin("trace_test", "trace_test.flow", id);
  }
  {
    trace::Span relay("trace_test", "trace_test.relay");
    trace::flow_step("trace_test", "trace_test.flow", id);
  }
  {
    trace::Span consumer("trace_test", "trace_test.consumer");
    trace::flow_end("trace_test", "trace_test.flow", id);
  }

  JsonValue doc = parse_trace();
  check_trace_schema(doc);
  double start_ts = -1.0, step_ts = -1.0, end_ts = -1.0;
  for (const JsonValue *event : data_events(doc)) {
    if (event->find("name")->string != "trace_test.flow") continue;
    EXPECT_EQ(event->find("id")->number, static_cast<double>(id));
    const std::string &code = event->find("ph")->string;
    if (code == "s") start_ts = event->find("ts")->number;
    if (code == "t") step_ts = event->find("ts")->number;
    if (code == "f") end_ts = event->find("ts")->number;
  }
  ASSERT_GE(start_ts, 0.0);
  ASSERT_GE(step_ts, 0.0);
  ASSERT_GE(end_ts, 0.0);
  EXPECT_LE(start_ts, step_ts);
  EXPECT_LE(step_ts, end_ts);
}

TEST(Trace, FlowIdsAreProcessUniqueAndBlocksDoNotOverlap) {
  ScopedTrace on;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t id = trace::new_flow_id();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second);
  }
  // Block allocation hands out `count` consecutive ids none of which can
  // collide with ids minted before or after the block.
  const std::uint64_t base = trace::new_flow_ids(4);
  for (std::uint64_t offset = 0; offset < 4; ++offset)
    EXPECT_TRUE(ids.insert(base + offset).second);
  EXPECT_TRUE(ids.insert(trace::new_flow_id()).second);
}

TEST(Trace, DisabledTracingEmitsNoFlowEvents) {
  ScopedTrace off(false);
  const std::uint64_t id = trace::new_flow_id();
  trace::flow_begin("trace_test", "trace_test.flow", id);
  trace::flow_step("trace_test", "trace_test.flow", id);
  trace::flow_end("trace_test", "trace_test.flow", id);
  JsonValue doc = parse_trace();
  EXPECT_TRUE(data_events(doc).empty());
}

TEST(Trace, ClearDiscardsBufferedEvents) {
  ScopedTrace on;
  trace::instant("trace_test", "trace_test.to_discard");
  trace::clear();
  JsonValue doc = parse_trace();
  EXPECT_TRUE(data_events(doc).empty());
}

// --- driver integration ------------------------------------------------------

CsrGraph trace_test_graph() {
  CsrGraph graph(barabasi_albert(300, 2, 1));
  assign_uniform_weights(graph, 2);
  return graph;
}

std::set<std::string> traced_categories(const JsonValue &doc) {
  std::set<std::string> categories;
  for (const JsonValue *event : data_events(doc))
    categories.insert(event->find("cat")->string);
  return categories;
}

/// Both shared-memory drivers are one body over one RRR store; the
/// sequential one runs it on a team of one and must trace the same
/// subsystems.
void expect_driver_covers_its_subsystems(
    ImmResult (*driver)(const CsrGraph &, const ImmOptions &)) {
  ScopedTrace on;
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 5;
  options.seed = 2019;
  options.num_threads = 2;
  (void)driver(trace_test_graph(), options);

  JsonValue doc = parse_trace();
  check_trace_schema(doc);
  std::set<std::string> categories = traced_categories(doc);
  for (const char *expected : {"imm", "sampler", "select", "theta", "counter"})
    EXPECT_TRUE(categories.count(expected)) << expected;
  EXPECT_NE(find_event(doc, "sampler.worker"), nullptr);
  EXPECT_NE(find_event(doc, "rrr_sets"), nullptr);
}

TEST(Trace, MultithreadedDriverCoversItsSubsystems) {
  expect_driver_covers_its_subsystems(imm_multithreaded);
}

TEST(Trace, SequentialDriverCoversItsSubsystems) {
  expect_driver_covers_its_subsystems(imm_sequential);
}

TEST(Trace, DistributedDriverCoversRanksAndCollectives) {
  ScopedTrace on;
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 5;
  options.seed = 2019;
  options.num_ranks = 2;
  (void)imm_distributed(trace_test_graph(), options);

  JsonValue doc = parse_trace();
  check_trace_schema(doc);
  // The acceptance bar: spans from at least the four core subsystems.
  std::set<std::string> categories = traced_categories(doc);
  for (const char *expected : {"imm", "sampler", "select", "mpsim"})
    EXPECT_TRUE(categories.count(expected)) << expected;

  // Ranks map to trace processes: both ranks appear, and every allreduce
  // span carries its payload size.
  std::set<double> pids;
  for (const JsonValue *event : data_events(doc)) {
    pids.insert(event->find("pid")->number);
    if (event->find("name")->string == "mpsim.allreduce")
      EXPECT_GT(event->find("args")->find("bytes")->number, 0.0);
  }
  EXPECT_TRUE(pids.count(0.0));
  EXPECT_TRUE(pids.count(1.0));
  ASSERT_NE(find_event(doc, "mpsim.rank"), nullptr);
}

TEST(Trace, DistributedDriverFlowsPairAndBindUniquely) {
  ScopedTrace on;
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 5;
  options.seed = 2019;
  options.num_ranks = 2;
  (void)imm_distributed(trace_test_graph(), options);

  JsonValue doc = parse_trace();
  check_trace_schema(doc);
  // Collect the flow events by binding id.  Clean-run invariant: every
  // start pairs with exactly one end whose timestamp does not precede it;
  // no id carries two starts (uniqueness is what makes Perfetto draw one
  // arrow per batch/collective rather than a tangle).
  std::map<double, int> starts, ends;
  std::map<double, double> start_ts, end_ts;
  std::size_t batch_flows = 0, collective_flows = 0;
  for (const JsonValue *event : data_events(doc)) {
    const std::string &code = event->find("ph")->string;
    if (code != "s" && code != "f") continue;
    const double id = event->find("id")->number;
    if (code == "s") {
      ++starts[id];
      start_ts[id] = event->find("ts")->number;
      const std::string &name = event->find("name")->string;
      if (name == "flow.rrr_batch") ++batch_flows;
      if (name == "flow.collective") ++collective_flows;
    } else {
      ++ends[id];
      end_ts[id] = event->find("ts")->number;
    }
  }
  // Both flow families must be present: each rank's sampler batches feed
  // selection, and the collectives link completer to released waiters.
  EXPECT_GE(batch_flows, 2u); // >= 1 batch per rank
  EXPECT_GE(collective_flows, 1u);
  ASSERT_FALSE(starts.empty());
  for (const auto &[id, count] : starts) {
    EXPECT_EQ(count, 1) << "flow id " << id << " started twice";
    ASSERT_EQ(ends.count(id), 1u) << "flow id " << id << " never ended";
    EXPECT_EQ(ends[id], 1) << "flow id " << id << " ended twice";
    EXPECT_GE(end_ts[id], start_ts[id]) << "flow id " << id;
  }
  for (const auto &[id, count] : ends)
    EXPECT_EQ(starts.count(id), 1u) << "flow id " << id << " has no start";
}

TEST(Trace, DistributedDriverWithTracingOffEmitsNothing) {
  ScopedTrace off(false);
  ImmOptions options;
  options.epsilon = 0.5;
  options.k = 5;
  options.seed = 2019;
  options.num_ranks = 2;
  (void)imm_distributed(trace_test_graph(), options);
  JsonValue doc = parse_trace();
  EXPECT_TRUE(data_events(doc).empty());
  EXPECT_EQ(doc.find("otherData")->find("dropped_events")->number, 0.0);
}

} // namespace
} // namespace ripples
