#include "imm/imm.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "imm/imm_core.hpp"
#include "imm/sampler.hpp"
#include "imm/sampler_fused.hpp"
#include "support/assert.hpp"
#include "support/cli.hpp"
#include "support/memory.hpp"
#include "support/trace.hpp"

namespace ripples {

namespace {

/// One enum's spellings, shared by its flag (or variable) parser and its
/// RunReport string, so each list is written once.
template <typename Enum> struct Spelling {
  const char *text;
  Enum value;
};

constexpr Spelling<SamplerEngine> kSamplerSpellings[] = {
    {"seq", SamplerEngine::Sequential}, {"fused", SamplerEngine::Fused}};
constexpr Spelling<CompressMode> kCompressSpellings[] = {
    {"auto", CompressMode::Auto},
    {"always", CompressMode::Always},
    {"off", CompressMode::Off}};
constexpr Spelling<StealMode> kStealSpellings[] = {{"off", StealMode::Off},
                                                   {"on", StealMode::On}};
constexpr Spelling<ScrubMode> kScrubSpellings[] = {
    {"off", ScrubMode::Off},
    {"on", ScrubMode::On},
    {"paranoid", ScrubMode::Paranoid}};

template <typename Enum, std::size_t N>
const char *spelling_of(const Spelling<Enum> (&table)[N], Enum value) {
  for (const Spelling<Enum> &entry : table)
    if (entry.value == value) return entry.text;
  return "?";
}

/// The value \p text spells in \p table.  Anything else terminates with a
/// diagnostic naming \p source and the accepted spellings (exit 2): a typo'd
/// value would otherwise run with the default and turn a test leg into a
/// false pass.
template <typename Enum, std::size_t N>
Enum parse_spelling(const Spelling<Enum> (&table)[N], const char *source,
                    const std::string &text) {
  std::string expected;
  for (const Spelling<Enum> &entry : table) {
    if (text == entry.text) return entry.value;
    expected += expected.empty() ? "" : "|";
    expected += entry.text;
  }
  std::fprintf(stderr, "%s: expected %s, got '%s'\n", source,
               expected.c_str(), text.c_str());
  std::exit(2);
}

/// Sets \p field from `--name`, when given; a bare `--name` is refused like
/// a misspelled value.
template <typename Enum, std::size_t N>
void parse_enum_flag(const CommandLine &cli, const char *name,
                     const Spelling<Enum> (&table)[N], Enum &field) {
  if (!cli.has_flag(name)) return;
  const std::string flag = std::string("--") + name;
  field = parse_spelling(table, flag.c_str(), cli.get(name, std::string()));
}

} // namespace

SamplerEngine sampler_engine_from_env() {
  const char *value = std::getenv("RIPPLES_SAMPLER");
  if (value == nullptr || *value == '\0') return SamplerEngine::Sequential;
  return parse_spelling(kSamplerSpellings, "RIPPLES_SAMPLER", value);
}

const char *to_string(StealMode mode) {
  return spelling_of(kStealSpellings, mode);
}

const char *to_string(ScrubMode mode) {
  return spelling_of(kScrubSpellings, mode);
}

void apply_option_flags(const CommandLine &cli, ImmOptions &options) {
  parse_enum_flag(cli, "sampler", kSamplerSpellings, options.sampler);
  options.mem_budget = static_cast<std::size_t>(cli.get_bounded(
      "mem-budget", static_cast<std::int64_t>(options.mem_budget), 0,
      std::numeric_limits<std::int64_t>::max()));
  parse_enum_flag(cli, "rrr-compress", kCompressSpellings,
                  options.rrr_compress);
  parse_enum_flag(cli, "steal", kStealSpellings, options.steal);
  options.steal_chunk = static_cast<std::uint64_t>(cli.get_bounded(
      "steal-chunk", static_cast<std::int64_t>(options.steal_chunk), 1,
      std::numeric_limits<std::int64_t>::max()));
  if (cli.has_flag("steal-skew")) options.steal_skew = true;
  if (cli.has_flag("verify-collectives")) options.verify_collectives = true;
  parse_enum_flag(cli, "scrub-rrr", kScrubSpellings, options.scrub_rrr);
  checkpoint::Options &checkpoint = options.checkpoint;
  checkpoint.dir = cli.get("checkpoint-dir", checkpoint.dir);
  checkpoint.every = static_cast<std::uint32_t>(cli.get_bounded(
      "checkpoint-every", checkpoint.every, 1,
      std::numeric_limits<std::uint32_t>::max()));
  checkpoint.keep_last = static_cast<std::uint32_t>(cli.get_bounded(
      "checkpoint-keep", checkpoint.keep_last, 1,
      std::numeric_limits<std::uint32_t>::max()));
  if (cli.has_flag("resume")) checkpoint.resume = true;
}

namespace detail {

void finalize_run_report(ImmResult &result, const char *driver,
                         const CsrGraph &graph, const ImmOptions &options,
                         const MartingaleOutcome &outcome) {
  metrics::RunReport &report = result.report;
  report.driver = driver;
  report.epsilon = options.epsilon;
  report.k = options.k;
  report.model = to_string(options.model);
  report.seed = options.seed;
  report.num_threads = options.num_threads;
  report.num_ranks = options.num_ranks;
  report.mem_budget = options.mem_budget;
  report.rrr_compress = spelling_of(kCompressSpellings, options.rrr_compress);
  report.steal = to_string(options.steal);
  report.steal_chunk = options.steal_chunk;
  report.steal_skew = options.steal_skew;
  report.verify_collectives = options.verify_collectives;
  report.scrub_rrr = to_string(options.scrub_rrr);
  report.degraded = result.degraded;
  report.epsilon_achieved = result.epsilon_achieved;
  report.graph_vertices = graph.num_vertices();
  report.graph_edges = graph.num_edges();
  report.phases = result.timers;
  report.theta = result.theta;
  report.theta_iterations = outcome.estimation_iterations;
  report.lower_bound = result.lower_bound;
  report.extend_targets = outcome.extend_targets;
  report.num_samples = result.num_samples;
  report.rrr_peak_bytes = result.rrr_peak_bytes;
  report.total_associations = result.total_associations;
  report.selection_rounds = options.k;
  report.covered_samples = outcome.selection.covered_samples;
  report.total_samples = outcome.selection.total_samples;
  report.coverage_fraction = result.coverage_fraction;
  report.seeds.assign(result.seeds.begin(), result.seeds.end());
  report.resumed_from = result.resumed_from;
  // Registered on first use: a report log names the counter only once some
  // run's final SelectSeeds returned the accepted round's selection instead
  // of recomputing it, and counts such runs (once per run, not per rank).
  if (outcome.selection_reused && metrics::enabled()) {
    static metrics::Counter &final_reused =
        metrics::Registry::instance().counter("imm.select.final_reused");
    final_reused.increment();
  }
  // Process-wide memory view (v5): the logical tracker peak and the kernel
  // high-water mark at report time, for every driver — the Table 2 harness
  // no longer reads 0 outside imm_partitioned.
  report.tracker_peak_bytes = MemoryTracker::instance().peak_bytes();
  report.peak_rss_bytes = ripples::peak_rss_bytes();
  // Background profiler series, when --profile-mem armed it.  Snapshot at
  // finalize: each report carries the timeline up to its own completion.
  for (const ResourceSample &sample : ResourceSampler::instance().samples()) {
    metrics::MemorySample out;
    out.t_seconds = sample.t_seconds;
    out.tracker_live_bytes = sample.tracker_live_bytes;
    out.tracker_peak_bytes = sample.tracker_peak_bytes;
    out.rss_bytes = sample.rss_bytes;
    report.memory_timeline.push_back(out);
  }
  if (metrics::enabled()) metrics::report_log().add(report);
}

void finalize_result(ImmResult &result, const MartingaleOutcome &outcome) {
  result.seeds = outcome.selection.seeds;
  result.theta = outcome.theta;
  result.num_samples = outcome.num_samples;
  result.lower_bound = outcome.lower_bound;
  result.coverage_fraction = outcome.selection.coverage_fraction();
  result.degraded = outcome.degraded;
  result.epsilon_achieved = outcome.epsilon_achieved;
}

RRRStore::Policy store_policy(const CsrGraph &graph,
                              const ImmOptions &options,
                              const ScopedBudget &budget, const char *consumer,
                              bool hard_refusal) {
  RRRStore::Policy policy;
  policy.budget_bytes = options.mem_budget;
  policy.compress = options.rrr_compress;
  policy.hard_refusal = hard_refusal;
  policy.consumer = consumer;
  policy.num_vertices = graph.num_vertices();
  if (!budget.governed())
    policy.chunk = std::numeric_limits<std::uint64_t>::max();
  policy.scrub = options.scrub_rrr;
  return policy;
}

} // namespace detail

namespace {

/// Records each sample's member count into the report's size histogram.
void record_sample_sizes(metrics::RunReport &report,
                         std::span<const RRRSet> samples) {
  for (const RRRSet &sample : samples)
    report.rrr_sizes.record(sample.size());
}

/// Algorithm 1 on a team of \p num_threads — IMMOPT on a team of one,
/// IMM_mt otherwise — over one RRRStore (DESIGN.md §12).  A run with
/// nothing that can refuse admits each extend as one window, which is
/// exactly the bare samplers' call pattern: one reservation, one generator
/// call, one edge-table build and one footprint reading per extend.
ImmResult imm_shared_memory(const CsrGraph &graph, const ImmOptions &options,
                            unsigned num_threads, const char *driver,
                            const char *consumer) {
  RIPPLES_ASSERT(num_threads >= 1);
  ImmResult result;
  StopWatch total;
  trace::Span driver_span("imm", driver, "k", options.k, "threads",
                          num_threads);
  detail::ScopedBudget budget(options.mem_budget, options.rrr_compress,
                              detail::oom_faults_from_plan(options.fault_plan));
  detail::RRRStore store(detail::store_policy(graph, options, budget, consumer,
                                              /*hard_refusal=*/false));

  // One admission window: the RRR sets at global indices
  // [first, first + count) from their per-sample counter streams.  A fused
  // window reserves what it holds — its own edge table plus each thread's
  // sampler scratch — for exactly as long as it holds it, and falls back to
  // the scalar kernel (same bytes out) when refused.
  auto generate = [&](RRRCollection &out, std::uint64_t first,
                      std::uint64_t count) {
    auto run = [&](const FusedEdgeTable *table) {
      if (table != nullptr)
        detail::sample_counter_range_fused(*table, options.seed, first, count,
                                           num_threads, out);
      else
        detail::sample_counter_range(graph, options.model, options.seed,
                                     first, count, num_threads, out);
    };
    if (options.sampler == SamplerEngine::Fused)
      detail::with_fused_window(graph, options.model, num_threads, run);
    else
      run(nullptr);
  };
  auto extend_to = [&](std::uint64_t target) {
    store.extend_window(store.size(), target, generate);
  };
  auto select = [&] {
    return store.select(graph.num_vertices(), options.k, num_threads);
  };

  detail::RoundLedger ledger;
  detail::RoundAccounting acct{&ledger, 0, [&] {
    return std::pair<std::uint64_t, std::uint64_t>(store.size(),
                                                   store.footprint_bytes());
  }};
  auto outcome = detail::run_imm_martingale(
      graph.num_vertices(), options.k, options.epsilon, options.l, extend_to,
      select, result.timers, acct);
  detail::finalize_result(result, outcome);
  result.rrr_peak_bytes = store.peak_footprint_bytes();
  result.total_associations = store.total_associations();
  result.report.rounds = ledger.entries();
  result.timers.add(Phase::Other,
                    total.elapsed_seconds() - result.timers.total());
  store.record_sizes(result.report.rrr_sizes);
  detail::finalize_run_report(result, driver, graph, options, outcome);
  return result;
}

} // namespace

ImmResult imm_sequential(const CsrGraph &graph, const ImmOptions &options) {
  return imm_shared_memory(graph, options, 1, "imm_sequential",
                           "imm_sequential.rrr");
}

ImmResult imm_baseline_hypergraph(const CsrGraph &graph,
                                  const ImmOptions &options) {
  ImmResult result;
  StopWatch total;
  trace::Span driver_span("imm", "imm_baseline_hypergraph", "k", options.k);
  HypergraphCollection collection(graph.num_vertices());

  // The baseline reproduces the Table 2 reference implementation, so it
  // keeps its scalar kernel regardless of options.sampler; the fused engine
  // is an optimization of the paper's own storage path, not the baseline's.
  // It also ignores the memory-budget governor for the same reason: its
  // dual-direction storage is the memory-hungry reference the governed
  // drivers are measured against (DESIGN.md §12).
  auto extend_to = [&](std::uint64_t target) {
    sample_hypergraph(graph, options.model, target, options.seed, collection);
    result.rrr_peak_bytes =
        std::max(result.rrr_peak_bytes, collection.footprint_bytes());
    result.total_associations =
        std::max(result.total_associations, collection.total_associations());
  };
  auto select = [&] {
    return select_seeds_hypergraph(graph.num_vertices(), options.k, collection);
  };

  detail::RoundLedger ledger;
  detail::RoundAccounting acct{&ledger, 0, [&] {
    return std::pair<std::uint64_t, std::uint64_t>(collection.sets().size(),
                                                   collection.footprint_bytes());
  }};
  auto outcome = detail::run_imm_martingale(
      graph.num_vertices(), options.k, options.epsilon, options.l, extend_to,
      select, result.timers, acct);
  detail::finalize_result(result, outcome);
  result.report.rounds = ledger.entries();
  result.timers.add(Phase::Other,
                    total.elapsed_seconds() - result.timers.total());
  record_sample_sizes(result.report, collection.sets());
  detail::finalize_run_report(result, "imm_baseline_hypergraph", graph, options,
                              outcome);
  return result;
}

ImmResult imm_multithreaded(const CsrGraph &graph, const ImmOptions &options) {
  return imm_shared_memory(graph, options, options.num_threads,
                           "imm_multithreaded", "imm_multithreaded.rrr");
}

} // namespace ripples
