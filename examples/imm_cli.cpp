/// \file imm_cli.cpp
/// \brief Full command-line driver, in the spirit of the `imm` tool the
/// Ripples framework ships: load any edge-list graph (or a registry
/// surrogate), pick a driver and model, run influence maximization, and
/// emit the seeds plus diagnostics as text or JSON.
///
/// Usage:
///   imm_cli --input graph.txt [--weights uniform|constant:<p>|wc|keep]
///           [--driver seq|baseline|mt|dist|dist-part|tim|ris]
///           [--model IC|LT] [--epsilon 0.5] [-k 50]
///           [--threads N] [--ranks P]     (each 1..1024, the paper's
///                                          largest run; exit 2 beyond)
///           [--sampler seq|fused]         (seq/mt/dist: RRR engine; fused
///                                          batches 64 samples per
///                                          traversal pass, byte-identical
///                                          output; default from
///                                          RIPPLES_SAMPLER)
///           [--evaluate-trials 0] [--json out.json] [--seed S]
///           [--json-report report.json]   (structured metrics run report)
///           [--trace trace.json]          (Chrome trace-event timeline,
///                                          loadable in Perfetto)
///           [--profile-mem]               (background resource sampler:
///                                          memory timeline in the report
///                                          and counter tracks in the
///                                          trace; also RIPPLES_PROFILE_MEM)
///           [--profile-mem-hz HZ]         (sampling rate; default 10)
///           [--recover]                   (dist only: survive rank failures
///                                          by shrinking + regenerating)
///           [--watchdog-ms N]             (collective stall deadline; 0=off)
///           [--inject-fault rank=R,site=N
///                           [,kind=crash|stall|oom|corrupt|flaky]
///                           [,sticky][,attempts=M]]
///                                         (deterministic fault plan.
///                                          kind=oom fails rank R's Nth
///                                          tracked memory reservation,
///                                          sticky.
///                                          kind=corrupt flips a payload
///                                          bit at the Nth communication
///                                          entry — once, or on every
///                                          retransmission with `sticky`.
///                                          kind=flaky fails delivery of
///                                          the first M attempts there,
///                                          then succeeds)
///           [--mem-budget BYTES]          (seq/mt/dist: RRR memory budget;
///                                          0 = unlimited.  Over-budget
///                                          runs degrade: compress, shed
///                                          batches, certify a looser
///                                          epsilon)
///           [--rrr-compress auto|always|off]
///                                         (seq/mt/dist: delta+varint RRR
///                                          encoding; auto switches under
///                                          budget pressure)
///           [--steal on|off]              (dist only: inter-rank work
///                                          stealing; byte-identical seeds
///                                          either way — placement only)
///           [--steal-chunk N]             (dist only: draws per stealable
///                                          chunk; default 64)
///           [--steal-skew]                (dist only; benchmark knob: home
///                                          every stream on the first live
///                                          rank — the fig7 pathological
///                                          partition)
///           [--verify-collectives]        (dist/dist-part: CRC-32 every
///                                          collective/steal payload;
///                                          mismatches retry with capped
///                                          backoff, then heal)
///           [--scrub-rrr off|on|paranoid] (seq/mt/dist: verify + self-
///                                          repair stored RRR arena
///                                          checksums before selection (on)
///                                          or every kernel (paranoid))
///           [--checkpoint-dir DIR]        (dist/dist-part: snapshot the
///                                          martingale state at round
///                                          boundaries)
///           [--checkpoint-every N]        (dist/dist-part: write every Nth
///                                          boundary; acceptance always
///                                          writes)
///           [--checkpoint-keep N]         (dist/dist-part: snapshots
///                                          retained; default 3)
///           [--resume]                    (dist/dist-part: resume from the
///                                          newest intact snapshot in
///                                          --checkpoint-dir)
///           [--evict-stalled]             (dist only, with --recover and
///                                          --watchdog-ms: heal watchdog-
///                                          diagnosed stalls like crashes
///                                          instead of aborting)
///           [--strict-input]              (reject self-loops and duplicate
///                                          edges in --input, not just
///                                          malformed lines/weights)
///   imm_cli --dataset com-DBLP --scale 0.01 ...     (surrogate input)
///
/// A flag marked "dist only", "dist/dist-part" or "seq/mt/dist" exits 2
/// under any other driver instead of being ignored.  --epsilon outside
/// (0, 1), -k above the graph's vertex count and a graph of fewer than two
/// vertices exit 2 as well.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "ripples/ripples.hpp"

namespace {

using namespace ripples;

/// Upper bound of --threads and --ranks: the paper's largest run (1024
/// Edison cores).  Without it a huge count reaches the OpenMP runtime or the
/// rank vector and dies allocating instead of exiting 2.
constexpr std::int64_t kMaxWorkers = 1024;

CsrGraph load_graph(const CommandLine &cli, std::uint64_t seed,
                    DiffusionModel model) {
  CsrGraph graph = [&] {
    if (auto input = cli.value_of("input")) {
      RIPPLES_LOG_INFO("loading edge list from %s", input->c_str());
      EdgeListValidation validation;
      validation.reject_self_loops = cli.has_flag("strict-input");
      validation.reject_duplicates = cli.has_flag("strict-input");
      return CsrGraph(load_edge_list_text(*input, true, validation));
    }
    const std::string dataset = cli.get("dataset", std::string("cit-HepTh"));
    return materialize(find_dataset(dataset), cli.get("scale", 0.05), seed,
                       cli.get("snap-dir", std::string()));
  }();

  const std::string weights = cli.get("weights", std::string("uniform"));
  if (weights == "uniform") {
    assign_uniform_weights(graph, seed + 1);
  } else if (weights.rfind("constant:", 0) == 0) {
    // The whole of <p> must parse, and as a probability: the text loader's
    // rule.  stof alone would take "0.1xyz" as 0.1 and let 2, -0.5 or nan
    // through to the samplers.
    const std::string text = weights.substr(sizeof("constant:") - 1);
    char *end = nullptr;
    const float p = std::strtof(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(p >= 0.0f && p <= 1.0f)) {
      std::fprintf(stderr,
                   "option --weights constant:<p> expects a value in [0, 1], "
                   "got '%s'\n",
                   text.c_str());
      std::exit(2);
    }
    assign_constant_weights(graph, p);
  } else if (weights == "wc") {
    assign_weighted_cascade(graph);
  } else if (weights != "keep") {
    std::fprintf(stderr, "unknown --weights '%s' "
                         "(uniform|constant:<p>|wc|keep)\n",
                 weights.c_str());
    std::exit(2);
  }
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);
  return graph;
}

ImmResult run_driver(const std::string &driver, const CsrGraph &graph,
                     const ImmOptions &options, const CommandLine &cli) {
  if (driver == "seq") return imm_sequential(graph, options);
  if (driver == "baseline") return imm_baseline_hypergraph(graph, options);
  if (driver == "mt") return imm_multithreaded(graph, options);
  if (driver == "dist") return imm_distributed(graph, options);
  if (driver == "dist-part") return imm_distributed_partitioned(graph, options);
  if (driver == "tim") {
    TimOptions tim;
    tim.epsilon = options.epsilon;
    tim.k = options.k;
    tim.model = options.model;
    tim.seed = options.seed;
    return tim_plus(graph, tim);
  }
  if (driver == "ris") {
    RisOptions ris;
    ris.epsilon = options.epsilon;
    ris.k = options.k;
    ris.model = options.model;
    ris.seed = options.seed;
    ris.budget_scale = cli.get("ris-budget-scale", 0.05);
    return ris_threshold(graph, ris);
  }
  std::fprintf(stderr, "unknown --driver '%s' "
                       "(seq|baseline|mt|dist|dist-part|tim|ris)\n",
               driver.c_str());
  std::exit(2);
}

void write_json(const std::string &path, const std::string &driver,
                const ImmResult &result, const InfluenceEstimate &influence,
                const GraphStats &stats) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  out << "{\n"
      << "  \"driver\": \"" << driver << "\",\n"
      << "  \"graph\": {\"vertices\": " << stats.num_vertices
      << ", \"edges\": " << stats.num_edges << "},\n"
      << "  \"theta\": " << result.theta << ",\n"
      << "  \"samples\": " << result.num_samples << ",\n"
      << "  \"coverage_fraction\": " << result.coverage_fraction << ",\n"
      << "  \"phases_seconds\": {"
      << "\"estimate_theta\": " << result.timers.total(Phase::EstimateTheta)
      << ", \"sample\": " << result.timers.total(Phase::Sample)
      << ", \"select_seeds\": " << result.timers.total(Phase::SelectSeeds)
      << ", \"other\": " << result.timers.total(Phase::Other) << "},\n"
      << "  \"rrr_peak_bytes\": " << result.rrr_peak_bytes << ",\n";
  if (influence.trials > 0)
    out << "  \"estimated_influence\": {\"mean\": " << influence.mean
        << ", \"std_error\": " << influence.std_error
        << ", \"trials\": " << influence.trials << "},\n";
  out << "  \"seeds\": [";
  for (std::size_t i = 0; i < result.seeds.size(); ++i)
    out << (i ? ", " : "") << result.seeds[i];
  out << "]\n}\n";
}

} // namespace

int main(int argc, char **argv) {
  using namespace ripples;
  CommandLine cli(argc, argv);
  if (cli.has_flag("help")) {
    std::puts("see the header comment of examples/imm_cli.cpp for usage");
    return 0;
  }
  // Every driver samples counter streams.  The parser skips unknown flags,
  // so a leftover --rng is refused here instead of silently ignored.
  if (cli.has_flag("rng")) {
    std::fprintf(stderr, "unknown option --rng: every driver samples counter "
                         "streams; the paper's leap-frog LCG split is "
                         "measured by bench/ablation_rng_streams\n");
    return 2;
  }
  // The mpsim drivers' one selection exchange is the counter allreduce.
  for (const char *flag : {"selection-exchange", "selection-topm"}) {
    if (cli.has_flag(flag)) {
      std::fprintf(stderr, "unknown option --%s: the distributed drivers "
                           "always allreduce the selection counters\n",
                   flag);
      return 2;
    }
  }

  const auto seed =
      static_cast<std::uint64_t>(cli.get_bounded("seed", 2019, 0, INT64_MAX));
  const DiffusionModel model = parse_model(cli.get("model", std::string("IC")));
  const std::string driver = cli.get("driver", std::string("mt"));
  // Driver-scoped flags: healing and stealing exist only in
  // imm_distributed, checksummed exchanges and checkpoints in both mpsim
  // drivers, and the fused engine and the memory governor in the drivers
  // that store through the RRR store (seq, mt, dist).  Any other driver
  // would ignore them, so they are refused instead.
  const bool dist = driver == "dist";
  const bool mpsim = dist || driver == "dist-part";
  const bool rrr_store = dist || driver == "seq" || driver == "mt";
  const std::pair<const char *, bool> driver_scoped[] = {
      {"recover", dist},           {"evict-stalled", dist},
      {"steal", dist},             {"steal-chunk", dist},
      {"steal-skew", dist},        {"verify-collectives", mpsim},
      {"checkpoint-dir", mpsim},   {"checkpoint-every", mpsim},
      {"checkpoint-keep", mpsim},  {"resume", mpsim},
      {"sampler", rrr_store},      {"mem-budget", rrr_store},
      {"rrr-compress", rrr_store}, {"scrub-rrr", rrr_store},
  };
  for (const auto &[flag, applies] : driver_scoped) {
    if (!applies && cli.has_flag(flag)) {
      std::fprintf(stderr, "option --%s does not apply to --driver %s\n",
                   flag, driver.c_str());
      return 2;
    }
  }
  ImmOptions options;
  options.epsilon = cli.get("epsilon", 0.5);
  // The theta schedule asserts epsilon in (0, 1), n >= 2 and k <= n: each
  // is refused with exit 2 instead (n and k once the graph is loaded).
  if (!(options.epsilon > 0.0 && options.epsilon < 1.0)) {
    std::fprintf(stderr, "option --epsilon expects a value in (0, 1), got "
                         "'%s'\n",
                 cli.get("epsilon", std::string()).c_str());
    return 2;
  }
  options.k = static_cast<std::uint32_t>(
      cli.get_bounded("k", 50, 1, UINT32_MAX));
  options.model = model;
  options.seed = seed;
  options.num_threads = static_cast<unsigned>(
      cli.get_bounded("threads", 1, 1, kMaxWorkers));
  options.num_ranks =
      static_cast<int>(cli.get_bounded("ranks", 2, 1, kMaxWorkers));
  options.recover_failures = cli.has_flag("recover");
  options.watchdog_ms = static_cast<std::uint32_t>(
      cli.get_bounded("watchdog-ms", 0, 0, UINT32_MAX));
  options.fault_plan = cli.get("inject-fault", std::string());
  options.evict_stalled = cli.has_flag("evict-stalled");
  apply_option_flags(cli, options);

  // Enable metrics before the run so the report captures communication
  // volume and registry counters (RIPPLES_METRICS=1 works too).  The report
  // log flushes at exit, carrying the registry alongside the run report.
  const std::string report_path = cli.get("json-report", std::string());
  if (!report_path.empty()) metrics::write_reports_at_exit(report_path);
  // Span tracing is independent of metrics: RIPPLES_TRACE=1 (or =path)
  // works too; --trace <path> both enables it and names the output.
  const std::string trace_path = cli.get("trace", std::string());
  if (!trace_path.empty()) trace::set_enabled(true);
  // Background resource sampler: memory timeline in the report, counter
  // tracks in the trace.  Stopped before either artifact is written.
  if (cli.has_flag("profile-mem") || cli.value_of("profile-mem-hz"))
    ResourceSampler::instance().start(
        cli.get_bounded("profile-mem-hz", 10.0, 0.1, 1000.0));
  // Graceful shutdown: Ctrl-C or a scheduler's TERM writes any pending
  // checkpoint and flushes the report log and trace buffers before exiting
  // 128+signum, leaving the same resumable state a round boundary would.
  checkpoint::install_signal_flush();

  CsrGraph graph = [&] {
    try {
      return load_graph(cli, seed, model);
    } catch (const std::exception &error) {
      std::fprintf(stderr, "input rejected: %s\n", error.what());
      std::exit(2);
    }
  }();
  GraphStats stats = compute_stats(graph);
  if (stats.num_vertices < 2) {
    std::fprintf(stderr, "input rejected: IMM needs at least 2 vertices, the "
                         "graph has %u\n",
                 stats.num_vertices);
    return 2;
  }
  if (options.k > stats.num_vertices) {
    std::fprintf(stderr, "option -k expects at most the graph's %u vertices, "
                         "got %u\n",
                 stats.num_vertices, options.k);
    return 2;
  }
  std::printf("graph: %u vertices, %llu arcs | driver=%s model=%s\n",
              stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges), driver.c_str(),
              to_string(model));

  ImmResult result;
  try {
    result = run_driver(driver, graph, options, cli);
  } catch (const checkpoint::CheckpointError &error) {
    // A snapshot that is damaged or belongs to another run is bad input,
    // refused before any sampling: a typed diagnostic, not a run failure.
    std::fprintf(stderr, "resume refused (%s): %s\n",
                 checkpoint::to_string(error.kind()), error.what());
    return 2;
  } catch (const std::exception &error) {
    // A failed run must still leave its diagnostics behind: a marked
    // partial report and whatever the trace ring buffers held when the
    // exception unwound the driver.
    std::fprintf(stderr, "run failed: %s\n", error.what());
    ResourceSampler::instance().stop(); // quiesce before the flushes below
    if (!report_path.empty()) {
      metrics::mark_run_failed(driver, error.what());
      if (metrics::flush_reports_now())
        std::fprintf(stderr, "[partial run report written to %s]\n",
                     report_path.c_str());
    }
    if (!trace_path.empty() && trace::write_json_file(trace_path))
      std::fprintf(stderr, "[partial trace written to %s]\n",
                   trace_path.c_str());
    return 1;
  }
  // The run is over: make the sampler quiescent so the explicit trace write
  // below sees a stable buffer (the report already snapshotted its timeline
  // at finalize).
  ResourceSampler::instance().stop();
  std::printf("theta=%llu samples=%llu coverage=%.3f\n",
              static_cast<unsigned long long>(result.theta),
              static_cast<unsigned long long>(result.num_samples),
              result.coverage_fraction);
  std::printf("phases: %s\n", result.timers.summary().c_str());
  std::printf("rrr storage peak: %s\n",
              format_bytes(result.rrr_peak_bytes).c_str());
  if (result.degraded)
    std::printf("degraded: memory budget reached; certified epsilon %.4f "
                "(requested %.4f)\n",
                result.epsilon_achieved, options.epsilon);

  InfluenceEstimate influence;
  const auto trials = static_cast<std::uint32_t>(
      cli.get_bounded("evaluate-trials", 0, 0, UINT32_MAX));
  if (trials > 0) {
    influence = estimate_influence(graph, result.seeds, model, trials, seed + 9);
    std::printf("estimated influence: %.1f +/- %.1f over %u trials\n",
                influence.mean, influence.std_error, influence.trials);
  }

  std::printf("seeds:");
  for (vertex_t s : result.seeds) std::printf(" %u", s);
  std::printf("\n");

  if (auto json = cli.value_of("json")) {
    write_json(*json, driver, result, influence, stats);
    std::printf("[json written to %s]\n", json->c_str());
  }
  if (!report_path.empty())
    std::printf("[run report will be written to %s]\n", report_path.c_str());
  if (!trace_path.empty()) {
    // Explicit write (the mpsim ranks have joined, so buffers are
    // quiescent) with a confirmation line; no atexit hook was armed.
    if (trace::write_json_file(trace_path))
      std::printf("[trace written to %s]\n", trace_path.c_str());
    else
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
  }
  return 0;
}
