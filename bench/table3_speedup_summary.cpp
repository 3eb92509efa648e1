/// \file table3_speedup_summary.cpp
/// \brief Reproduces Table 3: the end-to-end speedup ladder on com-Orkut
/// and soc-LiveJournal1 — IMM (baseline) -> IMMOPT -> IMM_mt (eps=0.5,
/// k=100) -> IMM_dist (eps=0.13, k=200).
///
/// The paper's headline: 586x (Orkut) and 298x (LiveJournal) vs the serial
/// baseline, with the distributed row simultaneously *tightening* the
/// approximation (eps 0.5 -> 0.13) and doubling the seed set.  On one core
/// the parallel rows cannot show wall-clock speedups, but the ladder runs
/// end to end: same configurations, same drivers, same metrics.  The
/// surrogate scale is kept small because the eps=0.13, k=200 row is the
/// heaviest computation in the whole harness.
#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.0003);
  const int ranks = static_cast<int>(cli.get_bounded("ranks", 4, 1, INT32_MAX));
  // The paper's distributed row uses eps=0.13; that is ~15x more samples
  // than eps=0.5, so the default trims it to 0.2 to keep the bench within
  // a laptop-core budget.  --full (or --dist-epsilon) restores 0.13.
  const double dist_epsilon =
      cli.get("dist-epsilon", config.full ? 0.13 : 0.2);
  const auto dist_k = static_cast<std::uint32_t>(
      cli.get_bounded("dist-k", config.full ? 200 : 100, 1, UINT32_MAX));

  Table table("Table 3: improvement in runtime relative to IMM",
              {"Graph", "Configuration", "Time(s)", "Speedup", "PaperSpeedup"});

  for (const std::string &dataset : {std::string("com-Orkut"),
                                     std::string("soc-LiveJournal1")}) {
    CsrGraph graph = build_input(dataset, config,
                                 DiffusionModel::IndependentCascade);
    print_input_banner(dataset, graph, config);
    const PaperReference &paper = find_dataset(dataset).paper;

    ImmOptions serial_options = config.options;
    serial_options.epsilon = 0.5;
    serial_options.k = 100;
    serial_options.seed = config.seed;

    ImmResult baseline = imm_baseline_hypergraph(graph, serial_options);
    double reference_time = baseline.timers.total();
    table.new_row()
        .add(dataset)
        .add("IMM (eps=0.5, k=100)")
        .add(reference_time, 2)
        .add(1.0, 2)
        .add(1.0, 2);

    ImmResult optimized = imm_sequential(graph, serial_options);
    table.new_row()
        .add(dataset)
        .add("IMMopt (eps=0.5, k=100)")
        .add(optimized.timers.total(), 2)
        .add(reference_time / optimized.timers.total(), 2)
        .add(paper.imm_seconds / paper.immopt_seconds, 2);

    ImmOptions mt_options = serial_options;
    mt_options.num_threads = config.threads;
    ImmResult multithreaded = imm_multithreaded(graph, mt_options);
    table.new_row()
        .add(dataset)
        .add("IMMmt (eps=0.5, k=100)")
        .add(multithreaded.timers.total(), 2)
        .add(reference_time / multithreaded.timers.total(), 2)
        .add(dataset == "com-Orkut" ? 21.24 : 16.02, 2);

    ImmOptions dist_options = config.options;
    dist_options.epsilon = dist_epsilon;
    dist_options.k = dist_k;
    dist_options.seed = config.seed;
    dist_options.num_ranks = ranks;
    dist_options.num_threads = 1;
    ImmResult distributed = imm_distributed(graph, dist_options);
    char label[64];
    std::snprintf(label, sizeof(label), "IMMdist (eps=%.2f, k=%u, p=%d)",
                  dist_epsilon, dist_k, ranks);
    table.new_row()
        .add(dataset)
        .add(label)
        .add(distributed.timers.total(), 2)
        .add(reference_time / distributed.timers.total(), 2)
        .add(dataset == "com-Orkut" ? 586.61 : 298.16, 2);
  }

  table.emit(config.csv_path);
  std::printf(
      "\nPaper speedups for IMMmt/IMMdist come from 20 threads / 1024\n"
      "cluster nodes; this container has one core, so measured parallel\n"
      "speedups reflect algorithmic overheads only (see EXPERIMENTS.md).\n");
  return 0;
}
