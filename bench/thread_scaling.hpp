/// \file thread_scaling.hpp
/// \brief Shared implementation of the multithreaded strong-scaling
/// figures (Figure 5 = LT, Figure 6 = IC; identical sweep otherwise).
///
/// The paper sweeps 2..20 threads of one Puma node at eps=0.5, k=100 and
/// reports the phase-decomposed runtime per thread count, observing
/// near-linear speedups on large IC inputs and limited LT scalability (LT's
/// tiny RRR sets leave too little work per thread).  Wall-clock speedup is
/// bounded by the cores of the machine that runs the sweep; thread counts
/// beyond them still exercise the full OpenMP machinery.
#ifndef RIPPLES_BENCH_THREAD_SCALING_HPP
#define RIPPLES_BENCH_THREAD_SCALING_HPP

#include "bench_common.hpp"

namespace ripples::bench {

inline int run_thread_scaling(int argc, char **argv, DiffusionModel model,
                              const char *figure_name) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.01);
  const double epsilon = cli.get("epsilon", 0.5);
  const auto k =
      static_cast<std::uint32_t>(cli.get_bounded("k", 100, 1, UINT32_MAX));

  std::vector<std::string> datasets = {"cit-HepTh", "soc-Epinions1",
                                       "com-DBLP", "com-YouTube"};
  std::vector<unsigned> thread_counts = {1, 2, 4, 8};
  if (config.full) {
    datasets = {"cit-HepTh",   "soc-Epinions1", "com-Amazon",
                "com-DBLP",    "com-YouTube",   "soc-Pokec",
                "soc-LiveJournal1", "com-Orkut"};
    thread_counts.clear();
    for (unsigned t = 2; t <= 20; ++t) thread_counts.push_back(t);
  }

  char title[160];
  std::snprintf(title, sizeof(title),
                "%s: multithreaded strong scaling (eps=%.2f, k=%u, %s)",
                figure_name, epsilon, k, to_string(model));
  std::vector<std::string> header = {"Graph", "Threads"};
  header.insert(header.end(), kPhaseHeader.begin(), kPhaseHeader.end());
  header.push_back("SpeedupVs1T");
  Table table(title, header);

  for (const std::string &dataset : datasets) {
    CsrGraph graph = build_input(dataset, config, model);
    print_input_banner(dataset, graph, config);
    double reference = 0.0;
    for (unsigned threads : thread_counts) {
      ImmOptions options;
      options.epsilon = epsilon;
      options.k = k;
      options.model = model;
      options.seed = config.seed;
      options.num_threads = threads;
      ImmResult result = imm_multithreaded(graph, options);
      if (reference == 0.0) reference = result.timers.total();
      TableRow &row = table.new_row();
      row.add(dataset).add(threads);
      add_phase_columns(row, result);
      row.add(reference / result.timers.total(), 2);
    }
  }

  table.emit(config.csv_path);
  std::printf("\nExpected shape: speedups improve with input size; IC\n"
              "scales better than LT (larger RRR sets = more parallel work).\n"
              "Wall-clock speedup here is bounded by the machine's cores.\n");
  return 0;
}

} // namespace ripples::bench

#endif // RIPPLES_BENCH_THREAD_SCALING_HPP
