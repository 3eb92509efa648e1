/// \file dist_scaling.hpp
/// \brief Shared implementation of the distributed strong-scaling figures
/// (Figure 7 = Puma, 2-16 nodes; Figure 8 = Edison, 64-1024 nodes).
///
/// The paper runs the four largest graphs at eps=0.13, k=200 under both
/// models, partitioning theta samples across MPI ranks and allreducing the
/// n-entry counters once per selected seed.  Here ranks are mpsim threads;
/// the sweep exercises exactly the same partitioning, RNG-splitting and
/// collective pattern.  eps defaults looser than 0.13 to keep the
/// single-core default run short; --full restores the paper's setting.
#ifndef RIPPLES_BENCH_DIST_SCALING_HPP
#define RIPPLES_BENCH_DIST_SCALING_HPP

#include "bench_common.hpp"

namespace ripples::bench {

inline int run_dist_scaling(int argc, char **argv,
                            std::span<const int> default_ranks,
                            std::span<const int> full_ranks,
                            const char *figure_name, double default_scale) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, default_scale);
  const double epsilon = cli.get("epsilon", config.full ? 0.13 : 0.30);
  const auto k = static_cast<std::uint32_t>(
      cli.get_bounded("k", config.full ? 200 : 50, 1, UINT32_MAX));

  std::vector<std::string> datasets = {"com-YouTube", "com-Orkut"};
  if (config.full)
    datasets = {"com-YouTube", "soc-Pokec", "soc-LiveJournal1", "com-Orkut"};

  std::span<const int> rank_counts = config.full ? full_ranks : default_ranks;

  char title[160];
  std::snprintf(title, sizeof(title),
                "%s: distributed strong scaling (eps=%.2f, k=%u)", figure_name,
                epsilon, k);
  std::vector<std::string> header = {"Graph", "Model", "Ranks"};
  header.insert(header.end(), kPhaseHeader.begin(), kPhaseHeader.end());
  header.push_back("SpeedupVsMinRanks");
  Table table(title, header);

  for (const std::string &dataset : datasets) {
    for (DiffusionModel model : {DiffusionModel::IndependentCascade,
                                 DiffusionModel::LinearThreshold}) {
      CsrGraph graph = build_input(dataset, config, model);
      if (model == DiffusionModel::IndependentCascade)
        print_input_banner(dataset, graph, config);
      double reference = 0.0;
      for (int ranks : rank_counts) {
        ImmOptions options = config.options;
        options.epsilon = epsilon;
        options.k = k;
        options.model = model;
        options.seed = config.seed;
        options.num_ranks = ranks;
        ImmResult result = imm_distributed(graph, options);
        if (reference == 0.0) reference = result.timers.total();
        TableRow &row = table.new_row();
        row.add(dataset).add(to_string(model)).add(ranks);
        add_phase_columns(row, result);
        row.add(reference / result.timers.total(), 2);
      }
    }
  }

  table.emit(config.csv_path);
  std::printf("\nExpected shape: IC scales with rank count on the larger\n"
              "inputs; LT has too little work per rank (the paper's low\n"
              "parallel-efficiency observation).  Wall-clock speedup here is\n"
              "bounded by the machine's cores.\n");
  return 0;
}

} // namespace ripples::bench

#endif // RIPPLES_BENCH_DIST_SCALING_HPP
