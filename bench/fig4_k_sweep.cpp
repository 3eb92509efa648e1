/// \file fig4_k_sweep.cpp
/// \brief Reproduces Figure 4: impact of the seed-set size k on runtime
/// (eps=0.5, IC, multithreaded), phase-decomposed per dataset.
///
/// Figure 4's shapes: runtime grows with k (because theta does), and the
/// SelectSeeds share grows with k faster than the sampling share.
#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.01);
  const double epsilon = epsilon_flag(cli, 0.5);

  std::vector<std::string> datasets = {"cit-HepTh", "soc-Epinions1",
                                       "com-DBLP", "com-YouTube"};
  std::vector<std::uint32_t> ks = {10, 40, 70, 100};
  if (config.full) {
    datasets = {"cit-HepTh",   "soc-Epinions1", "com-Amazon",
                "com-DBLP",    "com-YouTube",   "soc-Pokec",
                "soc-LiveJournal1", "com-Orkut"};
    ks = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  }

  std::vector<std::string> header = {"Graph", "k"};
  header.insert(header.end(), kPhaseHeader.begin(), kPhaseHeader.end());
  Table table("Figure 4: impact of k on runtime (eps=0.5, IC)", header);

  for (const std::string &dataset : datasets) {
    CsrGraph graph = build_input(dataset, config,
                                 DiffusionModel::IndependentCascade);
    print_input_banner(dataset, graph, config);
    for (std::uint32_t k : ks) {
      ImmOptions options = config.options;
      options.epsilon = epsilon;
      options.k = k;
      options.seed = config.seed;
      options.num_threads = config.threads;
      ImmResult result = imm_multithreaded(graph, options);
      TableRow &row = table.new_row();
      row.add(dataset).add(k);
      add_phase_columns(row, result);
    }
  }

  table.emit(config.csv_path);
  std::printf("\nExpected shape (Figure 4): totals rise with k, with the\n"
              "SelectSeeds fraction growing fastest.\n");
  return 0;
}
