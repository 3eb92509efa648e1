/// \file fig3_epsilon_sweep.cpp
/// \brief Reproduces Figure 3: impact of epsilon on runtime (k=50, IC,
/// multithreaded), with the runtime decomposed into the four phases
/// (EstimateTheta / Sample / SelectSeeds / Other) per dataset.
///
/// Figure 3's shapes to reproduce: total runtime grows as epsilon
/// decreases; EstimateTheta and Sample dominate; the Sample share shrinks
/// on larger inputs.
#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.01);
  const auto k = static_cast<std::uint32_t>(cli.get("k", std::int64_t{50}));

  std::vector<std::string> datasets = {"cit-HepTh", "soc-Epinions1",
                                       "com-DBLP", "com-YouTube"};
  std::vector<double> epsilons = {0.30, 0.40, 0.50};
  if (config.full) {
    datasets = {"cit-HepTh",   "soc-Epinions1", "com-Amazon",
                "com-DBLP",    "com-YouTube",   "soc-Pokec",
                "soc-LiveJournal1", "com-Orkut"};
    epsilons = {0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50};
  }

  std::vector<std::string> header = {"Graph", "Epsilon"};
  header.insert(header.end(), kPhaseHeader.begin(), kPhaseHeader.end());
  Table table("Figure 3: impact of epsilon on runtime (k=50, IC)", header);

  for (const std::string &dataset : datasets) {
    CsrGraph graph = build_input(dataset, config,
                                 DiffusionModel::IndependentCascade);
    print_input_banner(dataset, graph, config);
    for (double epsilon : epsilons) {
      ImmOptions options = config.options;
      options.epsilon = epsilon;
      options.k = k;
      options.seed = config.seed;
      options.num_threads = config.threads;
      ImmResult result = imm_multithreaded(graph, options);
      TableRow &row = table.new_row();
      row.add(dataset).add(epsilon, 2);
      add_phase_columns(row, result);
    }
  }

  table.emit(config.csv_path);
  std::printf("\nExpected shape (Figure 3): totals rise as epsilon falls;\n"
              "EstimateTheta and Sample dominate every bar.\n");
  return 0;
}
