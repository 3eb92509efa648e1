/// \file fig2_theta_growth.cpp
/// \brief Reproduces Figure 2: the number of RRR sets (theta) on cit-HepTh
/// as a function of k and the approximation factor (epsilon sweep 0.2-0.6).
///
/// Each grid point runs the real estimation pipeline (martingale loop +
/// final theta), not just the closed-form lambda*, so the reported theta is
/// exactly what an IMM run would generate.  Figure 2's two laws to
/// reproduce: theta grows sharply as epsilon decreases, grows with k, and
/// "quickly exceeds n".
#include <cmath>

#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.04);

  CsrGraph graph = build_input("cit-HepTh", config,
                               DiffusionModel::IndependentCascade);
  print_input_banner("cit-HepTh", graph, config);

  std::vector<double> epsilons = {0.3, 0.4, 0.5, 0.6};
  std::vector<std::uint32_t> ks = {10, 50, 100};
  if (config.full) {
    epsilons = {0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6};
    ks = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  }

  Table table("Figure 2: theta as a function of k and epsilon (cit-HepTh)",
              {"Epsilon", "ApproxFactor", "k", "Theta", "Theta/n",
               "LowerBound"});

  const double n = static_cast<double>(graph.num_vertices());
  for (double epsilon : epsilons) {
    for (std::uint32_t k : ks) {
      ImmOptions options = config.options;
      options.epsilon = epsilon;
      options.k = k;
      options.seed = config.seed;
      options.num_threads = config.threads;
      ImmResult result = imm_multithreaded(graph, options);
      table.new_row()
          .add(epsilon, 2)
          .add(1.0 - 1.0 / std::exp(1.0) - epsilon, 2)
          .add(k)
          .add(result.theta)
          .add(static_cast<double>(result.theta) / n, 2)
          .add(result.lower_bound, 1);
    }
  }

  table.emit(config.csv_path);
  std::printf("\nExpected shape (Figure 2): theta rises steeply as epsilon\n"
              "falls (higher precision), rises with k, and exceeds n well\n"
              "before the tightest settings.\n");
  return 0;
}
