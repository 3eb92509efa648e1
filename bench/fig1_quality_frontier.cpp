/// \file fig1_quality_frontier.cpp
/// \brief Reproduces Figure 1: activated vertices as a function of seed-set
/// size for two quality regimes — the state-of-the-art-feasible
/// (eps=0.5, k<=100, "blue arc") and the regime this paper's parallelism
/// unlocks (eps=0.13, k<=200, "red arc").
///
/// The greedy seed selection is nested (seed i+1 extends the first i), so
/// one IMM run per regime yields the whole curve by evaluating prefixes of
/// the returned seed vector with the Monte-Carlo forward simulator.
#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.01);
  const std::string dataset = cli.get("dataset", std::string("soc-Epinions1"));
  const auto trials =
      static_cast<std::uint32_t>(cli.get("trials", std::int64_t{300}));

  CsrGraph graph = build_input(dataset, config,
                               DiffusionModel::IndependentCascade);
  print_input_banner(dataset, graph, config);

  struct Regime {
    const char *label;
    double epsilon;
    std::uint32_t max_k;
  };
  const Regime regimes[] = {
      {"baseline-feasible", 0.5, 100},
      {"parallel-enabled", config.full ? 0.13 : 0.25, 200},
  };

  Table table("Figure 1: activated vertices vs seed set size",
              {"Regime", "Epsilon", "k", "ActivatedNodes", "StdErr",
               "ImmTime(s)"});

  for (const Regime &regime : regimes) {
    ImmOptions options = config.options;
    options.epsilon = regime.epsilon;
    options.k = regime.max_k;
    options.seed = config.seed;
    options.num_threads = config.threads;
    ImmResult result = imm_multithreaded(graph, options);

    for (std::uint32_t k = 25; k <= regime.max_k; k += 25) {
      std::span<const vertex_t> prefix(result.seeds.data(), k);
      InfluenceEstimate influence = estimate_influence(
          graph, prefix, options.model, trials, config.seed + 7);
      table.new_row()
          .add(regime.label)
          .add(regime.epsilon, 2)
          .add(k)
          .add(influence.mean, 1)
          .add(influence.std_error, 1)
          .add(result.timers.total(), 2);
    }
  }

  table.emit(config.csv_path);
  std::printf("\nThe 'parallel-enabled' curve (tighter eps, larger k) should\n"
              "dominate the baseline curve at every shared k and extend it to\n"
              "2x the seed-set size — Figure 1's red-over-blue shape.\n");
  return 0;
}
