/// \file lineage_evolution.cpp
/// \brief Context bench (paper §2): the RIS -> TIM+ -> IMM lineage at equal
/// (epsilon, k) — sample counts, runtime, and solution quality — showing
/// why IMM is the algorithm worth parallelizing.
///
/// Expected shape: all three reach comparable influence (same objective,
/// same guarantee family), while the sample count and runtime drop across
/// generations; RIS additionally needs a hand-tuned work budget, which is
/// exactly the knob IMM's estimation removes.
#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.02);
  const double epsilon = epsilon_flag(cli, 0.5);
  const auto k = static_cast<std::uint32_t>(cli.get("k", std::int64_t{25}));
  const auto trials =
      static_cast<std::uint32_t>(cli.get("trials", std::int64_t{400}));

  std::vector<std::string> datasets = {"cit-HepTh", "soc-Epinions1"};
  if (config.full)
    datasets = {"cit-HepTh", "soc-Epinions1", "com-Amazon", "com-DBLP"};

  Table table("Lineage: RIS (SODA'14) vs TIM+ (SIGMOD'14) vs IMM (SIGMOD'15)",
              {"Graph", "Algorithm", "Samples", "Time(s)", "Influence",
               "StdErr"});

  for (const std::string &dataset : datasets) {
    CsrGraph graph = build_input(dataset, config,
                                 DiffusionModel::IndependentCascade);
    print_input_banner(dataset, graph, config);

    auto evaluate = [&](const char *name, const ImmResult &result) {
      InfluenceEstimate influence =
          estimate_influence(graph, result.seeds,
                             DiffusionModel::IndependentCascade, trials,
                             config.seed + 23);
      table.new_row()
          .add(dataset)
          .add(name)
          .add(result.num_samples)
          .add(result.timers.total(), 2)
          .add(influence.mean, 1)
          .add(influence.std_error, 1);
    };

    RisOptions ris_options;
    ris_options.epsilon = epsilon;
    ris_options.k = k;
    ris_options.seed = config.seed;
    // RIS with its theoretical budget would dwarf everything; use the
    // practical scaled budget the SODA paper itself suggests.
    ris_options.budget_scale = cli.get("ris-budget-scale", 0.05);
    evaluate("RIS", ris_threshold(graph, ris_options));

    TimOptions tim_options;
    tim_options.epsilon = epsilon;
    tim_options.k = k;
    tim_options.seed = config.seed;
    evaluate("TIM+", tim_plus(graph, tim_options));

    ImmOptions imm_options = config.options;
    imm_options.epsilon = epsilon;
    imm_options.k = k;
    imm_options.seed = config.seed;
    evaluate("IMM", imm_sequential(graph, imm_options));
  }

  table.emit(config.csv_path);
  std::printf("\nExpected: equal-league influence; IMM's martingale bound\n"
              "needs the fewest samples — the property that makes its\n"
              "parallelization (this paper) pay off at scale.\n");
  return 0;
}
