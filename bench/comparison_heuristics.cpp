/// \file comparison_heuristics.cpp
/// \brief Related-work comparison (paper §2): IMM against the heuristic
/// families it competes with — degree, degree discount (Chen et al.),
/// community-proportional allocation (Halappanavar et al.), k-shell (Wu et
/// al.) — by solution quality (Monte-Carlo influence) and selection time.
///
/// The paper's positioning to reproduce: the heuristics are fast but carry
/// no approximation guarantee, and the community-based family in
/// particular suffers from ignoring inter-community edges; IMM delivers
/// the best influence at moderate cost.
#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.02);
  const auto k = static_cast<std::uint32_t>(cli.get("k", std::int64_t{25}));
  const auto trials =
      static_cast<std::uint32_t>(cli.get("trials", std::int64_t{400}));
  const float probability = static_cast<float>(cli.get("probability", 0.05));

  std::vector<std::string> datasets = {"soc-Epinions1", "com-DBLP"};
  if (config.full)
    datasets = {"cit-HepTh", "soc-Epinions1", "com-Amazon", "com-DBLP",
                "com-YouTube"};

  Table table("Related-work comparison: influence quality vs selection time",
              {"Graph", "Method", "Influence", "StdErr", "SelectTime(s)"});

  for (const std::string &dataset : datasets) {
    // Constant IC probability (the regime the heuristics were designed
    // for; degree discount assumes uniform p).
    CsrGraph graph = materialize(find_dataset(dataset), config.scale,
                                 config.seed, config.snap_dir);
    assign_constant_weights(graph, probability);
    print_input_banner(dataset, graph, config);

    auto evaluate = [&](const char *method, StopWatch &watch,
                        std::span<const vertex_t> seeds) {
      double elapsed = watch.elapsed_seconds();
      InfluenceEstimate influence =
          estimate_influence(graph, seeds, DiffusionModel::IndependentCascade,
                             trials, config.seed + 17);
      table.new_row()
          .add(dataset)
          .add(method)
          .add(influence.mean, 1)
          .add(influence.std_error, 1)
          .add(elapsed, 3);
    };

    {
      StopWatch watch;
      ImmOptions options = config.options;
      options.epsilon = 0.5;
      options.k = k;
      options.seed = config.seed;
      options.num_threads = config.threads;
      ImmResult imm = imm_multithreaded(graph, options);
      evaluate("IMM (eps=0.5)", watch, imm.seeds);
    }
    {
      StopWatch watch;
      std::vector<vertex_t> seeds = top_degree_seeds(graph, k);
      evaluate("degree", watch, seeds);
    }
    {
      StopWatch watch;
      std::vector<vertex_t> seeds =
          degree_discount_seeds(graph, k, probability);
      evaluate("degree-discount", watch, seeds);
    }
    {
      StopWatch watch;
      CommunityAssignment communities = label_propagation(graph, 10, config.seed);
      std::vector<vertex_t> seeds =
          community_proportional_seeds(graph, communities, k, probability);
      evaluate("community-prop", watch, seeds);
    }
    {
      StopWatch watch;
      std::vector<vertex_t> seeds = k_shell_seeds(graph, k);
      evaluate("k-shell", watch, seeds);
    }
  }

  table.emit(config.csv_path);
  std::printf("\nExpected (paper §2): IMM tops influence with a guarantee;\n"
              "degree-discount beats raw degree; k-shell and the\n"
              "community-based allocation trail on influence because they\n"
              "ignore redundancy / inter-community edges respectively.\n");
  return 0;
}
