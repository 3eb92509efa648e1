/// \file quickstart.cpp
/// \brief Minimal end-to-end tour of the library: build a graph, run IMM,
/// evaluate the selected seed set.
///
/// Usage:
///   quickstart [--dataset cit-HepTh] [--scale 0.1] [--epsilon 0.5] [-k 50]
///              [--model IC|LT] [--threads N] [--seed S]
#include <cstdio>

#include "ripples/ripples.hpp"

int main(int argc, char **argv) {
  using namespace ripples;
  CommandLine cli(argc, argv);

  const std::string dataset = cli.get("dataset", std::string("cit-HepTh"));
  const double scale = cli.get("scale", 0.1);
  const double epsilon = epsilon_flag(cli, 0.5);
  const auto k = static_cast<std::uint32_t>(cli.get("k", std::int64_t{50}));
  const DiffusionModel model = parse_model(cli.get("model", std::string("IC")));
  const auto threads = static_cast<unsigned>(cli.get("threads", std::int64_t{2}));
  const auto seed = static_cast<std::uint64_t>(cli.get("seed", std::int64_t{2019}));

  // 1. Build the input graph: a SNAP surrogate from the registry (drop the
  //    real SNAP file into --snap-dir to use the genuine dataset).
  CsrGraph graph = materialize(find_dataset(dataset), scale, seed,
                               cli.get("snap-dir", std::string()));

  // 2. Assign activation probabilities exactly as the paper does: uniform
  //    [0,1) for IC; additionally renormalized per in-neighborhood for LT.
  assign_uniform_weights(graph, seed);
  if (model == DiffusionModel::LinearThreshold)
    renormalize_linear_threshold(graph);

  GraphStats stats = compute_stats(graph);
  std::printf("graph: %s (scale %.3f): %u vertices, %llu arcs, avg degree %.2f\n",
              dataset.c_str(), scale, stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges),
              stats.avg_total_degree);

  // 3. Run the multithreaded IMM driver (Algorithm 1).
  ImmOptions options;
  options.epsilon = epsilon;
  options.k = k;
  options.model = model;
  options.seed = seed;
  options.num_threads = threads;
  ImmResult result = imm_multithreaded(graph, options);

  std::printf("theta=%llu samples=%llu  phases: %s\n",
              static_cast<unsigned long long>(result.theta),
              static_cast<unsigned long long>(result.num_samples),
              result.timers.summary().c_str());

  // 4. Evaluate the seed set: Monte-Carlo estimate of E[|I(S)|].
  InfluenceEstimate influence =
      estimate_influence(graph, result.seeds, model, 1000, seed + 1);
  std::printf("selected %zu seeds; estimated influence %.1f +/- %.1f vertices "
              "(%.1f%% of the graph)\n",
              result.seeds.size(), influence.mean, influence.std_error,
              100.0 * influence.mean / stats.num_vertices);

  std::printf("seeds:");
  for (std::size_t i = 0; i < result.seeds.size() && i < 10; ++i)
    std::printf(" %u", result.seeds[i]);
  if (result.seeds.size() > 10) std::printf(" ...");
  std::printf("\n");
  return 0;
}
