/// \file ablation_graph_partition.cpp
/// \brief Extension bench (paper §6 future work i): replicated-graph
/// distributed IMM (Section 3.2) vs the graph-partitioned variant.
///
/// Replicating the graph lets each rank generate whole samples with zero
/// communication; partitioning it shrinks per-rank graph storage by p but
/// turns every BFS level into an allgatherv and every seed retirement into
/// a theta-length broadcast.  This bench quantifies that trade at equal
/// work: total time, sampling time, and the per-rank share of the stored
/// associations.
#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/0.02);
  const double epsilon = epsilon_flag(cli, 0.5);
  const auto k = static_cast<std::uint32_t>(cli.get("k", std::int64_t{20}));

  CsrGraph graph = build_input("soc-Epinions1", config,
                               DiffusionModel::IndependentCascade);
  print_input_banner("soc-Epinions1", graph, config);

  std::vector<int> rank_counts = {1, 2, 4};
  if (config.full) rank_counts = {1, 2, 4, 8, 16};

  Table table("Ablation: replicated vs partitioned input graph",
              {"Ranks", "Layout", "Total(s)", "SampleWork(s)", "SelectSeeds(s)",
               "Associations", "GraphBytes/rank"});

  for (int ranks : rank_counts) {
    ImmOptions options = config.options;
    options.epsilon = epsilon;
    options.k = k;
    options.seed = config.seed;
    options.num_ranks = ranks;

    ImmResult replicated = imm_distributed(graph, options);
    table.new_row()
        .add(ranks)
        .add("replicated")
        .add(replicated.timers.total(), 3)
        .add(replicated.timers.total(Phase::EstimateTheta) +
                 replicated.timers.total(Phase::Sample),
             3)
        .add(replicated.timers.total(Phase::SelectSeeds), 3)
        .add(replicated.total_associations)
        .add(graph.memory_footprint_bytes());

    ImmResult partitioned = imm_distributed_partitioned(graph, options);
    table.new_row()
        .add(ranks)
        .add("partitioned")
        .add(partitioned.timers.total(), 3)
        .add(partitioned.timers.total(Phase::EstimateTheta) +
                 partitioned.timers.total(Phase::Sample),
             3)
        .add(partitioned.timers.total(Phase::SelectSeeds), 3)
        .add(partitioned.total_associations)
        .add(graph.memory_footprint_bytes() / static_cast<std::size_t>(ranks));
  }

  table.emit(config.csv_path);
  std::printf("\nExpected: the partitioned layout divides per-rank graph\n"
              "storage by p but pays an allgatherv per BFS level — the\n"
              "communication/memory trade the paper's future work poses.\n");
  return 0;
}
