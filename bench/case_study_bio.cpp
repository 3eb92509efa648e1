/// \file case_study_bio.cpp
/// \brief Reproduces the Section 5 case study: influence maximization on
/// inferred co-expression networks vs degree and betweenness centrality,
/// compared by pathway enrichment (Fisher's exact test, BH-adjusted).
///
/// The paper analyzes two multi-omics datasets (human tumor samples; a soil
/// microbial community), infers GENIE3 co-expression networks, takes the
/// top-200 features per method and counts significantly enriched MSIG
/// pathways: IMM 372, betweenness 159, degree 614 — with IMM's top pathways
/// the most disease-specific, and a partial overlap between IMM and degree
/// picks (9/30 in the soil data).  This bench runs the same pipeline on two
/// synthetic datasets with planted modules (see DESIGN.md for the
/// substitution argument) and prints the same comparisons.
#include <algorithm>
#include <set>

#include "bench_common.hpp"

using namespace ripples;
using namespace ripples::bench;

namespace {

struct CaseStudyDataset {
  const char *name;
  bio::ExpressionConfig expression;
};

struct MethodSelection {
  const char *method;
  std::vector<std::uint32_t> selected;
};

} // namespace

int main(int argc, char **argv) {
  CommandLine cli(argc, argv);
  BenchConfig config = BenchConfig::parse(cli, /*default_scale=*/1.0);
  const auto k = static_cast<std::uint32_t>(cli.get("k", std::int64_t{32}));

  // Two synthetic stand-ins: "tumor-like" (more features, strong modules —
  // proteomic/transcriptomic) and "soil-like" (fewer, noisier modules —
  // metabolomic/metatranscriptomic).
  CaseStudyDataset datasets[2];
  datasets[0].name = "tumor-like";
  datasets[0].expression = {.num_features = 800,
                            .num_samples = 60,
                            .num_modules = 4,
                            .module_fraction = 0.225,
                            .module_correlation = 0.7,
                            .seed = config.seed};
  datasets[1].name = "soil-like";
  datasets[1].expression = {.num_features = 600,
                            .num_samples = 40,
                            .num_modules = 5,
                            .module_fraction = 0.3,
                            .module_correlation = 0.65,
                            .seed = config.seed + 1};

  Table table("Section 5 case study: enriched pathways per selection method",
              {"Dataset", "Method", "SignificantPathways", "ModuleAligned",
               "TopPathway", "OverlapWithIMM"});

  for (const CaseStudyDataset &dataset : datasets) {
    bio::ExpressionMatrix matrix = bio::synthesize_expression(dataset.expression);

    bio::InferenceConfig inference;
    inference.edges_per_target = 6;
    inference.min_abs_correlation = 0.5;
    EdgeList network = bio::infer_coexpression_network(matrix, inference);
    CsrGraph graph(network);
    // Calibrate relevance weights into activation probabilities (see
    // DESIGN.md / the integration test): raw |r| saturates whole modules.
    graph.transform_weights([](float w) { return 0.12f * w; });

    GraphStats stats = compute_stats(graph);
    std::printf("[input] %-10s features=%u samples=%u edges=%llu\n",
                dataset.name, matrix.num_features(),
                matrix.num_samples(),
                static_cast<unsigned long long>(stats.num_edges));

    // Method 1: IMM.
    ImmOptions options = config.options;
    options.epsilon = 0.5;
    options.k = k;
    options.seed = config.seed + 2;
    options.num_threads = config.threads;
    ImmResult imm = imm_multithreaded(graph, options);

    // Methods 2-3: topological centrality rankings (the paper's reference
    // measures).
    std::vector<std::uint32_t> degree = degree_centrality(graph);
    auto degree_top = top_k_by_score(std::span<const std::uint32_t>(degree), k);
    std::vector<double> betweenness = betweenness_centrality(graph);
    auto betweenness_top =
        top_k_by_score(std::span<const double>(betweenness), k);

    MethodSelection methods[3];
    methods[0] = {"IMM", {imm.seeds.begin(), imm.seeds.end()}};
    methods[1] = {"degree", {degree_top.begin(), degree_top.end()}};
    methods[2] = {"betweenness",
                  {betweenness_top.begin(), betweenness_top.end()}};

    bio::PathwayConfig pathway_config;
    pathway_config.member_fraction = 0.8;
    pathway_config.num_random_pathways = 20;
    pathway_config.seed = config.seed + 3;
    bio::PathwayDatabase database =
        bio::synthesize_pathways(matrix, pathway_config);

    std::set<std::uint32_t> imm_set(methods[0].selected.begin(),
                                    methods[0].selected.end());
    for (const MethodSelection &method : methods) {
      auto rows = bio::enrich(method.selected, database, matrix.num_features());
      std::size_t significant = bio::count_significant(rows, 0.05);
      std::size_t module_aligned = 0;
      for (const bio::EnrichmentRow &row : rows)
        if (row.p_adjusted < 0.05 &&
            database.pathways[row.pathway_index].name.rfind("module", 0) == 0)
          ++module_aligned;
      std::size_t overlap = 0;
      for (std::uint32_t f : method.selected) overlap += imm_set.count(f);
      table.new_row()
          .add(dataset.name)
          .add(method.method)
          .add(significant)
          .add(module_aligned)
          .add(rows.empty() ? "-" : database.pathways[rows[0].pathway_index].name)
          .add(overlap);
    }
  }

  table.emit(config.csv_path);
  std::printf(
      "\nPaper's observations to compare against: every method enriches real\n"
      "('module*') pathways; IMM's and degree's picks overlap only partially\n"
      "(the paper saw 9/30), i.e. IMM supplies complementary information;\n"
      "random pathways (the nulls) should almost never appear significant.\n");
  return 0;
}
