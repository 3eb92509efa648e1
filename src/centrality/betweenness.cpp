#include "centrality/betweenness.hpp"

#include <algorithm>
#include <omp.h>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "support/assert.hpp"

namespace ripples {

namespace {

/// Scratch space for one Brandes source accumulation; reused across sources.
struct BrandesScratch {
  explicit BrandesScratch(vertex_t n)
      : distance(n, -1), num_paths(n, 0), dependency(n, 0.0) {
    order.reserve(n);
  }

  std::vector<std::int32_t> distance;
  std::vector<double> num_paths;
  std::vector<double> dependency;
  std::vector<vertex_t> order; ///< BFS visit order (for reverse sweep)

  void reset_touched() {
    for (vertex_t v : order) {
      distance[v] = -1;
      num_paths[v] = 0;
      dependency[v] = 0.0;
    }
    order.clear();
  }
};

/// Accumulates the dependency contributions of one source into `scores`.
void accumulate_source(const CsrGraph &graph, vertex_t source,
                       BrandesScratch &scratch, std::vector<double> &scores) {
  scratch.reset_touched();
  scratch.distance[source] = 0;
  scratch.num_paths[source] = 1.0;
  scratch.order.push_back(source);

  // Forward BFS counting shortest paths.  `order` doubles as the queue.
  for (std::size_t head = 0; head < scratch.order.size(); ++head) {
    vertex_t v = scratch.order[head];
    for (const Adjacency &out : graph.out_neighbors(v)) {
      vertex_t w = out.vertex;
      if (scratch.distance[w] < 0) {
        scratch.distance[w] = scratch.distance[v] + 1;
        scratch.order.push_back(w);
      }
      if (scratch.distance[w] == scratch.distance[v] + 1)
        scratch.num_paths[w] += scratch.num_paths[v];
    }
  }

  // Reverse sweep accumulating dependencies (Brandes' theorem).
  for (auto it = scratch.order.rbegin(); it != scratch.order.rend(); ++it) {
    vertex_t v = *it;
    for (const Adjacency &out : graph.out_neighbors(v)) {
      vertex_t w = out.vertex;
      if (scratch.distance[w] == scratch.distance[v] + 1)
        scratch.dependency[v] += scratch.num_paths[v] / scratch.num_paths[w] *
                                 (1.0 + scratch.dependency[w]);
    }
    if (v != source) scores[v] += scratch.dependency[v];
  }
}

/// Sources per accumulation block.  Each block sums into a zeroed partial
/// vector, and the partials are added to the scores in block order, so the
/// floating-point result does not depend on the thread count or schedule.
constexpr std::size_t kSourcesPerBlock = 64;

std::vector<double> brandes_over_sources(const CsrGraph &graph,
                                         std::span<const vertex_t> sources,
                                         double rescale) {
  const vertex_t n = graph.num_vertices();
  std::vector<double> scores(n, 0.0);
  const auto num_blocks = static_cast<std::int64_t>(
      (sources.size() + kSourcesPerBlock - 1) / kSourcesPerBlock);
#pragma omp parallel
  {
    BrandesScratch scratch(n);
    std::vector<double> partial(n, 0.0);
#pragma omp for ordered schedule(dynamic, 1)
    for (std::int64_t b = 0; b < num_blocks; ++b) {
      const std::size_t begin = static_cast<std::size_t>(b) * kSourcesPerBlock;
      const std::size_t end = std::min(begin + kSourcesPerBlock, sources.size());
      for (std::size_t i = begin; i < end; ++i)
        accumulate_source(graph, sources[i], scratch, partial);
#pragma omp ordered
      for (vertex_t v = 0; v < n; ++v) scores[v] += partial[v];
      std::fill(partial.begin(), partial.end(), 0.0);
    }
  }
  if (rescale != 1.0)
    for (double &s : scores) s *= rescale;
  return scores;
}

} // namespace

std::vector<double> betweenness_centrality(const CsrGraph &graph) {
  std::vector<vertex_t> sources(graph.num_vertices());
  for (vertex_t v = 0; v < graph.num_vertices(); ++v) sources[v] = v;
  return brandes_over_sources(graph, sources, 1.0);
}

std::vector<double> betweenness_centrality_sampled(const CsrGraph &graph,
                                                   vertex_t num_sources,
                                                   std::uint64_t seed) {
  RIPPLES_ASSERT(num_sources >= 1);
  num_sources = std::min(num_sources, graph.num_vertices());
  Xoshiro256 rng(seed);
  std::vector<vertex_t> sources(num_sources);
  for (vertex_t &s : sources)
    s = static_cast<vertex_t>(uniform_index(rng, graph.num_vertices()));
  double rescale = static_cast<double>(graph.num_vertices()) /
                   static_cast<double>(num_sources);
  return brandes_over_sources(graph, sources, rescale);
}

} // namespace ripples
