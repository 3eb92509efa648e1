/// \file csr.hpp
/// \brief Compressed-sparse-row directed graph with both edge directions.
///
/// The IMM pipeline needs both directions of every edge: the reverse
/// probabilistic BFS of GenerateRR walks *incoming* edges from a random root
/// (Definition 2), while the forward diffusion simulators that evaluate
/// E[|I(S)|] walk *outgoing* edges.  CsrGraph therefore materializes two CSR
/// structures built from one edge list.  Each adjacency entry carries the
/// edge's activation probability so the probabilistic traversals never touch
/// a separate weight array.
#ifndef RIPPLES_GRAPH_CSR_HPP
#define RIPPLES_GRAPH_CSR_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "support/assert.hpp"

namespace ripples {

/// One adjacency entry: the neighbor and the probability attached to the
/// underlying directed edge.  8 bytes, cache-friendly for the BFS kernels.
struct Adjacency {
  vertex_t vertex;
  float weight;
};

/// Immutable weighted directed graph in CSR form (both directions).
///
/// Invariants (checked by the builder, relied upon everywhere):
///  * offsets are monotone with `offsets.front()==0`, `offsets.back()==m`;
///  * the out-CSR and in-CSR describe the same edge multiset;
///  * adjacency lists are sorted by neighbor id (enables binary search and
///    gives deterministic traversal order).
class CsrGraph {
public:
  CsrGraph() = default;

  /// Builds both CSR directions from an edge list.  Self-loops are dropped
  /// (they cannot affect influence) and duplicate arcs are kept: a multi-arc
  /// legitimately increases activation probability under IC.
  explicit CsrGraph(const EdgeList &list);

  [[nodiscard]] vertex_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] edge_offset_t num_edges() const {
    return static_cast<edge_offset_t>(out_adjacency_.size());
  }

  /// Out-neighbors of \p u with the weight of each edge (u -> w).
  [[nodiscard]] std::span<const Adjacency> out_neighbors(vertex_t u) const {
    RIPPLES_DEBUG_ASSERT(u < num_vertices_);
    return {out_adjacency_.data() + out_offsets_[u],
            static_cast<std::size_t>(out_offsets_[u + 1] - out_offsets_[u])};
  }

  /// In-neighbors of \p v with the weight of each edge (w -> v).  This is
  /// the direction GenerateRR traverses.
  [[nodiscard]] std::span<const Adjacency> in_neighbors(vertex_t v) const {
    RIPPLES_DEBUG_ASSERT(v < num_vertices_);
    return {in_adjacency_.data() + in_offsets_[v],
            static_cast<std::size_t>(in_offsets_[v + 1] - in_offsets_[v])};
  }

  [[nodiscard]] std::size_t out_degree(vertex_t u) const {
    return static_cast<std::size_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }
  [[nodiscard]] std::size_t in_degree(vertex_t v) const {
    return static_cast<std::size_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Applies \p fn(weight)->weight to every stored edge weight, keeping the
  /// two directions consistent.  Used by the weight assigners.
  template <typename Fn> void transform_weights(Fn &&fn) {
    for (Adjacency &adjacent : out_adjacency_) adjacent.weight = fn(adjacent.weight);
    for (Adjacency &adjacent : in_adjacency_) adjacent.weight = fn(adjacent.weight);
  }

  /// Mutable access for the weight assigners in weights.cpp.  The two arrays
  /// describe the same edges; assigners must keep them consistent (see
  /// for_each_in_entry below for the supported mutation pattern).
  [[nodiscard]] std::span<Adjacency> mutable_in_adjacency() {
    return in_adjacency_;
  }
  [[nodiscard]] std::span<Adjacency> mutable_out_adjacency() {
    return out_adjacency_;
  }
  [[nodiscard]] std::span<const edge_offset_t> in_offsets() const {
    return in_offsets_;
  }
  /// Every in-neighbor entry, rows in vertex order: row v is
  /// [in_offsets()[v], in_offsets()[v + 1]).
  [[nodiscard]] std::span<const Adjacency> in_adjacency() const {
    return in_adjacency_;
  }
  [[nodiscard]] std::span<const edge_offset_t> out_offsets() const {
    return out_offsets_;
  }

  /// Rebuilds the out-CSR weights from the in-CSR ones (or vice versa) after
  /// an assigner rewrote a single direction.  O(m) through the cross-index
  /// built at construction time; exact even in the presence of multi-arcs.
  void propagate_weights_in_to_out();
  void propagate_weights_out_to_in();

  /// Heap footprint of the CSR arrays in bytes.
  [[nodiscard]] std::size_t memory_footprint_bytes() const;

  /// FNV-1a digest over the out-CSR offsets, neighbors, and weight bit
  /// patterns.  Two graphs hash equal iff they have identical structure and
  /// weights, which is what checkpoint resume needs to verify: replaying RRR
  /// coordinates against a different graph would be silently wrong.
  [[nodiscard]] std::uint64_t structural_hash() const;

  /// Round-trips back to an edge list (sorted by source, then destination),
  /// using the out-direction weights.
  [[nodiscard]] EdgeList to_edge_list() const;

private:
  vertex_t num_vertices_ = 0;
  std::vector<edge_offset_t> out_offsets_{0};
  std::vector<Adjacency> out_adjacency_;
  std::vector<edge_offset_t> in_offsets_{0};
  std::vector<Adjacency> in_adjacency_;
  /// in_to_out_[i] is the out-adjacency index describing the same edge as
  /// in-adjacency entry i.
  std::vector<edge_offset_t> in_to_out_;
};

} // namespace ripples

#endif // RIPPLES_GRAPH_CSR_HPP
