/// \file sampler_fused.hpp
/// \brief Fused sampling engine: up to 64 RRR draws per traversal batch
/// (DESIGN.md §10, `--sampler fused`).
///
/// The engine shares the indexing discipline of sampler.hpp — RRR set i is
/// drawn from the Philox stream (seed, i) with the identical draw order —
/// so every entry point here produces a collection byte-identical to its
/// scalar counterpart.  What changes is the execution shape: 64 samples
/// ("lanes") advance level-synchronously through one traversal pass, the
/// visited state is one 64-bit lane mask per vertex (support/bitvector.hpp's
/// LaneMaskVector, after Göktürk & Kaya arXiv 2008.03095), each lane's
/// Philox counter blocks are generated out of order in bulk
/// (rng/philox_buffered.hpp), the per-edge Bernoulli test is a precomputed
/// integer compare, each LT walk step is a prefetched search over its row's
/// precomputed cumulative weights guided by the row's total, and the sorted
/// output lists are *emitted* from the lane masks in vertex order instead
/// of sorted per set.
/// A lane whose IC set reaches the bitmap size of its collection
/// (rrr_collection.hpp) is emitted as that bitmap straight from the masks,
/// one 64×64 bit transpose per 64-vertex block, without building its list.
///
/// The graph-derived state lives in a FusedEdgeTable built once per solve
/// and shared read-only by every worker; a FusedSampler holds only
/// per-worker scratch, so a 64-draw batch costs its traversals plus O(n)
/// scratch and no O(m) set-up.
#ifndef RIPPLES_IMM_SAMPLER_FUSED_HPP
#define RIPPLES_IMM_SAMPLER_FUSED_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "imm/rrr_collection.hpp"
#include "rng/philox_buffered.hpp"
#include "support/bitvector.hpp"

namespace ripples {

/// Immutable per-graph edge state of the fused kernels, indexed by flat
/// in-edge position.  Built once per solve and shared read-only by every
/// sampling thread and every mpsim rank; it refers to \p graph, which must
/// outlive it.  An IC table holds the Bernoulli thresholds and the packed
/// edge stream; an LT table holds the per-row cumulative weights the walk
/// searches and each row's total, which guides the search.
class FusedEdgeTable {
public:
  /// Throws std::invalid_argument naming the edge if any weight lies
  /// outside [0, 1] (NaN included): the IC thresholds overflow their
  /// packed 32 bits above 1, and the LT prefix must be non-decreasing for
  /// the row search to equal the scalar engine's linear scan.
  FusedEdgeTable(const CsrGraph &graph, DiffusionModel model);

  [[nodiscard]] const CsrGraph &graph() const { return *graph_; }
  [[nodiscard]] DiffusionModel model() const { return model_; }

  /// Heap bytes this table holds: 16 per edge for IC; 8 per edge plus 8
  /// per vertex for LT.
  [[nodiscard]] std::size_t bytes() const {
    return (thresholds_.capacity() + packed_edges_.capacity()) *
               sizeof(std::uint64_t) +
           (lt_prefix_.capacity() + lt_totals_.capacity()) * sizeof(double);
  }
  /// Heap bytes a table for (\p graph, \p model) holds: 16 per edge for
  /// IC; 8 per edge plus 8 per vertex for LT.
  [[nodiscard]] static std::size_t bytes(const CsrGraph &graph,
                                         DiffusionModel model);

  /// thresholds()[e] = ceil(weight(e) * 2^53) for flat in-edge index e:
  /// uniform_unit(x) < weight  ⟺  (x >> 11) < thresholds()[e], exactly —
  /// weight is a float (24-bit significand), so weight * 2^53 is an exact
  /// double and the ceiling is the exact integer compare bound.  Turns the
  /// per-edge Bernoulli test into one integer compare, no FP.
  [[nodiscard]] const std::uint64_t *thresholds() const {
    return thresholds_.data();
  }
  /// Hot-loop edge stream, one word per in-edge:
  /// (thresholds()[e] >> 22) << 32 | target-vertex.  A single 8-byte load
  /// yields the target and the top 32 bits of the 54-bit threshold, so the
  /// kernel streams the same bytes per edge as the scalar engine's
  /// Adjacency walk; the (x >> 33) vs threshold-high compare decides every
  /// draw except the ~2^-31 ties, which fall back to thresholds().
  [[nodiscard]] const std::uint64_t *packed_edges() const {
    return packed_edges_.data();
  }
  /// LT only: lt_prefix()[e] = the running weight sum of e's in-edge row
  /// up to and including e, accumulated as RRRGenerator::reverse_walk_lt
  /// does (a double, in row order), so the first entry of a row above a
  /// draw x is exactly the edge the scalar engine's linear scan selects.
  [[nodiscard]] const double *lt_prefix() const { return lt_prefix_.data(); }
  /// LT only: lt_totals()[v] = the last lt_prefix() entry of v's row, the
  /// same double (0 for an empty row).  A draw at or above it falls into
  /// the row's residual mass; one below it guides the search by
  /// lt_row_guess.
  [[nodiscard]] const double *lt_totals() const { return lt_totals_.data(); }

private:
  const CsrGraph *graph_;
  DiffusionModel model_;
  std::vector<std::uint64_t> thresholds_;
  std::vector<std::uint64_t> packed_edges_;
  std::vector<double> lt_prefix_;
  std::vector<double> lt_totals_;
};

namespace detail {

/// First guess at the LT walk step's pick for a draw \p x over a row of
/// \p degree >= 1 entries that sum to \p total: \p degree when x >= total
/// (the residual mass, which needs no probe), otherwise the index where x
/// would land if the row's weights were equal, x / total * degree, clamped
/// into the row.
[[nodiscard]] inline std::size_t lt_row_guess(double x, double total,
                                              std::size_t degree) {
  if (!(x < total)) return degree;
  const auto guess = static_cast<std::size_t>(
      x / total * static_cast<double>(degree));
  return std::min(guess, degree - 1);
}

/// The LT walk step's search: the first j with row[j] > x, or \p degree if
/// there is none — std::upper_bound's answer over the non-decreasing
/// \p row, so equal prefixes (zero weights) and a draw equal to a prefix
/// keep their meaning.  \p guess is lt_row_guess's answer: \p degree is
/// taken as the residual mass without a probe, and any other guess is a
/// starting point only: the search gallops from it by doubling steps
/// towards the answer and bisects the last step, so the answer is exact
/// for every guess in [0, degree) and the cost grows with the log of the
/// guess's miss.
[[nodiscard]] inline std::size_t lt_row_search(const double *row,
                                               std::size_t degree, double x,
                                               std::size_t guess) {
  if (guess >= degree) return degree;
  // The answer lies in [lo, hi], with row[lo - 1] <= x (or lo == 0) and
  // row[hi] > x (or hi == degree).
  std::size_t lo = 0;
  std::size_t hi = degree;
  if (row[guess] > x) {
    hi = guess;
    std::size_t step = 1;
    while (step <= hi && row[hi - step] > x) {
      hi -= step;
      step *= 2;
    }
    if (step <= hi) lo = hi - step + 1;
  } else {
    lo = guess + 1;
    for (std::size_t step = 1; lo + step - 1 < degree; step *= 2) {
      const std::size_t probe = lo + step - 1;
      if (row[probe] > x) {
        hi = probe;
        break;
      }
      lo = probe + 1;
    }
  }
  return static_cast<std::size_t>(std::upper_bound(row + lo, row + hi, x) -
                                  row);
}

} // namespace detail

/// Reusable fused GenerateRR kernel: one instance per thread, holding the
/// lane-mask visited array, per-lane frontier scratch, and 64 buffered
/// Philox engines so repeated batches allocate nothing.  It reads the
/// shared \p table it was built over, which must outlive it.
class FusedSampler {
public:
  static constexpr unsigned kLanes = 64;

  explicit FusedSampler(const FusedEdgeTable &table);

  /// Generates the RRR sets for global sample indices \p sample_indices
  /// (at most kLanes of them), writing lane l into outs[l].  Each lane
  /// draws from sample_stream(seed, sample_indices[l]) with the scalar
  /// engines' exact draw order, so the output is byte-identical to calling
  /// RRRGenerator::generate_random_root per index.  \p model must be the
  /// table's model (asserted: each model reads only its own edge arrays).
  /// An LT step picks its in-edge by detail::lt_row_search over the
  /// table's row prefix, where the scalar engine scans the row.
  /// With \p bitmap_words = W > 0 (RRRCollection::bitmap_words), a set of
  /// at least W members comes out as its W-word bitmap record instead.
  void generate(DiffusionModel model, std::uint64_t seed,
                std::span<const std::uint64_t> sample_indices, RRRSet *outs,
                std::size_t bitmap_words = 0);

  /// Accumulated instrumentation over this instance's lifetime: distinct
  /// visited-mask words touched, and frontier passes executed.  Flushed to
  /// the sampler.fused.{words,passes} registry counters by the entry
  /// points below.
  [[nodiscard]] std::uint64_t words_touched() const { return words_; }
  [[nodiscard]] std::uint64_t passes() const { return passes_; }

  /// Heap bytes one instance's fixed scratch holds for \p graph (the
  /// visited lane masks and the touched list — the frontier buffers grow
  /// on demand and are excluded).
  [[nodiscard]] static std::size_t scratch_bytes(const CsrGraph &graph);

  /// What a fused admission window holds while it runs: one edge table for
  /// \p model, charged once, plus \p num_threads samplers' scratch.
  /// detail::with_fused_window reserves exactly this around the window and
  /// falls back to the scalar engine — byte-identical output — when
  /// refused (DESIGN.md §12).
  [[nodiscard]] static std::size_t window_bytes(const CsrGraph &graph,
                                                DiffusionModel model,
                                                unsigned num_threads);

private:
  /// Growable uninitialized append buffer for the per-lane BFS frontiers.
  /// std::vector::resize would value-initialize the headroom the branchless
  /// appends need — one wasted store per scanned edge — so this keeps raw
  /// storage and a separate length.
  struct FrontierBuffer {
    std::unique_ptr<vertex_t[]> data;
    std::size_t len = 0;
    std::size_t cap = 0;

    void ensure(std::size_t need) {
      if (need <= cap) return;
      std::size_t fresh_cap = std::max<std::size_t>(need, cap ? cap * 2 : 64);
      auto fresh = std::make_unique_for_overwrite<vertex_t[]>(fresh_cap);
      std::copy_n(data.get(), len, fresh.get());
      data = std::move(fresh);
      cap = fresh_cap;
    }
  };

  void run_ic(unsigned lanes, std::size_t bitmap_words, RRRSet *outs);
  void run_lt(unsigned lanes, RRRSet *outs);
  /// Rebuilds outs[0..lanes) sorted from the visited lane masks: one
  /// vertex-ordered scan replaces 64 per-set sorts (counts[l] = final size
  /// of lane l's set, accumulated during the traversal).  Lanes of at
  /// least \p bitmap_words members (when nonzero) become bitmap records.
  void emit_sorted(unsigned lanes, const std::size_t *counts,
                   std::size_t bitmap_words, RRRSet *outs);

  const FusedEdgeTable &table_;
  const CsrGraph &graph_;
  LaneMaskVector visited_;
  /// Distinct vertices whose lane-mask word is nonzero, maintained
  /// branchlessly: sized num_vertices + 1 up front so the hot loop can
  /// append with a masked increment (the append stores first and masks the
  /// length increment after, so the store slot must stay valid even once
  /// every vertex is already touched).
  std::vector<vertex_t> touched_;
  std::size_t touched_len_ = 0;
  std::array<BufferedPhilox, kLanes> rng_;
  std::array<FrontierBuffer, kLanes> frontier_;
  std::array<FrontierBuffer, kLanes> next_;
  std::array<vertex_t, kLanes> current_{};
  std::uint64_t words_ = 0;
  std::uint64_t passes_ = 0;
};

/// Fused counterpart of sample_sequential: sample_multithreaded_fused on a
/// team of one.
void sample_sequential_fused(const CsrGraph &graph, DiffusionModel model,
                             std::uint64_t target_total, std::uint64_t seed,
                             RRRCollection &collection);

/// Fused counterpart of sample_multithreaded: slots are pre-grown and
/// filled by a dynamic-schedule parallel for over kLanes-sample blocks, one
/// FusedSampler per thread over one edge table built per call.
/// Bit-identical to sample_sequential for every thread count.
void sample_multithreaded_fused(const CsrGraph &graph, DiffusionModel model,
                                std::uint64_t target_total, std::uint64_t seed,
                                unsigned num_threads, RRRCollection &collection);

/// Fused counterpart of sample_counter_indices over the caller's \p table,
/// whose graph and model it samples: generates the RRR sets at the given
/// global sample indices and appends them in the order given.
std::uint64_t sample_counter_indices_fused(
    const FusedEdgeTable &table, std::uint64_t seed,
    std::span<const std::uint64_t> indices, unsigned num_threads,
    RRRCollection &collection);

namespace detail {

/// The range loop under sample_multithreaded_fused, over the caller's
/// \p table: appends the RRR sets at global indices [first, first + count)
/// to \p collection, whatever its size.
void sample_counter_range_fused(const FusedEdgeTable &table,
                                std::uint64_t seed, std::uint64_t first,
                                std::uint64_t count, unsigned num_threads,
                                RRRCollection &collection);

/// The fused-lane rung of the budget ladder (DESIGN.md §12), shared by
/// every admission window that builds its own edge table: reserves
/// FusedSampler::window_bytes (consumer "sampler.fused_lanes"), builds the
/// table, calls \p run with it, drops the table and releases the bytes.
/// When the reservation is refused it calls \p run with null instead, and
/// the caller runs the scalar kernel — the same bytes out.
void with_fused_window(const CsrGraph &graph, DiffusionModel model,
                       unsigned num_threads,
                       const std::function<void(const FusedEdgeTable *)> &run);

} // namespace detail

} // namespace ripples

#endif // RIPPLES_IMM_SAMPLER_FUSED_HPP
