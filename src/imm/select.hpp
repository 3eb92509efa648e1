/// \file select.hpp
/// \brief SelectSeeds: greedy maximum-coverage over the RRR sets (Alg. 4).
///
/// Selecting the k vertices covering the most RRR sets is the max-coverage
/// greedy: maintain per-vertex counters of sample membership, repeatedly
/// take the argmax, then retire every sample containing it (those samples
/// can no longer add influence) and decrement the counters of their members.
///
/// One body runs that greedy for every driver and every storage:
/// select_seeds_multithreaded, Algorithm 4 with ownership in two
/// directions.  Each thread owns the counters of a vertex interval
/// [vl, vh), so counting and decrementing need no atomics; sorted samples
/// let a thread binary-search directly to its interval inside every sample.
/// Each thread also owns a contiguous block of sample ids and is the only
/// one to search its block's live samples for the round's seed, reading a
/// sample's members only when its 64-bit membership signature holds the
/// seed's bit; the whole team then decrements from the hit lists.
///  * The pick is the one step a caller varies (SelectionHooks): shared
///    memory takes the team's argmax; a distributed rank (Section 3.2,
///    imm_distributed.cpp) allreduces its counters with the other ranks'
///    on the team's primary thread.
///  * Compressed storage (DESIGN.md §12) feeds the same body: a live entry
///    keeps its record's payload offset, the count pass decodes each record
///    once per thread, and a round decodes a record only on a signature
///    hit.
///  * Every record kind (rrr_collection.hpp) reads the same way: on a
///    bitmap record containment is one bit test and the signature is all
///    ones, and counting and decrementing walk its set bits.
/// select_seeds is the body on a team of one.  select_seeds_lazy (CELF) and
/// the hypergraph baseline's select_seeds_hypergraph are the comparison
/// variants the benches ablate; CELF is written over the span kernels
/// below, which see list records only.
///
/// Tie-breaking: the smallest vertex id among maxima, in every
/// implementation — the cross-implementation determinism tests rely on it.
#ifndef RIPPLES_IMM_SELECT_HPP
#define RIPPLES_IMM_SELECT_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "imm/rrr_collection.hpp"

namespace ripples {

struct SelectionResult {
  std::vector<vertex_t> seeds;
  std::uint64_t covered_samples = 0;
  std::uint64_t total_samples = 0;

  /// F_R(S): fraction of RRR sets covered by the selected seeds; the input
  /// to the OPT estimator of the martingale loop.
  [[nodiscard]] double coverage_fraction() const {
    return total_samples == 0
               ? 0.0
               : static_cast<double>(covered_samples) /
                     static_cast<double>(total_samples);
  }
};

/// The steps a caller varies in Alg. 4's body.  Both functions run on the
/// team's primary thread — the caller's own — between barriers, so they see
/// the whole team's counters and may call collectives; whatever they throw
/// leaves the team first and is rethrown by the entry point.
struct SelectionHooks {
  /// Round \p round's seed: an unselected vertex chosen from the counters
  /// of the local samples and the flags of the seeds picked so far.  Empty:
  /// the team's argmax over the counters.
  std::function<vertex_t(std::uint32_t round,
                         std::span<const std::uint32_t> counters,
                         std::span<const std::uint8_t> selected)>
      pick;
  /// Runs before the count pass and after each round's pick, before the
  /// search reads the samples (the store's ScrubMode::Paranoid scrub).
  std::function<void()> verify;
};

/// Greedy max-coverage over sorted samples: Algorithm 4 on a team of one.
[[nodiscard]] SelectionResult select_seeds(vertex_t num_vertices,
                                           std::uint32_t k,
                                           std::span<const RRRSet> samples);

/// The same over the compressed representation.
[[nodiscard]] SelectionResult
select_seeds(vertex_t num_vertices, std::uint32_t k,
             const CompressedRRRCollection &collection);

/// Algorithm 4: interval-partitioned multithreaded selection on a team of
/// up to \p num_threads threads.  A smaller team (a nested call,
/// OMP_THREAD_LIMIT) is fine: the result is identical to the sequential
/// version for any thread count and any team size.
[[nodiscard]] SelectionResult
select_seeds_multithreaded(vertex_t num_vertices, std::uint32_t k,
                           std::span<const RRRSet> samples,
                           unsigned num_threads);
/// The same body over a collection of either record kind or over the
/// compressed arena, with the caller's \p hooks.  Under a pick, the result's
/// covered_samples counts the local samples the seeds cover.
[[nodiscard]] SelectionResult
select_seeds_multithreaded(vertex_t num_vertices, std::uint32_t k,
                           const RRRCollection &collection,
                           unsigned num_threads,
                           const SelectionHooks &hooks = {});
[[nodiscard]] SelectionResult
select_seeds_multithreaded(vertex_t num_vertices, std::uint32_t k,
                           const CompressedRRRCollection &collection,
                           unsigned num_threads,
                           const SelectionHooks &hooks = {});

/// Baseline selection over dual-direction storage.
[[nodiscard]] SelectionResult
select_seeds_hypergraph(vertex_t num_vertices, std::uint32_t k,
                        const HypergraphCollection &collection);

/// Lazy-greedy selection (the paper's future-work item "exploitation of
/// problem properties such as submodularity", realized CELF-style at the
/// coverage level): a max-heap of cached counter values replaces the O(n)
/// argmax scan of each greedy round.  Because coverage counters only
/// decrease as samples retire, a popped entry whose cached value still
/// matches the live counter is globally maximal; stale entries are
/// refreshed and reinserted.  Returns exactly the same seeds as
/// select_seeds (identical tie-breaking).
[[nodiscard]] SelectionResult
select_seeds_lazy(vertex_t num_vertices, std::uint32_t k,
                  std::span<const RRRSet> samples);

// ---------------------------------------------------------------------------
// Building blocks over list records: CELF's greedy, the benches' kernel
// replay, and the distributed pick's argmax.
// ---------------------------------------------------------------------------

/// Fills \p counters (size n, zeroed by the caller) with the number of
/// samples containing each vertex.
void count_memberships(std::span<const RRRSet> samples,
                       std::span<std::uint32_t> counters);

/// Retires every live sample containing \p seed: marks it in \p retired
/// (one byte per sample), decrements the counters of all its members, and
/// returns how many samples were retired.  `counters[seed]` ends at 0.
std::uint64_t retire_samples_containing(vertex_t seed,
                                        std::span<const RRRSet> samples,
                                        std::span<std::uint32_t> counters,
                                        std::vector<std::uint8_t> &retired);

/// Smallest-id argmax over the counters, skipping already-selected vertices;
/// if every unselected counter is zero, returns the smallest unselected id.
[[nodiscard]] vertex_t argmax_counter(std::span<const std::uint32_t> counters,
                                      std::span<const std::uint8_t> selected);

/// One (vertex, count) pair, trivially copyable so mpsim collectives ship
/// arrays of them directly (the benches' collective kernels).
struct CounterPair {
  vertex_t vertex;
  std::uint32_t count;
};

namespace detail {
/// Selection-exchange instrumentation shared by the mpsim drivers: adds the
/// 4-byte counter words the calling rank contributes to
/// `imm.select.exchange_words`.  A no-op unless metrics::enabled().
void record_exchange_words(std::uint64_t words);
} // namespace detail

} // namespace ripples

#endif // RIPPLES_IMM_SELECT_HPP
