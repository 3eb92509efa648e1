/// \file sampler.hpp
/// \brief Sample (Alg. 3): batch generation of RRR sets.
///
/// All engines share one indexing discipline: RRR set i of an experiment is
/// drawn from the Philox stream (seed, i) and its root is the stream's first
/// draw.  The collection R is therefore a pure function of (graph, model,
/// seed, |R|) — identical whether it was produced sequentially, by any
/// number of OpenMP threads, or by any number of mpsim ranks.  This is the
/// property the paper obtains from leap-frog LCG splitting ("accurate
/// generation of pseudorandom numbers in parallel is critical"), delivered
/// here with a counter-based generator; bench/ablation_rng_streams compares
/// the paper's leap-frog LCG split against it.
#ifndef RIPPLES_IMM_SAMPLER_HPP
#define RIPPLES_IMM_SAMPLER_HPP

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "imm/rrr_collection.hpp"
#include "support/assert.hpp"

namespace ripples {

/// Appends samples to \p collection until it holds \p target_total sets.
/// No-op if it already does.  sample_multithreaded on a team of one.
void sample_sequential(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       RRRCollection &collection);

/// OpenMP variant: slots are pre-grown and filled by a dynamic-schedule
/// parallel for, one RRRGenerator per thread.  Bit-identical for every
/// thread count.
void sample_multithreaded(const CsrGraph &graph, DiffusionModel model,
                          std::uint64_t target_total, std::uint64_t seed,
                          unsigned num_threads, RRRCollection &collection);

namespace detail {

/// The range loop under sample_multithreaded: appends the RRR sets at
/// global indices [first, first + count) to \p collection, whatever its
/// size.  The shared-memory drivers' admission windows call it directly,
/// so a window generated into scratch needs no index list.
void sample_counter_range(const CsrGraph &graph, DiffusionModel model,
                          std::uint64_t seed, std::uint64_t first,
                          std::uint64_t count, unsigned num_threads,
                          RRRCollection &collection);

} // namespace detail

/// Baseline variant: same samples, stored dual-direction (sample list plus
/// per-vertex incidence), reproducing the Table 2 baseline's footprint and
/// insertion cost.
void sample_hypergraph(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       HypergraphCollection &collection);

/// First global sample index >= \p from belonging to leap-frog stream
/// \p stream of \p num_streams (index i belongs to stream i mod num_streams).
/// Requires num_streams > 0 and stream < num_streams; saturates to
/// UINT64_MAX when the first such index would overflow (UINT64_MAX is never
/// a reachable sample index, so range loops over [from, to) simply produce
/// nothing).
[[nodiscard]] inline std::uint64_t
leapfrog_first_index(std::uint64_t from, std::uint64_t stream,
                     std::uint64_t num_streams) {
  RIPPLES_ASSERT(num_streams > 0);
  RIPPLES_ASSERT(stream < num_streams);
  std::uint64_t remainder = from % num_streams;
  std::uint64_t advance = stream >= remainder
                              ? stream - remainder
                              : num_streams - remainder + stream;
  if (advance > std::numeric_limits<std::uint64_t>::max() - from)
    return std::numeric_limits<std::uint64_t>::max();
  return from + advance;
}

/// Appends to \p out, ascending, the global sample indices of leap-frog
/// stream \p stream of \p num_streams that lie in [from, to) — the index
/// walk of every window, steal chunk and heal range of imm_distributed.
/// Stops before the next index would wrap past UINT64_MAX, so a range
/// reaching the top of the index space terminates.
inline void append_stream_indices(std::vector<std::uint64_t> &out,
                                  std::uint64_t from, std::uint64_t to,
                                  std::uint64_t stream,
                                  std::uint64_t num_streams) {
  for (std::uint64_t i = leapfrog_first_index(from, stream, num_streams);
       i < to; i += num_streams) {
    out.push_back(i);
    if (num_streams > std::numeric_limits<std::uint64_t>::max() - i) break;
  }
}

/// Generates the RRR sets at the given global sample indices from their
/// per-sample counter streams (sample_stream(seed, i)) and appends them to
/// \p collection in the order given; returns indices.size().  Counter
/// streams make every index independently addressable, so any subset of a
/// lost partition can be regenerated by any rank with any thread count.
std::uint64_t sample_counter_indices(const CsrGraph &graph,
                                     DiffusionModel model, std::uint64_t seed,
                                     std::span<const std::uint64_t> indices,
                                     unsigned num_threads,
                                     RRRCollection &collection);

} // namespace ripples

#endif // RIPPLES_IMM_SAMPLER_HPP
