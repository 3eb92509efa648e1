/// \file steal.hpp
/// \brief Chunk machinery for the deterministic work-stealing sampler
/// (DESIGN.md §13).
///
/// RRR draws are partitioned into chunks keyed by their *global stream
/// indices*: a chunk names a leapfrog stream plus a half-open window of
/// global draw indices, never an executor.  Because the counter-mode RNG
/// derives every draw's Philox coordinates from its global index alone, any
/// thread or rank may execute any chunk and the emitted set is byte-for-byte
/// the one the home executor would have produced — so every steal schedule
/// yields the identical collection, and healing can reason about *which
/// draws exist* instead of *who ran them*.
#ifndef RIPPLES_IMM_STEAL_HPP
#define RIPPLES_IMM_STEAL_HPP

#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "diffusion/model.hpp"
#include "graph/csr.hpp"
#include "imm/rrr_collection.hpp"
#include "imm/sampler_fused.hpp"

namespace ripples::detail {

/// A stealable unit of sampling work: the draws of leapfrog \p stream whose
/// global indices fall in [\p begin, \p end).  The bounds are global-index
/// bounds, not stream-local counts; executors enumerate the member draws
/// with leapfrog_first_index(begin, stream, num_streams) and step by the
/// stream stride.
struct ChunkRange {
  std::uint64_t stream = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const ChunkRange &, const ChunkRange &) = default;
};

/// Splits the draws of \p stream (one of \p num_streams leapfrog streams)
/// with global indices in [\p from, \p to) into chunks of at most \p chunk
/// draws each.  chunk == 0 is clamped to 1.  Boundary arithmetic saturates
/// at UINT64_MAX instead of wrapping, so a caller asking for chunks near the
/// top of the index space gets a final short chunk, not an infinite loop.
[[nodiscard]] std::vector<ChunkRange>
make_stream_chunks(std::uint64_t from, std::uint64_t to, std::uint64_t stream,
                   std::uint64_t num_streams, std::uint64_t chunk);

/// Number of draws of \p stream with global indices in [begin, end).
[[nodiscard]] std::uint64_t chunk_draw_count(const ChunkRange &chunk,
                                             std::uint64_t num_streams);

/// Mutex-guarded chunk deque used by the intra-rank steal loop (and, shape
/// for shape, by the mpsim inter-rank queues).  Owners pop from the front;
/// thieves split from the back, taking ceil(n/2) so repeated steals halve
/// the victim's backlog.
class ChunkQueue {
public:
  void push(const ChunkRange &chunk);

  /// Owner-side pop (front).  Returns false when empty.
  bool pop(ChunkRange &out);

  /// Thief-side split: moves ceil(n/2) chunks from the back of this queue
  /// into \p out and returns how many were taken (0 when empty).
  std::size_t steal_half(std::vector<ChunkRange> &out);

  [[nodiscard]] std::size_t size() const;

private:
  mutable std::mutex mutex_;
  std::deque<ChunkRange> items_;
};

/// Per-stream record of which global draw ranges this rank has executed.
/// Under flexible placement (inter-rank stealing or a skewed partition) the
/// stream -> rank map no longer says where samples live, so healing gathers
/// every survivor's inventory and regenerates exactly the ranges nobody
/// holds.  Ranges merge on insert, so a window executed as many chunks
/// collapses back to one entry.
class StreamInventory {
public:
  void add(std::uint64_t stream, std::uint64_t begin, std::uint64_t end);

  /// Flat (stream, begin, end) triples for allgatherv.
  [[nodiscard]] std::vector<std::uint64_t> serialize() const;

  [[nodiscard]] bool empty() const { return streams_.empty(); }

private:
  struct Range {
    std::uint64_t begin;
    std::uint64_t end;
  };
  struct Stream {
    std::uint64_t id;
    std::vector<Range> ranges;
  };
  std::vector<Stream> streams_; // sorted by id

  friend std::vector<ChunkRange>
  missing_ranges(std::span<const std::uint64_t> gathered,
                 std::uint64_t num_streams, std::uint64_t target);
};

/// Given the concatenated serialized inventories of every survivor, returns
/// the per-stream gaps: ranges of [0, \p target) that contain draws of some
/// stream but appear in no inventory.  Deterministic — every rank feeding
/// it the same gathered bytes computes the same gap list, so the healed
/// regeneration schedule needs no further coordination.
[[nodiscard]] std::vector<ChunkRange>
missing_ranges(std::span<const std::uint64_t> gathered,
               std::uint64_t num_streams, std::uint64_t target);

/// Intra-rank chunked counter sampler: splits \p indices into chunks of
/// \p chunk positions dealt round-robin to per-thread queues, then runs the
/// steal loop across \p num_threads OpenMP threads (honouring the
/// steal_schedule perturbation hook).  Every position j writes its set into
/// slot first_slot + j of \p collection, so the result is byte-identical to
/// sample_counter_indices / sample_counter_indices_fused on the same
/// indices regardless of which thread ran which chunk.  A non-null
/// \p fused_table selects the fused engine over that shared table (built
/// for \p graph and \p model); null selects the scalar engine.  Returns the
/// number of sets generated.
std::uint64_t sample_counter_chunked(const CsrGraph &graph,
                                     DiffusionModel model, std::uint64_t seed,
                                     std::span<const std::uint64_t> indices,
                                     unsigned num_threads, std::uint64_t chunk,
                                     const FusedEdgeTable *fused_table,
                                     RRRCollection &collection);

} // namespace ripples::detail

#endif // RIPPLES_IMM_STEAL_HPP
