/// \file steal.hpp
/// \brief Chunk machinery for the deterministic inter-rank work-stealing
/// sampler (DESIGN.md §13).
///
/// RRR draws are partitioned into chunks keyed by their *global stream
/// indices*: a chunk names a leapfrog stream plus a half-open window of
/// global draw indices, never an executor.  Because the counter-mode RNG
/// derives every draw's Philox coordinates from its global index alone, any
/// rank may execute any chunk and the emitted set is byte-for-byte
/// the one the home executor would have produced — so every steal schedule
/// yields the identical collection, and healing can reason about *which
/// draws exist* instead of *who ran them*.
#ifndef RIPPLES_IMM_STEAL_HPP
#define RIPPLES_IMM_STEAL_HPP

#include <cstdint>
#include <span>
#include <vector>

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

} // namespace ripples::detail

#endif // RIPPLES_IMM_STEAL_HPP
