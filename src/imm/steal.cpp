#include "imm/steal.hpp"

#include <algorithm>
#include <limits>

#include "imm/sampler.hpp"
#include "support/assert.hpp"

namespace ripples::detail {

namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

} // namespace

std::vector<ChunkRange> make_stream_chunks(std::uint64_t from, std::uint64_t to,
                                           std::uint64_t stream,
                                           std::uint64_t num_streams,
                                           std::uint64_t chunk) {
  RIPPLES_ASSERT(num_streams >= 1);
  RIPPLES_ASSERT(stream < num_streams);
  if (chunk == 0) chunk = 1;
  std::vector<ChunkRange> chunks;
  std::uint64_t i = leapfrog_first_index(from, stream, num_streams);
  while (i < to) {
    // One chunk spans `chunk` draws of this stream: chunk * num_streams
    // global indices, saturated so an end near 2^64 clamps instead of
    // wrapping back below `i`.
    const std::uint64_t span =
        chunk > kMax / num_streams ? kMax : chunk * num_streams;
    std::uint64_t end = span > kMax - i ? kMax : i + span;
    if (end > to) end = to;
    chunks.push_back({stream, i, end});
    if (end >= to || end == kMax) break;
    i = end; // aligned: end == i + chunk * num_streams keeps i ≡ stream
  }
  return chunks;
}

std::uint64_t chunk_draw_count(const ChunkRange &chunk,
                               std::uint64_t num_streams) {
  RIPPLES_ASSERT(num_streams >= 1);
  const std::uint64_t first =
      leapfrog_first_index(chunk.begin, chunk.stream, num_streams);
  if (first >= chunk.end) return 0;
  return (chunk.end - 1 - first) / num_streams + 1;
}

void StreamInventory::add(std::uint64_t stream, std::uint64_t begin,
                          std::uint64_t end) {
  if (begin >= end) return;
  auto stream_it = std::lower_bound(
      streams_.begin(), streams_.end(), stream,
      [](const Stream &s, std::uint64_t id) { return s.id < id; });
  if (stream_it == streams_.end() || stream_it->id != stream)
    stream_it = streams_.insert(stream_it, Stream{stream, {}});
  auto &ranges = stream_it->ranges;
  auto it = std::lower_bound(ranges.begin(), ranges.end(), begin,
                             [](const Range &r, std::uint64_t b) {
                               return r.begin < b;
                             });
  it = ranges.insert(it, Range{begin, end});
  // Merge with overlapping or adjacent neighbours on both sides.
  if (it != ranges.begin()) {
    auto prev = it - 1;
    if (prev->end >= it->begin) {
      prev->end = std::max(prev->end, it->end);
      it = ranges.erase(it) - 1;
    }
  }
  while (it + 1 != ranges.end() && it->end >= (it + 1)->begin) {
    it->end = std::max(it->end, (it + 1)->end);
    ranges.erase(it + 1);
  }
}

std::vector<std::uint64_t> StreamInventory::serialize() const {
  std::vector<std::uint64_t> flat;
  for (const Stream &s : streams_)
    for (const Range &r : s.ranges) {
      flat.push_back(s.id);
      flat.push_back(r.begin);
      flat.push_back(r.end);
    }
  return flat;
}

std::vector<ChunkRange> missing_ranges(std::span<const std::uint64_t> gathered,
                                       std::uint64_t num_streams,
                                       std::uint64_t target) {
  RIPPLES_ASSERT(gathered.size() % 3 == 0);
  RIPPLES_ASSERT(num_streams >= 1);
  std::vector<std::vector<StreamInventory::Range>> executed(
      static_cast<std::size_t>(num_streams));
  for (std::size_t i = 0; i < gathered.size(); i += 3) {
    const std::uint64_t stream = gathered[i];
    RIPPLES_ASSERT(stream < num_streams);
    executed[static_cast<std::size_t>(stream)].push_back(
        {gathered[i + 1], gathered[i + 2]});
  }
  std::vector<ChunkRange> missing;
  for (std::uint64_t s = 0; s < num_streams; ++s) {
    auto &ranges = executed[static_cast<std::size_t>(s)];
    std::sort(ranges.begin(), ranges.end(),
              [](const StreamInventory::Range &a,
                 const StreamInventory::Range &b) { return a.begin < b.begin; });
    // A gap [a, b) matters only if it contains a draw of stream s.
    auto emit_gap = [&](std::uint64_t a, std::uint64_t b) {
      if (a >= b) return;
      if (leapfrog_first_index(a, s, num_streams) < b)
        missing.push_back({s, a, b});
    };
    std::uint64_t cursor = 0;
    for (const StreamInventory::Range &r : ranges) {
      if (cursor >= target) break;
      if (r.begin > cursor) emit_gap(cursor, std::min(r.begin, target));
      cursor = std::max(cursor, r.end);
    }
    emit_gap(cursor, target);
  }
  return missing;
}

} // namespace ripples::detail
