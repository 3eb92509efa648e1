#include "imm/steal.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include <omp.h>

#include "imm/rrr.hpp"
#include "imm/sampler.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/steal_schedule.hpp"

namespace ripples::detail {

namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// Same registry accounting as the unchunked samplers, so the
/// sampler.samples_generated counter is engine-agnostic.
void count_generated(std::uint64_t batch) {
  if (!metrics::enabled()) return;
  static metrics::Counter &generated =
      metrics::Registry::instance().counter("sampler.samples_generated");
  generated.add(batch);
}

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

void ChunkQueue::push(const ChunkRange &chunk) {
  std::lock_guard<std::mutex> lock(mutex_);
  items_.push_back(chunk);
}

bool ChunkQueue::pop(ChunkRange &out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (items_.empty()) return false;
  out = items_.front();
  items_.pop_front();
  return true;
}

std::size_t ChunkQueue::steal_half(std::vector<ChunkRange> &out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (items_.empty()) return 0;
  const std::size_t take = (items_.size() + 1) / 2; // ceil(n/2)
  const std::size_t keep = items_.size() - take;
  out.insert(out.end(), items_.begin() + static_cast<std::ptrdiff_t>(keep),
             items_.end());
  items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(keep),
               items_.end());
  return take;
}

std::size_t ChunkQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
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

std::uint64_t sample_counter_chunked(const CsrGraph &graph,
                                     DiffusionModel model, std::uint64_t seed,
                                     std::span<const std::uint64_t> indices,
                                     unsigned num_threads, std::uint64_t chunk,
                                     const FusedEdgeTable *fused_table,
                                     RRRCollection &collection) {
  RIPPLES_ASSERT(num_threads >= 1);
  RIPPLES_ASSERT(fused_table == nullptr ||
                 (&fused_table->graph() == &graph &&
                  fused_table->model() == model));
  if (indices.empty()) return 0;
  if (chunk == 0) chunk = 1;
  const std::uint64_t first_slot = collection.grow(indices.size());
  auto &sets = collection.mutable_sets();

  // Position chunks over the indices array, dealt round-robin across the
  // per-thread queues.  ChunkRange bounds are *positions* here (the global
  // stream index lives in indices[pos]); the stream field records the queue
  // the chunk was dealt to, which is bookkeeping only — execution reads the
  // RNG coordinates from indices[], so any thread emits the same bytes.
  const std::size_t nq = num_threads;
  std::vector<ChunkQueue> queues(nq);
  std::size_t dealt_to = 0;
  for (std::uint64_t lo = 0; lo < indices.size(); ) {
    const std::uint64_t hi =
        std::min<std::uint64_t>(lo + chunk, indices.size());
    queues[dealt_to].push({static_cast<std::uint64_t>(dealt_to), lo, hi});
    dealt_to = (dealt_to + 1) % nq;
    lo = hi;
  }

#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    const std::size_t tid = static_cast<std::size_t>(omp_get_thread_num());
    // Only the engine this call uses: the scalar generator's n-bit visited
    // vector, or a sampler's O(n) scratch over the caller's shared table.
    std::optional<RRRGenerator> generator;
    std::optional<FusedSampler> sampler;
    if (fused_table != nullptr)
      sampler.emplace(*fused_table);
    else
      generator.emplace(graph);

    auto execute = [&](const ChunkRange &c) {
      if (sampler) {
        for (std::uint64_t lo = c.begin; lo < c.end;) {
          const std::uint64_t lanes =
              std::min<std::uint64_t>(FusedSampler::kLanes, c.end - lo);
          sampler->generate(model, seed,
                            indices.subspan(static_cast<std::size_t>(lo),
                                            static_cast<std::size_t>(lanes)),
                            &sets[first_slot + lo],
                            collection.bitmap_words());
          lo += lanes;
        }
      } else {
        for (std::uint64_t j = c.begin; j < c.end; ++j) {
          Philox4x32 rng =
              sample_stream(seed, indices[static_cast<std::size_t>(j)]);
          RRRSet &slot = sets[first_slot + j];
          generator->generate_random_root(model, rng, slot);
          collection.seal(slot);
        }
      }
    };

    std::uint64_t step = 0;
    std::vector<ChunkRange> grabbed;
    for (;;) {
      const steal_schedule::Decision d =
          steal_schedule::decide(static_cast<int>(tid), step++);
      ChunkRange item;
      bool have = false;
      bool tried_steal = false;
      auto try_steal = [&]() -> bool {
        tried_steal = true;
        for (std::size_t off = 0; off < nq; ++off) {
          const std::size_t victim =
              (tid + 1 + static_cast<std::size_t>(d.victim_offset % nq) +
               off) %
              nq;
          if (victim == tid) continue;
          grabbed.clear();
          if (queues[victim].steal_half(grabbed) > 0) {
            item = grabbed.front();
            for (std::size_t g = 1; g < grabbed.size(); ++g)
              queues[tid].push(grabbed[g]);
            return true;
          }
        }
        return false;
      };
      if (d.allow_steal && d.steal_first && nq > 1) have = try_steal();
      if (!have) have = queues[tid].pop(item);
      if (!have && d.allow_steal && !tried_steal && nq > 1) have = try_steal();
      if (!have) break;
      execute(item);
    }
  }
  count_generated(indices.size());
  return indices.size();
}

} // namespace ripples::detail
