#include "imm/sampler_fused.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <omp.h>

#include "rng/distributions.hpp"
#include "support/assert.hpp"
#include "support/memory.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace ripples {

namespace {

/// Same registry account the scalar engines feed, so fused and sequential
/// runs are comparable on one counter.
void count_generated(std::uint64_t batch) {
  if (!metrics::enabled()) return;
  static metrics::Counter &generated =
      metrics::Registry::instance().counter("sampler.samples_generated");
  generated.add(batch);
}

/// Fused-kernel instrumentation: distinct lane-mask words touched and
/// frontier passes executed.  Accumulated per FusedSampler and flushed once
/// per engine call (once per worker in the OpenMP variants) to keep atomic
/// traffic off the traversal.
void flush_fused_counters(const FusedSampler &sampler) {
  if (!metrics::enabled()) return;
  static metrics::Counter &words =
      metrics::Registry::instance().counter("sampler.fused.words");
  static metrics::Counter &passes =
      metrics::Registry::instance().counter("sampler.fused.passes");
  words.add(sampler.words_touched());
  passes.add(sampler.passes());
}

} // namespace

FusedEdgeTable::FusedEdgeTable(const CsrGraph &graph, DiffusionModel model)
    : graph_(&graph), model_(model) {
  const bool ic = model == DiffusionModel::IndependentCascade;
  const std::uint64_t n = graph.num_vertices();
  if (ic) {
    thresholds_.resize(graph.num_edges());
    packed_edges_.resize(graph.num_edges());
  } else {
    lt_prefix_.resize(graph.num_edges());
    lt_totals_.resize(n);
  }
  for (vertex_t v = 0; v < n; ++v) {
    auto in_neighbors = graph.in_neighbors(v);
    const std::size_t row_begin = graph.in_offsets()[v];
    double cumulative = 0.0;
    for (std::size_t j = 0; j < in_neighbors.size(); ++j) {
      const float weight = in_neighbors[j].weight;
      if (!(weight >= 0.0f && weight <= 1.0f))
        throw std::invalid_argument(
            "fused edge table: edge " + std::to_string(in_neighbors[j].vertex) +
            " -> " + std::to_string(v) + " has weight " +
            std::to_string(weight) + ", expected a value in [0, 1]");
      if (!ic) {
        cumulative += weight;
        lt_prefix_[row_begin + j] = cumulative;
        continue;
      }
      const auto threshold = static_cast<std::uint64_t>(
          std::ceil(static_cast<double>(weight) * 0x1.0p53));
      thresholds_[row_begin + j] = threshold;
      packed_edges_[row_begin + j] =
          ((threshold >> 22) << 32) | in_neighbors[j].vertex;
    }
    if (!ic) lt_totals_[v] = cumulative;
  }
}

std::size_t FusedEdgeTable::bytes(const CsrGraph &graph,
                                  DiffusionModel model) {
  if (model != DiffusionModel::IndependentCascade)
    return (graph.num_edges() + graph.num_vertices()) *
           sizeof(double); // lt_prefix + lt_totals
  return graph.num_edges() * sizeof(std::uint64_t) * 2; // thresholds + packed
}

FusedSampler::FusedSampler(const FusedEdgeTable &table)
    : table_(table), graph_(table.graph()),
      visited_(graph_.num_vertices()), touched_(graph_.num_vertices() + 1) {}

std::size_t FusedSampler::scratch_bytes(const CsrGraph &graph) {
  const std::size_t n = graph.num_vertices();
  return n * sizeof(std::uint64_t)      // visited_ lane masks
         + (n + 1) * sizeof(vertex_t);  // touched_
}

std::size_t FusedSampler::window_bytes(const CsrGraph &graph,
                                       DiffusionModel model,
                                       unsigned num_threads) {
  return FusedEdgeTable::bytes(graph, model) +
         scratch_bytes(graph) * num_threads;
}

void FusedSampler::generate(DiffusionModel model, std::uint64_t seed,
                            std::span<const std::uint64_t> sample_indices,
                            RRRSet *outs, std::size_t bitmap_words) {
  const auto lanes = static_cast<unsigned>(sample_indices.size());
  RIPPLES_ASSERT(lanes >= 1 && lanes <= kLanes);
  RIPPLES_ASSERT_MSG(model == table_.model(),
                     "sampler model differs from its edge table's");
  const std::uint64_t n = graph_.num_vertices();
  touched_len_ = 0;
  for (unsigned l = 0; l < lanes; ++l) {
    // The stream construction of sample_stream(seed, i): counter_hi 0 is
    // reserved for forward simulation, so sample i draws from i + 1.
    rng_[l].reset(seed, sample_indices[l] + 1);
    auto root = static_cast<vertex_t>(uniform_index(rng_[l], n));
    if (visited_.set_first(root, l)) touched_[touched_len_++] = root;
    // Lane l's frontier buffer starts with the root: IC's BFS frontier, or
    // the whole LT walk.  Neither model touches outs during the traversal.
    frontier_[l].ensure(1);
    frontier_[l].data[0] = root;
    frontier_[l].len = 1;
    current_[l] = root;
  }
  if (model == DiffusionModel::IndependentCascade) {
    run_ic(lanes, bitmap_words, outs);
  } else {
    run_lt(lanes);
    // Sorted in the scratch buffer, then written once at its exact size:
    // appending to the slot would leave it with push_back's growth slack.
    for (unsigned l = 0; l < lanes; ++l) {
      vertex_t *walk = frontier_[l].data.get();
      const std::size_t len = frontier_[l].len;
      std::sort(walk, walk + len);
      if (bitmap_words != 0 && len >= bitmap_words)
        outs[l] = RRRCollection::to_bitmap({walk, len}, bitmap_words);
      else
        outs[l] = RRRSet(walk, walk + len);
    }
  }
  words_ += touched_len_;
  // Reset only the touched words: one clear serves all 64 lanes, where the
  // scalar engines clear per-sample bit lists.
  for (std::size_t t = 0; t < touched_len_; ++t)
    visited_.clear_word(touched_[t]);
}

void FusedSampler::run_ic(unsigned lanes, std::size_t bitmap_words,
                          RRRSet *outs) {
  // Level-synchronous across lanes, but *within* a lane the frontier is
  // scanned in exactly the scalar engine's discovery order and every edge
  // decision consumes the lane's next stream draw — which is why the
  // per-lane output is byte-identical to RRRGenerator::reverse_bfs_ic.
  // Interleaving lanes per level is free because lanes never share draws.
  //
  // The edge loop is branchless: the Bernoulli outcome is an unpredictable
  // coin flip, so the scalar engine pays a branch misprediction on nearly
  // every live edge.  Here each edge decision is a straight-line masked
  // sequence — the draw index advances only past unvisited targets (peek/
  // consume on the bulk-refilled buffer, preserving the scalar engine's
  // exact draw positions), the Bernoulli test is one integer compare
  // against the precomputed threshold, and the visited word, next
  // frontier, and touched list all append by masked increment.
  std::array<std::size_t, kLanes> counts;
  for (unsigned l = 0; l < lanes; ++l) counts[l] = 1; // the root
  // Everything the edge loop touches lives in locals and raw pointers:
  // member accesses through `this` cannot be register-allocated once the
  // loop stores through uint64_t pointers (the visited words), and a
  // memory round trip on the touched length would serialize every edge.
  vertex_t *touched = touched_.data();
  std::size_t touched_len = touched_len_;
  std::uint64_t *vis = visited_.word_data();
  const std::uint64_t *thresholds = table_.thresholds();
  const std::uint64_t *packed = table_.packed_edges();
  const edge_offset_t *offsets = graph_.in_offsets().data();
  std::uint64_t passes = 0;
  for (;;) {
    bool any = false;
    for (unsigned l = 0; l < lanes; ++l) {
      FrontierBuffer &frontier = frontier_[l];
      if (frontier.len == 0) continue;
      any = true;
      FrontierBuffer &next = next_[l];
      BufferedPhilox &rng = rng_[l];
      // One next-frontier reservation per pass (worst case: every scanned
      // edge hits), so the masked appends below never need a capacity
      // branch.  Summing the rows up front costs two cache-hot loads per
      // frontier vertex and removes all bookkeeping from the edge loop.
      std::size_t pass_edges = 0;
      for (std::size_t fi = 0; fi < frontier.len; ++fi) {
        const vertex_t v = frontier.data[fi];
        pass_edges += offsets[v + 1] - offsets[v];
      }
      next.len = 0;
      next.ensure(pass_edges);
      vertex_t *next_base = next.data.get();
      vertex_t *next_ptr = next_base;
      vertex_t *touched_ptr = touched + touched_len;
      // Draws are consumed lazily from the peeked buffer: one
      // availability check per row, one consume per refill, instead of a
      // peek/consume pair per row.  consume() never moves buffered data,
      // so the pointer stays valid until the next peek.
      const std::uint64_t *draws = nullptr;
      std::size_t avail = 0;
      std::size_t used = 0;
      for (std::size_t fi = 0; fi < frontier.len; ++fi) {
        const vertex_t v = frontier.data[fi];
        const std::size_t row_begin = offsets[v];
        const std::size_t total = offsets[v + 1] - row_begin;
        for (std::size_t off = 0; off < total;) {
          const std::size_t chunk =
              std::min(total - off, BufferedPhilox::capacity());
          if (avail - used < chunk) {
            rng.consume(used);
            draws = rng.peek(chunk);
            avail = rng.buffered();
            used = 0;
          }
          // Moving pointers instead of base+index pairs: the loop body
          // has to keep every live value in registers to stay stall-free.
          const std::uint64_t *draw_ptr = draws + used;
          const std::uint64_t *edge = packed + row_begin + off;
          const std::uint64_t *edge_end = edge + chunk;
          for (; edge != edge_end; ++edge) {
            const std::uint64_t pk = *edge;
            const auto u = static_cast<vertex_t>(pk);
            const std::uint64_t word = vis[u];
            const std::uint64_t unvisited = ((word >> l) & 1) ^ 1;
            const std::uint64_t x = *draw_ptr;
            draw_ptr += unvisited;
            // Exactly uniform_unit(rng) < weight: almost every draw is
            // decided by the packed high-threshold compare; the ~2^-31
            // ties fall back to the full 54-bit threshold (the branch is
            // never-taken in practice, and harmless when the target is
            // visited — hit is masked by unvisited either way).
            std::uint64_t below = (x >> 33) < (pk >> 32);
            if (__builtin_expect((x >> 33) == (pk >> 32), 0))
              below = (x >> 11) < thresholds[edge - packed];
            const std::uint64_t hit = unvisited & below;
            vis[u] = word | (hit << l);
            *touched_ptr = u;
            touched_ptr += hit & static_cast<std::uint64_t>(word == 0);
            *next_ptr = u;
            next_ptr += hit;
          }
          used = static_cast<std::size_t>(draw_ptr - draws);
          off += chunk;
        }
      }
      rng.consume(used);
      touched_len = static_cast<std::size_t>(touched_ptr - touched);
      const auto next_len = static_cast<std::size_t>(next_ptr - next_base);
      counts[l] += next_len;
      next.len = next_len;
      std::swap(frontier, next);
    }
    if (!any) break;
    ++passes;
  }
  touched_len_ = touched_len;
  passes_ += passes;
  emit_sorted(lanes, counts.data(), bitmap_words, outs);
}

namespace {

/// In-place transpose of a 64×64 bit matrix, row i = m[i], column j = bit
/// j: afterwards bit i of m[j] is what bit j of m[i] was.  Six rounds of
/// block swaps, halving the block edge from 32 to 1 (Hacker's Delight
/// §7-3, in least-significant-bit-first order).
void transpose64(std::uint64_t *m) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

} // namespace

void FusedSampler::emit_sorted(unsigned lanes, const std::size_t *counts,
                               std::size_t bitmap_words, RRRSet *outs) {
  // The visited lane masks already hold every set: bit l of word v says
  // "lane l's set contains v".  Walking the words in ascending vertex
  // order therefore emits each lane's set already sorted — one shared
  // counting pass instead of 64 std::sorts.  Byte-identical to the scalar
  // engine's sort because both produce the ascending list of the same
  // distinct vertices.
  std::array<vertex_t *, kLanes> out_ptr;
  std::array<std::size_t, kLanes> out_pos;
  std::uint64_t list_lanes = 0;
  std::uint64_t bitmap_lanes = 0;
  for (unsigned l = 0; l < lanes; ++l) {
    if (bitmap_words != 0 && counts[l] >= bitmap_words) {
      bitmap_lanes |= std::uint64_t{1} << l;
      outs[l].assign(bitmap_words, 0);
      continue;
    }
    list_lanes |= std::uint64_t{1} << l;
    outs[l].resize(counts[l]);
    out_ptr[l] = outs[l].data();
    out_pos[l] = 0;
  }
  const std::uint64_t n = graph_.num_vertices();
  auto emit_word = [&](vertex_t v, std::uint64_t word) {
    while (word != 0) {
      const unsigned l = static_cast<unsigned>(__builtin_ctzll(word));
      word &= word - 1;
      out_ptr[l][out_pos[l]++] = v;
    }
  };
  if (bitmap_lanes != 0) {
    // Block by block: the block's 64 mask words are a 64×64 bit matrix,
    // vertices by lanes.  List lanes emit from the rows; one transpose
    // turns the rows into lanes, and row l is then bitmap words 2b and
    // 2b + 1 of lane l.  Bits past n read as zero, so the tail stays zero.
    std::uint64_t block[64];
    for (std::uint64_t base = 0; base < n; base += 64) {
      const auto width =
          static_cast<unsigned>(std::min<std::uint64_t>(64, n - base));
      std::uint64_t any = 0;
      for (unsigned i = 0; i < width; ++i) {
        block[i] = visited_.word(base + i);
        any |= block[i];
      }
      if (any == 0) continue;
      if ((any & list_lanes) != 0)
        for (unsigned i = 0; i < width; ++i)
          emit_word(static_cast<vertex_t>(base + i), block[i] & list_lanes);
      std::uint64_t rows = any & bitmap_lanes;
      if (rows == 0) continue;
      std::fill(block + width, block + 64, 0);
      transpose64(block);
      const std::size_t w = base / 32;
      for (; rows != 0; rows &= rows - 1) {
        const auto l = static_cast<unsigned>(__builtin_ctzll(rows));
        vertex_t *words = outs[l].data();
        words[w] = static_cast<vertex_t>(block[l]);
        if (w + 1 < bitmap_words)
          words[w + 1] = static_cast<vertex_t>(block[l] >> 32);
      }
    }
  } else if (touched_len_ * 8 >= n) {
    // Dense batch: the touched list covers most of the graph, so the
    // straight scan is cheaper than sorting it.
    for (vertex_t v = 0; v < n; ++v) emit_word(v, visited_.word(v));
  } else {
    std::sort(touched_.begin(),
              touched_.begin() + static_cast<std::ptrdiff_t>(touched_len_));
    for (std::size_t t = 0; t < touched_len_; ++t) {
      const vertex_t v = touched_[t];
      emit_word(v, visited_.word(v));
    }
  }
  for (unsigned l = 0; l < lanes; ++l)
    RIPPLES_DEBUG_ASSERT(((bitmap_lanes >> l) & 1) != 0 ||
                         out_pos[l] == counts[l]);
}

void FusedSampler::run_lt(unsigned lanes) {
  // Each pass advances every live reverse walk by one step; a lane's draw
  // order (one uniform per step, consumed before the edge pick) is exactly
  // RRRGenerator::reverse_walk_lt's.  The pick is the first row prefix
  // above x: the prefix holds the scan's running sums bit for bit, so it
  // lands on the edge the scan stops at, and past the row's end exactly
  // when the scan falls into the residual mass.
  //
  // A pass runs in two phases over the live lanes so that their cache
  // misses overlap instead of queueing: the first draws every lane's x,
  // guesses its pick from the row total and prefetches the guessed prefix
  // and in-edge entries; the second searches from the guess, takes the
  // step, and prefetches the next row's offsets and total.
  const double *prefix = table_.lt_prefix();
  const double *totals = table_.lt_totals();
  const Adjacency *in_edges = graph_.in_adjacency().data();
  const edge_offset_t *offsets = graph_.in_offsets().data();
  std::array<std::size_t, kLanes> row_begin;
  std::array<std::size_t, kLanes> degree;
  std::array<std::size_t, kLanes> guess;
  std::array<double, kLanes> draw;
  std::uint64_t active =
      lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  while (active != 0) {
    ++passes_;
    for (std::uint64_t live = active; live != 0; live &= live - 1) {
      const auto l = static_cast<unsigned>(__builtin_ctzll(live));
      const vertex_t current = current_[l];
      const std::size_t begin = offsets[current];
      const std::size_t d = offsets[current + 1] - begin;
      if (d == 0) {
        active &= ~(std::uint64_t{1} << l);
        continue;
      }
      const double x = uniform_unit(rng_[l]);
      const std::size_t g = detail::lt_row_guess(x, totals[current], d);
      if (g < d) {
        __builtin_prefetch(prefix + begin + g);
        __builtin_prefetch(in_edges + begin + g);
      }
      row_begin[l] = begin;
      degree[l] = d;
      guess[l] = g;
      draw[l] = x;
    }
    for (std::uint64_t live = active; live != 0; live &= live - 1) {
      const auto l = static_cast<unsigned>(__builtin_ctzll(live));
      const vertex_t current = current_[l];
      const std::size_t begin = row_begin[l];
      const std::size_t hit =
          detail::lt_row_search(prefix + begin, degree[l], draw[l], guess[l]);
      // Residual mass (no edge picked) or a cycle: the walk ends.
      const vertex_t selected =
          hit == degree[l] ? current : in_edges[begin + hit].vertex;
      if (selected == current || visited_.test(selected, l)) {
        active &= ~(std::uint64_t{1} << l);
        continue;
      }
      __builtin_prefetch(offsets + selected);
      __builtin_prefetch(totals + selected);
      if (visited_.set_first(selected, l)) touched_[touched_len_++] = selected;
      FrontierBuffer &walk = frontier_[l];
      walk.ensure(walk.len + 1);
      walk.data[walk.len++] = selected;
      current_[l] = selected;
    }
  }
}

namespace {

/// The one fused fill loop of every entry point below: out[j] becomes the
/// record (of \p bitmap_words-word bitmaps, 0: lists only) of the RRR set
/// at global index index_of(j), j in [0, count), over a dynamic
/// schedule of whole lane blocks — fused batches inherit the heavy tail of
/// per-sample traversal cost 64 samples at a time.  kWorkerSpans follows
/// sampler.cpp's fill_sets, under the same span names as the scalar engine
/// (the batch span's `lanes` arg tells the engines apart): the index-list
/// entry point runs inside mpsim ranks and emits none.
template <bool kWorkerSpans, typename IndexOf>
void fill_sets_fused(const FusedEdgeTable &table, std::uint64_t seed,
                     std::uint64_t count, unsigned num_threads,
                     IndexOf index_of, std::size_t bitmap_words, RRRSet *out) {
  RIPPLES_ASSERT(num_threads >= 1);
  const auto num_blocks = static_cast<std::int64_t>(
      (count + FusedSampler::kLanes - 1) / FusedSampler::kLanes);
#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    FusedSampler sampler(table);
    std::optional<trace::Span> worker;
    if constexpr (kWorkerSpans) worker.emplace("sampler", "sampler.worker");
    std::array<std::uint64_t, FusedSampler::kLanes> indices;
    std::uint64_t generated = 0;
#pragma omp for schedule(dynamic, 1) nowait
    for (std::int64_t b = 0; b < num_blocks; ++b) {
      const std::uint64_t base =
          static_cast<std::uint64_t>(b) * FusedSampler::kLanes;
      const auto lanes = static_cast<unsigned>(
          std::min<std::uint64_t>(FusedSampler::kLanes, count - base));
      for (unsigned l = 0; l < lanes; ++l) indices[l] = index_of(base + l);
      sampler.generate(table.model(), seed, std::span(indices.data(), lanes),
                       &out[base], bitmap_words);
      generated += lanes;
    }
    if constexpr (kWorkerSpans) worker->arg("sets", generated);
    flush_fused_counters(sampler);
  }
  count_generated(count);
}

} // namespace

namespace detail {

void sample_counter_range_fused(const FusedEdgeTable &table,
                                std::uint64_t seed, std::uint64_t first,
                                std::uint64_t count, unsigned num_threads,
                                RRRCollection &collection) {
  if (count == 0) return;
  trace::Span span("sampler", "sampler.batch", "first", first, "count",
                   count);
  span.arg("lanes", FusedSampler::kLanes);
  const std::uint64_t slot = collection.grow(count);
  fill_sets_fused<true>(
      table, seed, count, num_threads,
      [first](std::uint64_t j) { return first + j; },
      collection.bitmap_words(), &collection.mutable_sets()[slot]);
  trace::counter("rrr_sets", first + count);
}

void with_fused_window(const CsrGraph &graph, DiffusionModel model,
                       unsigned num_threads,
                       const std::function<void(const FusedEdgeTable *)> &run) {
  const std::size_t held =
      FusedSampler::window_bytes(graph, model, num_threads);
  if (!MemoryTracker::instance().try_reserve(held, "sampler.fused_lanes")) {
    run(nullptr);
    return;
  }
  // Released on every exit, after the table is gone: the table rejects
  // out-of-range weights by throwing, and so may the window's generator.
  struct Release {
    std::size_t bytes;
    ~Release() { MemoryTracker::instance().release(bytes); }
  } release{held};
  const FusedEdgeTable table(graph, model);
  run(&table);
}

} // namespace detail

void sample_sequential_fused(const CsrGraph &graph, DiffusionModel model,
                             std::uint64_t target_total, std::uint64_t seed,
                             RRRCollection &collection) {
  sample_multithreaded_fused(graph, model, target_total, seed, 1, collection);
}

void sample_multithreaded_fused(const CsrGraph &graph, DiffusionModel model,
                                std::uint64_t target_total, std::uint64_t seed,
                                unsigned num_threads,
                                RRRCollection &collection) {
  if (collection.size() >= target_total) return;
  const FusedEdgeTable table(graph, model);
  detail::sample_counter_range_fused(table, seed, collection.size(),
                                     target_total - collection.size(),
                                     num_threads, collection);
}

std::uint64_t sample_counter_indices_fused(
    const FusedEdgeTable &table, std::uint64_t seed,
    std::span<const std::uint64_t> indices, unsigned num_threads,
    RRRCollection &collection) {
  if (indices.empty()) return 0;
  const std::uint64_t slot = collection.grow(indices.size());
  fill_sets_fused<false>(
      table, seed, indices.size(), num_threads,
      [indices](std::uint64_t j) { return indices[j]; },
      collection.bitmap_words(), &collection.mutable_sets()[slot]);
  return indices.size();
}

} // namespace ripples
