#include "imm/select.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <type_traits>
#include <omp.h>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace ripples {

namespace {

/// Plain storage as the kernels read it: the sets, and the word count of
/// a bitmap record (0: every record is a list).
struct PlainSets {
  std::span<const RRRSet> sets;
  std::size_t bitmap_words = 0;

  [[nodiscard]] std::size_t size() const { return sets.size(); }
};

/// The set walker under every sequential kernel: calls
/// `visit(j, record)` for each sample j not flagged in \p retired (null:
/// none is), in index order.  Plain storage hands out views of the stored
/// vectors themselves; the compressed arena views each live bitmap in
/// place, decodes each live list into one scratch buffer, and skips
/// retired records without decoding.  Always inlined: the visitor's
/// captures must fold into registers of the calling kernel, or every set
/// pays loads through the closure.
template <typename Source, typename Visit>
[[gnu::always_inline]] inline void
for_each_live_set(const Source &source, const std::uint8_t *retired,
                  Visit &&visit) {
  if constexpr (std::is_same_v<Source, CompressedRRRCollection>) {
    auto cursor = source.cursor();
    std::vector<vertex_t> members;
    for (std::size_t j = 0; j < source.size(); ++j) {
      const std::uint32_t count = cursor.next_header();
      if (retired != nullptr && retired[j]) {
        cursor.skip_members(count);
        continue;
      }
      visit(j, cursor.read_record(count, members));
    }
  } else {
    // A local copy of the span: the retire visitor's byte stores may alias
    // anything in memory, so a referenced span would be reloaded per set.
    const std::span<const RRRSet> sets(source.sets);
    const std::size_t words = source.bitmap_words;
    for (std::size_t j = 0; j < sets.size(); ++j) {
      if (retired != nullptr && retired[j]) continue;
      visit(j, plain_record(sets[j], words));
    }
  }
}

template <typename Source>
void count_live(const Source &source, std::span<std::uint32_t> counters) {
  const auto n = static_cast<vertex_t>(counters.size());
  for_each_live_set(source, nullptr,
                    [&](std::size_t, const RRRRecord &record) {
                      record.adjust_counters<false>(counters.data(), n);
                    });
}

/// Retirement body; \p kLog is fixed per call so the dense inner loop
/// carries no per-member test of the log.
template <bool kLog, typename Source>
std::uint64_t retire_live(vertex_t seed, const Source &source,
                          std::span<std::uint32_t> counters,
                          std::vector<std::uint8_t> &retired, RetireLog *log) {
  std::uint64_t retired_count = 0;
  std::uint8_t *const flags = retired.data();
  const auto n = static_cast<vertex_t>(counters.size());
  // The hit path stays out of line: the scan over every live set is the
  // hot loop, and inlining the decrement would crowd its registers.
  auto hit = [&](std::size_t j, RRRRecord record) __attribute__((noinline)) {
    flags[j] = 1;
    ++retired_count;
    if constexpr (kLog)
      record.for_each_member([&](vertex_t u) {
        RIPPLES_DEBUG_ASSERT(counters[u] > 0);
        --counters[u];
        if (log->pending_dec[u]++ == 0) log->pending_touched.push_back(u);
      });
    else
      record.adjust_counters<true>(counters.data(), n);
  };
  for_each_live_set(source, flags,
                    [&](std::size_t j, const RRRRecord &record) {
                      if (record.contains(seed)) hit(j, record);
                    });
  RIPPLES_DEBUG_ASSERT(counters[seed] == 0);
  return retired_count;
}

template <typename Source>
std::uint64_t retire(vertex_t seed, const Source &source,
                     std::span<std::uint32_t> counters,
                     std::vector<std::uint8_t> &retired, RetireLog *log) {
  return log != nullptr
             ? retire_live<true>(seed, source, counters, retired, log)
             : retire_live<false>(seed, source, counters, retired, log);
}

/// One bit of a set's 64-bit membership signature: the top 6 bits of a
/// Fibonacci hash of the vertex id.  A set whose signature lacks a vertex's
/// bit cannot contain that vertex.
inline std::uint64_t signature_bit(vertex_t v) {
  return std::uint64_t{1}
         << ((static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ULL) >> 58);
}

/// A live entry of Alg. 4's search: the set and the OR of its members'
/// signature bits.
struct LiveSet {
  std::uint64_t signature;
  const RRRSet *set;
};

/// Eager picker: one argmax scan over the unselected counters per round.
class ArgmaxPicker {
public:
  explicit ArgmaxPicker(std::span<const std::uint32_t> counters)
      : selected_(counters.size(), 0) {}

  vertex_t pick(std::span<const std::uint32_t> counters, trace::Span &) {
    const vertex_t seed = argmax_counter(counters, selected_);
    selected_[seed] = 1;
    return seed;
  }
  void finish() const {}

private:
  std::vector<std::uint8_t> selected_;
};

/// CELF picker: a max-heap of cached counter values.  Counters only
/// decrease as samples retire, so a popped entry whose cached value still
/// matches the live counter is globally maximal; stale entries are
/// refreshed and reinserted.
class CelfPicker {
public:
  explicit CelfPicker(std::span<const std::uint32_t> counters) {
    heap_.reserve(counters.size());
    for (vertex_t v = 0; v < counters.size(); ++v)
      heap_.push_back({counters[v], v});
    std::make_heap(heap_.begin(), heap_.end(), lower_priority);
  }

  vertex_t pick(std::span<const std::uint32_t> counters, trace::Span &round) {
    std::uint64_t round_stale = 0;
    for (;; ++round_stale) {
      RIPPLES_ASSERT_MSG(!heap_.empty(), "k exceeds the number of vertices");
      std::pop_heap(heap_.begin(), heap_.end(), lower_priority);
      Entry &top = heap_.back();
      if (top.count == counters[top.vertex]) break;
      top.count = counters[top.vertex]; // stale: refresh and reinsert
      std::push_heap(heap_.begin(), heap_.end(), lower_priority);
    }
    const vertex_t seed = heap_.back().vertex;
    heap_.pop_back();
    stale_refreshes_ += round_stale;
    round.arg("stale", round_stale);
    return seed;
  }
  void finish() const {
    trace::instant("select", "select.lazy_done", "stale_refreshes",
                   stale_refreshes_);
  }

private:
  struct Entry {
    std::uint32_t count;
    vertex_t vertex;
  };
  /// Higher count first, ties to the smaller vertex id so the output
  /// matches the eager picker.
  static constexpr auto lower_priority = [](const Entry &a, const Entry &b) {
    return a.count < b.count || (a.count == b.count && a.vertex > b.vertex);
  };
  std::vector<Entry> heap_;
  std::uint64_t stale_refreshes_ = 0;
};

/// The sequential greedy: count once, then k rounds of pick and retire.
template <typename Picker, typename Source>
SelectionResult greedy(vertex_t num_vertices, std::uint32_t k,
                       const Source &source, const char *name) {
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  trace::Span span("select", name, "k", k, "samples", source.size());
  std::vector<std::uint32_t> counters(num_vertices, 0);
  {
    trace::Span count_span("select", "select.count");
    count_live(source, counters);
  }
  Picker picker(counters);
  std::vector<std::uint8_t> retired(source.size(), 0);

  SelectionResult result;
  result.total_samples = source.size();
  result.seeds.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    trace::Span round("select", "select.round", "round", i);
    const vertex_t seed = picker.pick(counters, round);
    result.seeds.push_back(seed);
    const std::uint64_t covered =
        retire_live<false>(seed, source, counters, retired, nullptr);
    result.covered_samples += covered;
    round.arg("covered", covered);
  }
  picker.finish();
  return result;
}

} // namespace

void count_memberships(std::span<const RRRSet> samples,
                       std::span<std::uint32_t> counters) {
  count_live(PlainSets{samples}, counters);
}

void count_memberships(const RRRCollection &collection,
                       std::span<std::uint32_t> counters) {
  count_live(PlainSets{collection.sets(), collection.bitmap_words()},
             counters);
}

void count_memberships(const CompressedRRRCollection &collection,
                       std::span<std::uint32_t> counters) {
  count_live(collection, counters);
}

std::uint64_t retire_samples_containing(vertex_t seed,
                                        std::span<const RRRSet> samples,
                                        std::span<std::uint32_t> counters,
                                        std::vector<std::uint8_t> &retired,
                                        RetireLog *log) {
  return retire(seed, PlainSets{samples}, counters, retired, log);
}

std::uint64_t retire_samples_containing(vertex_t seed,
                                        const RRRCollection &collection,
                                        std::span<std::uint32_t> counters,
                                        std::vector<std::uint8_t> &retired,
                                        RetireLog *log) {
  return retire(seed,
                PlainSets{collection.sets(), collection.bitmap_words()},
                counters, retired, log);
}

std::uint64_t retire_samples_containing(vertex_t seed,
                                        const CompressedRRRCollection &collection,
                                        std::span<std::uint32_t> counters,
                                        std::vector<std::uint8_t> &retired,
                                        RetireLog *log) {
  return retire(seed, collection, counters, retired, log);
}

vertex_t argmax_counter(std::span<const std::uint32_t> counters,
                        std::span<const std::uint8_t> selected) {
  vertex_t best = 0;
  std::uint32_t best_count = 0;
  bool found = false;
  for (vertex_t v = 0; v < counters.size(); ++v) {
    if (selected[v]) continue;
    if (!found || counters[v] > best_count) {
      best = v;
      best_count = counters[v];
      found = true;
    }
  }
  RIPPLES_ASSERT_MSG(found, "k exceeds the number of vertices");
  return best;
}

SelectionResult select_seeds(vertex_t num_vertices, std::uint32_t k,
                             std::span<const RRRSet> samples) {
  return select_seeds_multithreaded(num_vertices, k, samples, 1);
}

SelectionResult select_seeds(vertex_t num_vertices, std::uint32_t k,
                             const CompressedRRRCollection &collection) {
  return greedy<ArgmaxPicker>(num_vertices, k, collection, "select.compressed");
}

SelectionResult select_seeds_lazy(vertex_t num_vertices, std::uint32_t k,
                                  std::span<const RRRSet> samples) {
  return greedy<CelfPicker>(num_vertices, k, PlainSets{samples},
                            "select.lazy");
}

namespace {

/// Algorithm 4 over plain storage of either record kind.  A bitmap record's
/// signature is all ones, its containment test one bit, and its count and
/// decrement walk the set bits of the thread's [vl, vh) words.  It keeps
/// the public name: TSan's suppression of Alg. 4's barrier phases
/// (scripts/tsan-suppressions.txt) matches it.
SelectionResult select_seeds_multithreaded(vertex_t num_vertices,
                                           std::uint32_t k,
                                           const PlainSets source,
                                           unsigned num_threads) {
  const std::span<const RRRSet> samples = source.sets;
  const std::size_t words = source.bitmap_words;
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  RIPPLES_ASSERT(num_threads >= 1);
  trace::Span span("select", "select.multithreaded", "k", k, "samples",
                   samples.size());

  // Every per-vertex and per-sample array below is left uninitialized here
  // and first written inside the team by the thread that owns its range.
  // A zeroing pass on the calling thread would be a second write of every
  // entry, and TSan, blind to libgomp's barriers, would report each entry
  // an owner then touches.
  const auto counters = std::make_unique_for_overwrite<std::uint32_t[]>(
      num_vertices);
  const auto selected =
      std::make_unique_for_overwrite<std::uint8_t[]>(num_vertices);

  SelectionResult result;
  result.total_samples = samples.size();
  result.seeds.reserve(k);

  // One cache line per entry: every thread writes its own slot each round,
  // so unpadded entries would false-share the reduction array.
  struct alignas(64) Candidate {
    std::uint32_t count;
    vertex_t vertex;
  };
  // Slots start at the "no candidate" sentinel: when the team comes out
  // smaller than requested (a nested call, OMP_THREAD_LIMIT), the slots no
  // thread writes must not pose as vertex 0.
  std::vector<Candidate> local_best(num_threads, Candidate{0, num_vertices});
  // Per-sample scratch, one slice per thread's sample block: the block's
  // live sets, and those of them the current round retires.  Allocated
  // here rather than per thread, so each is one mapping that leaves with
  // the call.
  const auto live = std::make_unique_for_overwrite<LiveSet[]>(samples.size());
  const auto hits =
      std::make_unique_for_overwrite<const RRRSet *[]>(samples.size());
  // Each thread's hits of the current round, published for the whole team
  // (padded like the candidates).
  struct alignas(64) Hits {
    std::span<const RRRSet *const> sets;
  };
  std::vector<Hits> round_hits(num_threads);
  vertex_t chosen = 0;

#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    const auto p = static_cast<unsigned>(omp_get_num_threads());
    // Vertex interval owned by this thread rank (Alg. 4: vl, vh).
    const auto vl = static_cast<vertex_t>(
        (static_cast<std::uint64_t>(num_vertices) * t) / p);
    const auto vh = static_cast<vertex_t>(
        (static_cast<std::uint64_t>(num_vertices) * (t + 1)) / p);
    // Sample block owned by this thread: [sl, sh).  Its live sets, the only
    // ones it searches for the seed, are live[sl, live_end); empty sets
    // can never retire, so they are left out from the start.  A signature
    // is saturated after ~300 members on average, so the fill stops there
    // and reads only that prefix of a giant IC set.
    const std::size_t sl = samples.size() * t / p;
    const std::size_t sh = samples.size() * (t + 1) / p;
    // Raw pointers: stores through the owning pointers would make the
    // compiler reload them after every store.
    LiveSet *const live_sets = live.get();
    const RRRSet **const hit_sets = hits.get();
    std::size_t live_end = sl;
    for (std::size_t j = sl; j < sh; ++j) {
      const RRRSet &sample = samples[j];
      std::uint64_t signature = 0;
      if (plain_record(sample, words).is_bitmap())
        signature = ~std::uint64_t{0};
      else
        for (auto it = sample.begin(); it != sample.end() && ~signature != 0;
             ++it)
          signature |= signature_bit(*it);
      if (signature != 0) live_sets[live_end++] = {signature, &sample};
    }

    // Counting step: every thread visits all samples but touches only the
    // counters it owns; a sorted list lets it binary-search to vl and scan
    // its slice in cache order (Section 3.1), a bitmap holds the slice in
    // its [vl, vh) words.
    std::uint32_t *const counts = counters.get();
    std::fill(counts + vl, counts + vh, 0);
    std::fill(selected.get() + vl, selected.get() + vh, 0);
    {
      // Per-thread span ending before the barrier, so interval imbalance in
      // the counting pass is visible as ragged span ends.
      trace::Span count_span("select", "select.count", "thread", t);
      for (const RRRSet &sample : samples)
        plain_record(sample, words).adjust_counters<false>(counts, vl, vh);
    }
#pragma omp barrier

    for (std::uint32_t i = 0; i < k; ++i) {
      // Parallel argmax reduction: local candidate per interval...
      Candidate best{0, vh};
      bool found = false;
      for (vertex_t v = vl; v < vh; ++v) {
        if (selected[v]) continue;
        if (!found || counters[v] > best.count) {
          best = {counters[v], v};
          found = true;
        }
      }
      local_best[t] = found ? best : Candidate{0, num_vertices};
      // This barrier also ends every thread's reads of the previous round's
      // hit slices, so the search below may overwrite its own.
#pragma omp barrier
      // ...then thread 0 combines (higher count wins, ties to smaller id).
      // Thread 0 is the caller's own thread and the only one to write
      // `result`: TSan cannot see libgomp's barriers, so a caller reading
      // what a worker wrote would be reported outside this function.
#pragma omp masked
      {
        Candidate global{0, num_vertices};
        for (const Candidate &c : local_best) {
          if (c.vertex >= num_vertices) continue;
          if (global.vertex >= num_vertices || c.count > global.count ||
              (c.count == global.count && c.vertex < global.vertex))
            global = c;
        }
        RIPPLES_ASSERT_MSG(global.vertex < num_vertices,
                           "k exceeds the number of vertices");
        chosen = global.vertex;
        selected[chosen] = 1;
        result.seeds.push_back(chosen);
        trace::instant("select", "select.round", "round", i, "seed", chosen);
      }
#pragma omp barrier

      trace::Span retire_span("select", "select.retire", "round", i, "thread",
                              t);
      // Search: each live set is tested by its block's owner only, and
      // its members are read only when its signature holds the seed's bit.
      // Hits retire, so the owner moves them to its hit slice and compacts
      // the rest of its live slice in place.
      const vertex_t seed = chosen;
      const std::uint64_t seed_bit = signature_bit(seed);
      std::size_t kept = sl;
      std::size_t hit_end = sl;
      // Only an all-ones signature can belong to a bitmap record, so any
      // other hit is a list and binary-searched without asking its kind.
      for (std::size_t x = sl; x < live_end; ++x) {
        const LiveSet entry = live_sets[x];
        if ((entry.signature & seed_bit) != 0 &&
            (~entry.signature == 0
                 ? plain_record(*entry.set, words).contains(seed)
                 : std::binary_search(entry.set->begin(), entry.set->end(),
                                      seed)))
          hit_sets[hit_end++] = entry.set;
        else
          live_sets[kept++] = entry;
      }
      live_end = kept;
      round_hits[t].sets = {hit_sets + sl, hit_end - sl};
#pragma omp barrier
      // Decrement: every thread walks every hit list but touches only the
      // counters of its own interval — no atomics (Alg. 4).
      for (unsigned owner = 0; owner < p; ++owner) {
        const auto owner_hits = round_hits[owner].sets;
        if (t == 0) result.covered_samples += owner_hits.size();
        for (const RRRSet *sample : owner_hits)
          plain_record(*sample, words).adjust_counters<true>(counts, vl, vh);
      }
    }
  }
  return result;
}

} // namespace

SelectionResult select_seeds_multithreaded(vertex_t num_vertices,
                                           std::uint32_t k,
                                           std::span<const RRRSet> samples,
                                           unsigned num_threads) {
  return select_seeds_multithreaded(num_vertices, k, PlainSets{samples},
                                    num_threads);
}

SelectionResult select_seeds_multithreaded(vertex_t num_vertices,
                                           std::uint32_t k,
                                           const RRRCollection &collection,
                                           unsigned num_threads) {
  return select_seeds_multithreaded(
      num_vertices, k,
      PlainSets{collection.sets(), collection.bitmap_words()}, num_threads);
}

SelectionResult select_seeds_hypergraph(vertex_t num_vertices, std::uint32_t k,
                                        const HypergraphCollection &collection) {
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  trace::Span span("select", "select.hypergraph", "k", k, "samples",
                   collection.size());
  // The vertex -> samples index gives the initial counters for free and
  // makes retirement proportional to the retired samples only — the
  // selection-speed advantage the paper attributes to the hypergraph
  // representation (bought with ~2x memory).
  std::vector<std::uint32_t> counters(num_vertices, 0);
  for (vertex_t v = 0; v < num_vertices; ++v)
    counters[v] =
        static_cast<std::uint32_t>(collection.samples_containing(v).size());

  std::vector<std::uint8_t> retired(collection.size(), 0);
  std::vector<std::uint8_t> selected(num_vertices, 0);

  SelectionResult result;
  result.total_samples = collection.size();
  result.seeds.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    vertex_t seed = argmax_counter(counters, selected);
    selected[seed] = 1;
    result.seeds.push_back(seed);
    for (std::uint32_t j : collection.samples_containing(seed)) {
      if (retired[j]) continue;
      retired[j] = 1;
      ++result.covered_samples;
      for (vertex_t u : collection.sets()[j]) {
        RIPPLES_DEBUG_ASSERT(counters[u] > 0);
        --counters[u];
      }
    }
  }
  return result;
}

// --- sparse selection exchange ----------------------------------------------

TopmSummary sparse_topm(std::span<const std::uint32_t> counters,
                        std::span<const std::uint8_t> selected,
                        std::uint32_t m) {
  RIPPLES_ASSERT(m >= 1);
  RIPPLES_ASSERT(counters.size() == selected.size());
  TopmSummary summary;
  summary.top.reserve(m);
  // Bounded "best m" heap ordered worst-first, so the root is the entry a
  // better candidate evicts.  Everything rejected or evicted feeds the
  // outside bound: the exact maximum count among unreported unselected
  // vertices.
  auto worse = [](const CounterPair &a, const CounterPair &b) {
    return a.count > b.count || (a.count == b.count && a.vertex < b.vertex);
  };
  std::vector<CounterPair> &heap = summary.top;
  std::uint32_t outside = 0;
  bool any_outside = false;
  for (vertex_t v = 0; v < counters.size(); ++v) {
    if (selected[v]) continue;
    const CounterPair entry{v, counters[v]};
    if (heap.size() < m) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), worse);
      continue;
    }
    const CounterPair &weakest = heap.front();
    if (worse(entry, weakest)) {
      // Evict the weakest in favour of this entry.
      std::pop_heap(heap.begin(), heap.end(), worse);
      const CounterPair evicted = heap.back();
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), worse);
      outside = std::max(outside, evicted.count);
      any_outside = true;
    } else {
      outside = std::max(outside, entry.count);
      any_outside = true;
    }
  }
  summary.outside_bound = any_outside ? outside : 0;
  // Wire and merge order: count descending, ties to the smaller id —
  // the dense argmax preference order.
  std::sort(heap.begin(), heap.end(), [](const CounterPair &a,
                                         const CounterPair &b) {
    return a.count > b.count || (a.count == b.count && a.vertex < b.vertex);
  });
  return summary;
}

SparseMergeResult sparse_merge(std::span<const TopmSummary> summaries) {
  // Candidate accumulation: LB = sum of reported counts; the reporters'
  // outside bounds are summed per candidate so UB = LB + (T - reported_T)
  // without needing per-rank membership bitmaps.
  struct Candidate {
    vertex_t vertex;
    std::uint64_t lb = 0;
    std::uint64_t reported_outside = 0; // sum of outside_bound over reporters
    std::uint32_t reporters = 0;
  };
  std::uint64_t total_outside = 0; // T: bound on any unreported vertex
  std::vector<Candidate> candidates;
  std::size_t total_pairs = 0;
  for (const TopmSummary &summary : summaries) {
    total_outside += summary.outside_bound;
    total_pairs += summary.top.size();
  }
  candidates.reserve(total_pairs);
  for (const TopmSummary &summary : summaries)
    for (const CounterPair &pair : summary.top)
      candidates.push_back({pair.vertex, pair.count, summary.outside_bound, 1});
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate &a, const Candidate &b) {
              return a.vertex < b.vertex;
            });
  // Merge duplicate vertices (reported by several ranks) in place.
  std::size_t unique = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (unique > 0 && candidates[unique - 1].vertex == candidates[i].vertex) {
      candidates[unique - 1].lb += candidates[i].lb;
      candidates[unique - 1].reported_outside += candidates[i].reported_outside;
      candidates[unique - 1].reporters += 1;
    } else {
      candidates[unique++] = candidates[i];
    }
  }
  candidates.resize(unique);

  SparseMergeResult result;
  result.candidates.reserve(unique);
  for (const Candidate &c : candidates) result.candidates.push_back(c.vertex);
  if (candidates.empty()) return result; // nothing reported: cannot certify

  const std::uint32_t num_ranks = static_cast<std::uint32_t>(summaries.size());
  auto ub_of = [&](const Candidate &c) {
    return c.lb + (total_outside - c.reported_outside);
  };
  auto exact = [&](const Candidate &c) {
    // Fully known iff every rank reported it, or the missing ranks can
    // only contribute zero.
    return c.reporters == num_ranks || ub_of(c) == c.lb;
  };

  // Winner preference: LB descending, ties to the smaller id (the ids of
  // sorted candidates ascend, so the first maximum wins ties for free).
  const Candidate *best = &candidates.front();
  for (const Candidate &c : candidates)
    if (c.lb > best->lb) best = &c;
  result.winner = best->vertex;

  // Certification (see the header's bound derivation).
  if (total_outside >= best->lb) return result; // (ii) violated
  for (const Candidate &c : candidates) {
    if (&c == best) continue;
    const std::uint64_t ub = ub_of(c);
    if (ub < best->lb) continue;
    const bool exact_tie = ub == best->lb && exact(c) && exact(*best) &&
                           best->vertex < c.vertex;
    if (!exact_tie) return result; // (i) violated
  }
  result.certified = true;
  return result;
}

SparseExactResult sparse_certify_exact(std::span<const vertex_t> candidates,
                                       std::span<const std::uint32_t> exact_counts,
                                       std::uint64_t outside_sum) {
  RIPPLES_ASSERT(candidates.size() == exact_counts.size());
  RIPPLES_ASSERT(!candidates.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (exact_counts[i] > exact_counts[best] ||
        (exact_counts[i] == exact_counts[best] &&
         candidates[i] < candidates[best]))
      best = i;
  }
  SparseExactResult result;
  result.winner = candidates[best];
  // Strict: a vertex outside the candidate set with count == the winner's
  // could have a smaller id and win the dense tie-break.
  result.certified = exact_counts[best] > outside_sum;
  return result;
}

namespace detail {

namespace {
metrics::Counter &exchange_words_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.exchange_words");
  return c;
}
metrics::Counter &sparse_rounds_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.sparse_rounds");
  return c;
}
metrics::Counter &sparse_certified_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.sparse_certified");
  return c;
}
metrics::Counter &candidate_fallbacks_counter() {
  static metrics::Counter &c = metrics::Registry::instance().counter(
      "imm.select.sparse_candidate_fallbacks");
  return c;
}
metrics::Counter &dense_fallbacks_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.sparse_dense_fallbacks");
  return c;
}
} // namespace

void record_exchange_words(std::uint64_t words) {
  if (metrics::enabled()) exchange_words_counter().add(words);
}

void record_sparse_round(bool certified) {
  if (!metrics::enabled()) return;
  sparse_rounds_counter().increment();
  if (certified) sparse_certified_counter().increment();
}

void record_candidate_fallback() {
  if (metrics::enabled()) candidate_fallbacks_counter().increment();
}

void record_dense_fallback() {
  if (metrics::enabled()) dense_fallbacks_counter().increment();
}

} // namespace detail

} // namespace ripples
