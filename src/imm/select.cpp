#include "imm/select.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <type_traits>
#include <omp.h>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace ripples {

namespace {

/// One bit of a set's 64-bit membership signature: the top 6 bits of a
/// Fibonacci hash of the vertex id.  A set whose signature lacks a vertex's
/// bit cannot contain that vertex.
inline std::uint64_t signature_bit(vertex_t v) {
  return std::uint64_t{1}
         << ((static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ULL) >> 58);
}

/// The OR of \p record's signature bits; all ones on a bitmap.  A signature
/// is saturated after ~300 members on average, so the fill stops there and
/// reads only that prefix of a giant IC set.
inline std::uint64_t signature_of(const RRRRecord &record) {
  if (record.is_bitmap()) return ~std::uint64_t{0};
  std::uint64_t signature = 0;
  const std::span<const vertex_t> list = record.members();
  for (auto it = list.begin(); it != list.end() && ~signature != 0; ++it)
    signature |= signature_bit(*it);
  return signature;
}

/// Plain storage as Alg. 4 reads it: the sets, and the word count of a
/// bitmap record (0: every record is a list).  A live entry points at its
/// set.  scan() calls `visit(j, ref, record)` for every set, front to back.
struct PlainSets {
  using Ref = const RRRSet *;
  std::span<const RRRSet> sets;
  std::size_t bitmap_words = 0;

  [[nodiscard]] std::size_t size() const { return sets.size(); }
  [[nodiscard]] RRRRecord record(Ref set, std::vector<vertex_t> &) const {
    return plain_record(*set, bitmap_words);
  }
  template <typename Visit>
  void scan(std::vector<vertex_t> &, Visit &&visit) const {
    for (std::size_t j = 0; j < sets.size(); ++j)
      visit(j, &sets[j], plain_record(sets[j], bitmap_words));
  }
};

/// The compressed arena as Alg. 4 reads it.  A live entry holds its
/// record's payload offset; a read views a bitmap in place and decodes a
/// list into the reading thread's scratch.
struct CompressedSets {
  using Ref = std::size_t;
  const CompressedRRRCollection &arena;

  [[nodiscard]] std::size_t size() const { return arena.size(); }
  [[nodiscard]] RRRRecord record(Ref offset,
                                 std::vector<vertex_t> &scratch) const {
    CompressedRRRCollection::Cursor cursor = arena.cursor_at(offset);
    const std::uint32_t count = cursor.next_header();
    return cursor.read_record(count, scratch);
  }
  template <typename Visit>
  void scan(std::vector<vertex_t> &scratch, Visit &&visit) const {
    CompressedRRRCollection::Cursor cursor = arena.cursor();
    for (std::size_t j = 0; j < arena.size(); ++j) {
      const std::size_t offset = cursor.offset();
      const std::uint32_t count = cursor.next_header();
      visit(j, offset, cursor.read_record(count, scratch));
    }
  }
};

/// A live entry of Alg. 4's search: the set's signature and where to read
/// the set.
template <typename Ref> struct LiveSet {
  std::uint64_t signature;
  Ref ref;
};

// ThreadSanitizer cannot see libgomp's join: every thread of Alg. 4's team
// releases one sync word as it leaves, and the caller acquires it after.
#if defined(__SANITIZE_THREAD__)
extern "C" void __tsan_acquire(void *address);
extern "C" void __tsan_release(void *address);
#define RIPPLES_TEAM_JOIN(op, sync) __tsan_##op(sync)
#else
#define RIPPLES_TEAM_JOIN(op, sync) static_cast<void>(sync)
#endif

/// Algorithm 4, the one selection body, over plain storage of either
/// record kind or over the compressed arena.  It keeps the public name:
/// TSan's suppression of Alg. 4's barrier phases
/// (scripts/tsan-suppressions.txt) matches it.
template <typename Source>
SelectionResult select_seeds_multithreaded(vertex_t num_vertices,
                                           std::uint32_t k,
                                           const Source &source,
                                           unsigned num_threads,
                                           const SelectionHooks &hooks) {
  using Ref = typename Source::Ref;
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  RIPPLES_ASSERT(num_threads >= 1);
  const std::size_t num_samples = source.size();
  trace::Span span("select",
                   std::is_same_v<Source, CompressedSets>
                       ? "select.compressed"
                       : "select.multithreaded",
                   "k", k, "samples", num_samples);

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
  result.total_samples = num_samples;
  result.seeds.reserve(k);

  // Per-sample scratch, one slice per thread's sample block: the block's
  // live sets, and those of them the current round retires.  Allocated
  // here rather than per thread, so each is one mapping that leaves with
  // the call.
  const auto live =
      std::make_unique_for_overwrite<LiveSet<Ref>[]>(num_samples);
  const auto hits = std::make_unique_for_overwrite<Ref[]>(num_samples);
  // One slot per thread, published for the whole team: its argmax
  // candidate and its hits of the current round.  One cache line each: every thread writes its own slot each
  // round, so unpadded slots would false-share.  Candidates start at the
  // "no candidate" sentinel: when the team comes out smaller than requested
  // (a nested call, OMP_THREAD_LIMIT), the slots no thread writes must not
  // pose as vertex 0.
  struct Candidate {
    std::uint32_t count;
    vertex_t vertex;
  };
  struct alignas(64) Slot {
    Candidate best;
    std::span<const Ref> hits;
  };
  std::vector<Slot> slots(num_threads, Slot{{0, num_vertices}, {}});
  // The team argmax: higher count wins, and ties go to the smaller id
  // because the slots' intervals ascend.
  auto team_argmax = [&] {
    Candidate global{0, num_vertices};
    for (const Slot &slot : slots)
      if (slot.best.vertex < num_vertices &&
          (global.vertex >= num_vertices || slot.best.count > global.count))
        global = slot.best;
    return global.vertex;
  };
  // What the team throws.  No exception may cross the OpenMP region: a
  // thread catches what its work between two barriers (phase q) throws,
  // keeps it and flags phase q's parity.  Every thread asks
  // failed_before(q + 1) after the next barrier, so all see the same flag
  // and leave together (a faster thread's failure in phase q + 1 flags the
  // other parity), and the first failure in thread order is rethrown once
  // the team is gone.
  std::vector<std::exception_ptr> errors(num_threads);
  std::atomic<bool> failed[2] = {};
  auto fail = [&](unsigned thread, unsigned phase) {
    errors[thread] = std::current_exception();
    failed[phase % 2] = true;
  };
  auto failed_before = [&](unsigned phase) {
    return failed[(phase + 1) % 2].load();
  };
  // Workers record their spans under the caller's trace rank, the mpsim
  // rank's in the distributed driver.
  const int trace_rank = trace::thread_rank();
  vertex_t chosen = 0;

#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    const auto p = static_cast<unsigned>(omp_get_num_threads());
    const trace::RankScope rank_scope(trace_rank);
    // The thread's own copy of the storage view: read through the caller's
    // reference, its fields would be reloaded after every store below.
    const Source sets = source;
    // Vertex interval owned by this thread rank (Alg. 4: vl, vh).
    const auto vl = static_cast<vertex_t>(
        (static_cast<std::uint64_t>(num_vertices) * t) / p);
    const auto vh = static_cast<vertex_t>(
        (static_cast<std::uint64_t>(num_vertices) * (t + 1)) / p);
    // Sample block owned by this thread: [sl, sh).  Its live sets, the only
    // ones it searches for the seed, are live[sl, live_end); empty sets
    // can never retire, so they are left out from the start.
    const std::size_t sl = num_samples * t / p;
    const std::size_t sh = num_samples * (t + 1) / p;
    // Raw pointers: stores through the owning pointers would make the
    // compiler reload them after every store.
    LiveSet<Ref> *const live_sets = live.get();
    Ref *const hit_refs = hits.get();
    std::uint32_t *const counts = counters.get();
    std::size_t live_end = sl;
    std::vector<vertex_t> scratch; // decoded lists of compressed storage
    unsigned phase = 0;

    if (hooks.verify) {
#pragma omp masked
      try {
        hooks.verify();
      } catch (...) {
        fail(t, phase);
      }
#pragma omp barrier
      ++phase;
    }

    // Counting step: every thread visits all samples but touches only the
    // counters it owns; a sorted list lets it binary-search to vl and scan
    // its slice in cache order (Section 3.1), a bitmap holds the slice in
    // its [vl, vh) words.  The thread also fills its block's live entries.
    // The per-thread span ends before the barrier, so interval imbalance in
    // the counting pass is visible as ragged span ends.
    if (!failed_before(phase)) {
      try {
        std::fill(counts + vl, counts + vh, 0);
        std::fill(selected.get() + vl, selected.get() + vh, 0);
        trace::Span count_span("select", "select.count", "thread", t);
        sets.scan(scratch, [&](std::size_t j, Ref ref,
                               const RRRRecord &record) {
          record.adjust_counters<false>(counts, vl, vh);
          if (j < sl || j >= sh) return;
          const std::uint64_t signature = signature_of(record);
          if (signature != 0) live_sets[live_end++] = {signature, ref};
        });
      } catch (...) {
        fail(t, phase);
      }
#pragma omp barrier
      ++phase;
    }

    for (std::uint32_t i = 0; i < k && !failed_before(phase); ++i) {
      if (!hooks.pick) {
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
        slots[t].best = found ? best : Candidate{0, num_vertices};
      }
      // This barrier also ends every thread's reads of the previous round's
      // hit slices, so the search below may overwrite its own.
#pragma omp barrier
      if (failed_before(++phase)) break;
      // ...then the primary thread picks: the team argmax, or the caller's
      // pick.  It is the caller's own thread and the only one to write
      // `result`: TSan cannot see libgomp's barriers, so a caller reading
      // what a worker wrote would be reported outside this function.
#pragma omp masked
      try {
        chosen = hooks.pick
                     ? hooks.pick(i, {counts, num_vertices},
                                  {selected.get(), num_vertices})
                     : team_argmax();
        RIPPLES_ASSERT_MSG(chosen < num_vertices && !selected[chosen],
                           "k exceeds the number of vertices");
        selected[chosen] = 1;
        result.seeds.push_back(chosen);
        trace::instant("select", "select.round", "round", i, "seed", chosen);
        if (hooks.verify) hooks.verify();
      } catch (...) {
        fail(t, phase);
      }
#pragma omp barrier
      if (failed_before(++phase)) break;

      trace::Span retire_span("select", "select.retire", "round", i, "thread",
                              t);
      // Search: each live set is tested by its block's owner only, and
      // its members are read only when its signature holds the seed's bit.
      // Hits retire, so the owner moves them to its hit slice and compacts
      // the rest of its live slice in place.
      try {
        const vertex_t seed = chosen;
        const std::uint64_t seed_bit = signature_bit(seed);
        std::size_t kept = sl;
        std::size_t hit_end = sl;
        for (std::size_t x = sl; x < live_end; ++x) {
          const LiveSet<Ref> entry = live_sets[x];
          if ((entry.signature & seed_bit) != 0 &&
              sets.record(entry.ref, scratch).contains(seed))
            hit_refs[hit_end++] = entry.ref;
          else
            live_sets[kept++] = entry;
        }
        live_end = kept;
        slots[t].hits = {hit_refs + sl, hit_end - sl};
      } catch (...) {
        fail(t, phase);
      }
#pragma omp barrier
      if (failed_before(++phase)) break;
      // Decrement: every thread walks every hit list but touches only the
      // counters of its own interval — no atomics (Alg. 4).
      try {
        for (unsigned owner = 0; owner < p; ++owner) {
          const std::span<const Ref> owner_hits = slots[owner].hits;
          if (t == 0) result.covered_samples += owner_hits.size();
          for (const Ref ref : owner_hits)
            sets.record(ref, scratch).template adjust_counters<true>(counts,
                                                                     vl, vh);
        }
      } catch (...) {
        fail(t, phase);
      }
    }
    RIPPLES_TEAM_JOIN(release, &chosen);
  }
  RIPPLES_TEAM_JOIN(acquire, &chosen);
  for (const std::exception_ptr &error : errors)
    if (error) std::rethrow_exception(error);
  return result;
}

} // namespace

void count_memberships(std::span<const RRRSet> samples,
                       std::span<std::uint32_t> counters) {
  for (const RRRSet &sample : samples)
    for (vertex_t v : sample) ++counters[v];
}

std::uint64_t retire_samples_containing(vertex_t seed,
                                        std::span<const RRRSet> samples,
                                        std::span<std::uint32_t> counters,
                                        std::vector<std::uint8_t> &retired) {
  // A raw pointer: the byte stores may alias anything, so the vector's
  // data pointer would be reloaded per set.
  std::uint8_t *const flags = retired.data();
  std::uint64_t retired_count = 0;
  for (std::size_t j = 0; j < samples.size(); ++j) {
    const RRRSet &sample = samples[j];
    if (flags[j] || !std::binary_search(sample.begin(), sample.end(), seed))
      continue;
    flags[j] = 1;
    ++retired_count;
    for (vertex_t u : sample) {
      RIPPLES_DEBUG_ASSERT(counters[u] > 0);
      --counters[u];
    }
  }
  RIPPLES_DEBUG_ASSERT(counters[seed] == 0);
  return retired_count;
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
  return select_seeds_multithreaded(num_vertices, k, collection, 1);
}

SelectionResult select_seeds_multithreaded(vertex_t num_vertices,
                                           std::uint32_t k,
                                           std::span<const RRRSet> samples,
                                           unsigned num_threads) {
  return select_seeds_multithreaded(num_vertices, k, PlainSets{samples},
                                    num_threads, SelectionHooks{});
}

SelectionResult select_seeds_multithreaded(vertex_t num_vertices,
                                           std::uint32_t k,
                                           const RRRCollection &collection,
                                           unsigned num_threads,
                                           const SelectionHooks &hooks) {
  return select_seeds_multithreaded(
      num_vertices, k,
      PlainSets{collection.sets(), collection.bitmap_words()}, num_threads,
      hooks);
}

SelectionResult
select_seeds_multithreaded(vertex_t num_vertices, std::uint32_t k,
                           const CompressedRRRCollection &collection,
                           unsigned num_threads, const SelectionHooks &hooks) {
  return select_seeds_multithreaded(num_vertices, k,
                                    CompressedSets{collection}, num_threads,
                                    hooks);
}

SelectionResult select_seeds_lazy(vertex_t num_vertices, std::uint32_t k,
                                  std::span<const RRRSet> samples) {
  RIPPLES_ASSERT(k >= 1 && k <= num_vertices);
  trace::Span span("select", "select.lazy", "k", k, "samples",
                   samples.size());
  std::vector<std::uint32_t> counters(num_vertices, 0);
  {
    trace::Span count_span("select", "select.count");
    count_memberships(samples, counters);
  }
  // A max-heap of cached counter values: higher count first, ties to the
  // smaller vertex id, as the eager argmax breaks them.  Counters only
  // decrease as samples retire, so a popped entry whose cached value still
  // matches the live counter is globally maximal; stale entries are
  // refreshed and reinserted.
  struct Entry {
    std::uint32_t count;
    vertex_t vertex;
  };
  auto lower_priority = [](const Entry &a, const Entry &b) {
    return a.count < b.count || (a.count == b.count && a.vertex > b.vertex);
  };
  std::vector<Entry> heap;
  heap.reserve(num_vertices);
  for (vertex_t v = 0; v < num_vertices; ++v) heap.push_back({counters[v], v});
  std::make_heap(heap.begin(), heap.end(), lower_priority);
  std::vector<std::uint8_t> retired(samples.size(), 0);

  SelectionResult result;
  result.total_samples = samples.size();
  result.seeds.reserve(k);
  std::uint64_t stale_refreshes = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    trace::Span round("select", "select.round", "round", i);
    std::uint64_t round_stale = 0;
    for (;; ++round_stale) {
      std::pop_heap(heap.begin(), heap.end(), lower_priority);
      Entry &top = heap.back();
      if (top.count == counters[top.vertex]) break;
      top.count = counters[top.vertex]; // stale: refresh and reinsert
      std::push_heap(heap.begin(), heap.end(), lower_priority);
    }
    const vertex_t seed = heap.back().vertex;
    heap.pop_back();
    stale_refreshes += round_stale;
    round.arg("stale", round_stale);
    result.seeds.push_back(seed);
    const std::uint64_t covered =
        retire_samples_containing(seed, samples, counters, retired);
    result.covered_samples += covered;
    round.arg("covered", covered);
  }
  trace::instant("select", "select.lazy_done", "stale_refreshes",
                 stale_refreshes);
  return result;
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

namespace detail {

void record_exchange_words(std::uint64_t words) {
  if (!metrics::enabled()) return;
  static metrics::Counter &c =
      metrics::Registry::instance().counter("imm.select.exchange_words");
  c.add(words);
}

} // namespace detail

} // namespace ripples
