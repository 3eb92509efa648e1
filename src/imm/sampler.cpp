#include "imm/sampler.hpp"

#include <omp.h>
#include <optional>

#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace ripples {

namespace {

/// Registry accounting for one extend call (a batch of samples).  The
/// counter lookup happens once per process; the disabled path is a single
/// relaxed load in metrics::enabled().
void count_generated(std::uint64_t batch) {
  if (!metrics::enabled()) return;
  static metrics::Counter &generated =
      metrics::Registry::instance().counter("sampler.samples_generated");
  generated.add(batch);
}

/// The one scalar fill loop of every counter-stream entry point: out[j]
/// becomes the record of the RRR set at global index index_of(j), j in
/// [0, count), in \p records' kinds.  A set is generated as a list in its
/// slot, with the capacity push_back growth gives it (the footprint of the
/// paper's IMMOPT lists), and a set reaching the bitmap size is rewritten
/// as its bitmap, which frees the list.
/// Dynamic schedule: RRR-set sizes are heavy-tailed under IC, so static
/// chunking would leave threads idle behind one giant traversal.
/// kWorkerSpans gives each thread one span over its share of the batch;
/// `nowait` ends it when the thread finishes its own iterations, so RRR-size
/// imbalance shows as ragged span ends instead of being hidden behind the
/// loop barrier.  The index-list entry points run inside mpsim ranks, whose
/// OpenMP workers carry no rank in the trace, so they emit none.
template <bool kWorkerSpans, typename IndexOf>
void fill_sets(const CsrGraph &graph, DiffusionModel model, std::uint64_t seed,
               std::uint64_t count, unsigned num_threads, IndexOf index_of,
               const RRRCollection &records, RRRSet *out) {
  RIPPLES_ASSERT(num_threads >= 1);
#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    RRRGenerator generator(graph);
    std::optional<trace::Span> worker;
    if constexpr (kWorkerSpans) worker.emplace("sampler", "sampler.worker");
    std::uint64_t generated = 0;
#pragma omp for schedule(dynamic, 16) nowait
    for (std::int64_t j = 0; j < static_cast<std::int64_t>(count); ++j) {
      const auto slot = static_cast<std::uint64_t>(j);
      Philox4x32 rng = sample_stream(seed, index_of(slot));
      generator.generate_random_root(model, rng, out[slot]);
      records.seal(out[slot]);
      ++generated;
    }
    if constexpr (kWorkerSpans) worker->arg("sets", generated);
  }
  count_generated(count);
}

} // namespace

namespace detail {

void sample_counter_range(const CsrGraph &graph, DiffusionModel model,
                          std::uint64_t seed, std::uint64_t first,
                          std::uint64_t count, unsigned num_threads,
                          RRRCollection &collection) {
  if (count == 0) return;
  trace::Span span("sampler", "sampler.batch", "first", first, "count", count);
  const std::uint64_t slot = collection.grow(count);
  fill_sets<true>(
      graph, model, seed, count, num_threads,
      [first](std::uint64_t j) { return first + j; }, collection,
      &collection.mutable_sets()[slot]);
  trace::counter("rrr_sets", first + count);
}

} // namespace detail

void sample_sequential(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       RRRCollection &collection) {
  sample_multithreaded(graph, model, target_total, seed, 1, collection);
}

void sample_multithreaded(const CsrGraph &graph, DiffusionModel model,
                          std::uint64_t target_total, std::uint64_t seed,
                          unsigned num_threads, RRRCollection &collection) {
  if (collection.size() >= target_total) return;
  detail::sample_counter_range(graph, model, seed, collection.size(),
                               target_total - collection.size(), num_threads,
                               collection);
}

void sample_hypergraph(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       HypergraphCollection &collection) {
  RRRGenerator generator(graph);
  RRRSet scratch;
  std::uint64_t first = collection.size();
  if (first >= target_total) return;
  trace::Span span("sampler", "sampler.batch_hypergraph", "first", first,
                   "count", target_total - first);
  for (std::uint64_t i = first; i < target_total; ++i) {
    Philox4x32 rng = sample_stream(seed, i);
    generator.generate_random_root(model, rng, scratch);
    collection.add(std::move(scratch));
    scratch = {};
  }
  count_generated(target_total - first);
  trace::counter("rrr_sets", collection.size());
}

std::uint64_t sample_leapfrog_range(const CsrGraph &graph, DiffusionModel model,
                                    Lcg64 &engine, std::uint64_t stream,
                                    std::uint64_t num_streams,
                                    std::uint64_t from, std::uint64_t to,
                                    RRRCollection &collection) {
  RRRGenerator generator(graph);
  std::uint64_t generated = 0;
  for (std::uint64_t i = leapfrog_first_index(from, stream, num_streams);
       i < to; i += num_streams) {
    RRRSet set;
    generator.generate_random_root(model, engine, set);
    collection.add(std::move(set));
    ++generated;
    // i + num_streams may wrap for `to` near UINT64_MAX; a wrapped index
    // would re-enter the range and loop forever.
    if (num_streams > std::numeric_limits<std::uint64_t>::max() - i) break;
  }
  count_generated(generated);
  return generated;
}

std::uint64_t sample_counter_indices(const CsrGraph &graph,
                                     DiffusionModel model, std::uint64_t seed,
                                     std::span<const std::uint64_t> indices,
                                     unsigned num_threads,
                                     RRRCollection &collection) {
  if (indices.empty()) return 0;
  const std::uint64_t slot = collection.grow(indices.size());
  fill_sets<false>(
      graph, model, seed, indices.size(), num_threads,
      [indices](std::uint64_t j) { return indices[j]; }, collection,
      &collection.mutable_sets()[slot]);
  return indices.size();
}

} // namespace ripples
