#include "imm/sampler.hpp"

#include <omp.h>

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

} // namespace

void sample_sequential(const CsrGraph &graph, DiffusionModel model,
                       std::uint64_t target_total, std::uint64_t seed,
                       RRRCollection &collection) {
  if (collection.size() >= target_total) return;
  trace::Span span("sampler", "sampler.batch", "first", collection.size(),
                   "count", target_total - collection.size());
  std::uint64_t first = collection.grow(target_total - collection.size());
  RRRGenerator generator(graph);
  auto &sets = collection.mutable_sets();
  for (std::uint64_t i = first; i < target_total; ++i) {
    Philox4x32 rng = sample_stream(seed, i);
    generator.generate_random_root(model, rng, sets[i]);
  }
  count_generated(target_total - first);
  trace::counter("rrr_sets", collection.size());
}

void sample_multithreaded(const CsrGraph &graph, DiffusionModel model,
                          std::uint64_t target_total, std::uint64_t seed,
                          unsigned num_threads, RRRCollection &collection) {
  RIPPLES_ASSERT(num_threads >= 1);
  if (collection.size() >= target_total) return;
  trace::Span span("sampler", "sampler.batch", "first", collection.size(),
                   "count", target_total - collection.size());
  std::uint64_t first = collection.grow(target_total - collection.size());
  auto &sets = collection.mutable_sets();
  auto count = static_cast<std::int64_t>(target_total - first);
#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    RRRGenerator generator(graph);
    // One span per worker covering its share of the batch; `nowait` below
    // ends it when the thread finishes its own iterations, so RRR-size
    // imbalance shows as ragged span ends instead of being hidden behind
    // the loop barrier.
    trace::Span worker("sampler", "sampler.worker");
    std::uint64_t generated = 0;
    // Dynamic schedule: RRR-set sizes are heavy-tailed under IC, so static
    // chunking would leave threads idle behind one giant traversal.
#pragma omp for schedule(dynamic, 16) nowait
    for (std::int64_t offset = 0; offset < count; ++offset) {
      std::uint64_t i = first + static_cast<std::uint64_t>(offset);
      Philox4x32 rng = sample_stream(seed, i);
      generator.generate_random_root(model, rng, sets[i]);
      ++generated;
    }
    worker.arg("sets", generated);
  }
  count_generated(static_cast<std::uint64_t>(count));
  trace::counter("rrr_sets", collection.size());
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
  RIPPLES_ASSERT(num_threads >= 1);
  if (indices.empty()) return 0;
  std::uint64_t first_slot = collection.grow(indices.size());
  auto &sets = collection.mutable_sets();
#pragma omp parallel num_threads(static_cast<int>(num_threads))
  {
    RRRGenerator generator(graph);
#pragma omp for schedule(dynamic, 16)
    for (std::int64_t j = 0; j < static_cast<std::int64_t>(indices.size());
         ++j) {
      Philox4x32 rng =
          sample_stream(seed, indices[static_cast<std::size_t>(j)]);
      generator.generate_random_root(
          model, rng, sets[first_slot + static_cast<std::uint64_t>(j)]);
    }
  }
  count_generated(indices.size());
  return indices.size();
}

} // namespace ripples
