#include "imm/budget.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "mpsim/fault.hpp"
#include "support/assert.hpp"
#include "support/checkpoint.hpp"
#include "support/trace.hpp"

namespace ripples {

CompressMode compress_mode_from_env() {
  const char *value = std::getenv("RIPPLES_RRR_COMPRESS");
  if (value == nullptr || *value == '\0' || std::strcmp(value, "auto") == 0)
    return CompressMode::Auto;
  if (std::strcmp(value, "always") == 0) return CompressMode::Always;
  if (std::strcmp(value, "off") == 0) return CompressMode::Off;
  std::fprintf(stderr,
               "RIPPLES_RRR_COMPRESS: expected auto|always|off, got '%s'\n",
               value);
  std::exit(2);
}

std::size_t mem_budget_from_env() {
  const char *value = std::getenv("RIPPLES_MEM_BUDGET");
  if (value == nullptr || *value == '\0') return 0;
  char *end = nullptr;
  const unsigned long long bytes = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr,
                 "RIPPLES_MEM_BUDGET: expected a byte count, got '%s'\n",
                 value);
    std::exit(2);
  }
  return static_cast<std::size_t>(bytes);
}

ScrubMode scrub_mode_from_env() {
  const char *value = std::getenv("RIPPLES_SCRUB_RRR");
  if (value == nullptr || *value == '\0' || std::strcmp(value, "off") == 0)
    return ScrubMode::Off;
  if (std::strcmp(value, "on") == 0) return ScrubMode::On;
  if (std::strcmp(value, "paranoid") == 0) return ScrubMode::Paranoid;
  std::fprintf(stderr,
               "RIPPLES_SCRUB_RRR: expected off|on|paranoid, got '%s'\n",
               value);
  std::exit(2);
}

const char *to_string(ScrubMode mode) {
  switch (mode) {
  case ScrubMode::On: return "on";
  case ScrubMode::Paranoid: return "paranoid";
  case ScrubMode::Off: break;
  }
  return "off";
}

namespace detail {

namespace {

metrics::Counter &compress_switches_counter() {
  static metrics::Counter &counter =
      metrics::Registry::instance().counter("mem.budget.compress_switches");
  return counter;
}

metrics::Counter &shed_batches_counter() {
  static metrics::Counter &counter =
      metrics::Registry::instance().counter("mem.budget.shed_batches");
  return counter;
}

metrics::Counter &scrub_passes_counter() {
  static metrics::Counter &counter =
      metrics::Registry::instance().counter("integrity.scrub_passes");
  return counter;
}

metrics::Counter &scrub_corrupt_counter() {
  static metrics::Counter &counter =
      metrics::Registry::instance().counter("integrity.scrub_corrupt_blocks");
  return counter;
}

metrics::Counter &scrub_repaired_counter() {
  static metrics::Counter &counter =
      metrics::Registry::instance().counter("integrity.scrub_repaired_blocks");
  return counter;
}

} // namespace

std::vector<OomFaultSpec> oom_faults_from_plan(const std::string &fault_plan) {
  std::vector<OomFaultSpec> faults;
  for (const mpsim::FaultSpec &fault : mpsim::parse_fault_plan(fault_plan))
    if (fault.kind == mpsim::FaultSpec::Kind::Oom)
      faults.push_back({fault.rank, fault.site});
  return faults;
}

ScopedBudget::ScopedBudget(std::size_t budget_bytes, CompressMode compress,
                           std::vector<OomFaultSpec> oom_faults)
    : governed_(budget_bytes > 0 || compress == CompressMode::Always ||
                !oom_faults.empty()) {
  MemoryTracker &tracker = MemoryTracker::instance();
  tracker.set_budget(budget_bytes);
  if (!oom_faults.empty()) tracker.install_oom_faults(std::move(oom_faults));
}

ScopedBudget::~ScopedBudget() {
  MemoryTracker &tracker = MemoryTracker::instance();
  tracker.set_budget(0);
  tracker.clear_oom_faults();
}

RRRStore::RRRStore(const Policy &policy)
    : policy_(policy), plain_(policy.num_vertices),
      compressed_(policy.num_vertices) {
  RIPPLES_ASSERT(policy_.chunk >= 1);
  if (policy_.compress == CompressMode::Always) compressed_active_ = true;
  // Checksums are accumulated on append, so they must be live before the
  // first admission (including switch_to_compressed's re-encode).
  if (policy_.scrub != ScrubMode::Off) compressed_.enable_checksums();
}

RRRStore::~RRRStore() {
  if (charged_ != 0) MemoryTracker::instance().release(charged_);
}

std::size_t RRRStore::estimate_bytes(std::uint64_t count) const {
  // Bytes per *window* index, learned from what is already admitted (the
  // distributed driver owns only ~1/p of every window; a per-index average
  // absorbs that without knowing p).  The first batch uses a fixed guess —
  // enforcement converges after one reconciliation.
  const double per_unit =
      window_units_ > 0
          ? static_cast<double>(charged_) / static_cast<double>(window_units_)
          : 64.0;
  return static_cast<std::size_t>(
      std::max(1.0, std::ceil(per_unit * static_cast<double>(count))));
}

void RRRStore::extend_window(std::uint64_t from, std::uint64_t to,
                             const WindowGenerator &generate) {
  MemoryTracker &tracker = MemoryTracker::instance();
  // Scrub repair replays admissions through the generator that produced
  // them, so keep one copy per extend_window call (drivers enabling scrub
  // pass replay-safe generators — pure functions of the window, with any
  // mutable driver state captured by value).
  if (policy_.scrub != ScrubMode::Off) generators_.push_back(generate);
  std::uint64_t next = from;
  while (next < to) {
    std::uint64_t count = std::min<std::uint64_t>(policy_.chunk, to - next);
    std::size_t reserved = 0;
    for (;;) {
      const std::size_t estimate = estimate_bytes(count);
      if (tracker.try_reserve(estimate, policy_.consumer)) {
        reserved = estimate;
        break;
      }
      if (!compressed_active_ && policy_.compress != CompressMode::Off) {
        switch_to_compressed();
        continue;
      }
      if (count > 1) {
        count /= 2;
        if (metrics::enabled()) shed_batches_counter().add(1);
        trace::instant("mem", "mem.budget", "shed_to_samples", count);
        continue;
      }
      stop_or_throw(estimate);
    }
    const std::uint64_t set_first = size();
    // A generator that throws — a rejected edge table, a rank failure in
    // the distributed steal loop — must not keep the window's estimate:
    // the tracker is process-wide, and every later solve would start that
    // much closer to refusal.  Charge what it appended and rethrow.
    try {
      if (compressed_active_) {
        RRRCollection scratch(policy_.num_vertices);
        generate(scratch, next, count);
        for (std::size_t j = 0; j < scratch.size(); ++j)
          compressed_.append(scratch.record(j));
      } else {
        // Straight into the plain sets: a scratch copy of the window would
        // double its peak footprint for nothing.
        generate(plain_, next, count);
      }
    } catch (...) {
      tracker.release(reserved);
      reconcile();
      throw;
    }
    window_units_ += count;
    if (policy_.scrub != ScrubMode::Off)
      journal_.push_back({next, count, set_first, size() - set_first,
                          generators_.size() - 1});
    tracker.release(reserved);
    reconcile();
    next += count;
  }
}

void RRRStore::switch_to_compressed() {
  RIPPLES_ASSERT(!compressed_active_);
  const std::size_t before = plain_.footprint_bytes();
  for (std::size_t j = 0; j < plain_.size(); ++j)
    compressed_.append(plain_.record(j));
  compressed_.shrink_to_fit();
  // Release, not clear: the slack is the point.
  plain_ = RRRCollection(policy_.num_vertices);
  compressed_active_ = true;
  if (metrics::enabled()) compress_switches_counter().add(1);
  trace::instant("mem", "mem.budget", "compressed_sets", compressed_.size(),
                 "from_bytes", before);
  reconcile();
}

void RRRStore::reconcile() {
  MemoryTracker &tracker = MemoryTracker::instance();
  const std::size_t actual = footprint_bytes();
  if (actual > charged_)
    tracker.force_reserve(actual - charged_);
  else if (actual < charged_)
    tracker.release(charged_ - actual);
  charged_ = actual;
  peak_bytes_ = std::max(peak_bytes_, actual);
}

void RRRStore::stop_or_throw(std::size_t refused_bytes) {
  MemoryTracker &tracker = MemoryTracker::instance();
  if (policy_.hard_refusal) {
    // Make the run's resumable state durable before diagnosing: the caller
    // will surface the refusal as a run failure, and a re-run with a larger
    // budget must be able to --resume past the work already done.
    checkpoint::flush_pending_snapshots();
    throw MemoryBudgetExceeded(policy_.consumer, refused_bytes,
                               tracker.reserved_bytes(), tracker.budget());
  }
  throw BudgetEarlyStop{size()};
}

std::size_t RRRStore::scrub() {
  if (policy_.scrub == ScrubMode::Off || !compressed_active_) return 0;
  if (metrics::enabled()) scrub_passes_counter().add(1);
  const std::vector<std::size_t> corrupt = compressed_.verify_blocks();
  if (corrupt.empty()) return 0;
  if (metrics::enabled()) scrub_corrupt_counter().add(corrupt.size());
  for (const std::size_t block : corrupt) {
    trace::instant("mem", "rrr.scrub_corrupt", "block", block);
    const auto [set_first, set_last] = compressed_.block_set_range(block);
    // Reassemble the block's samples from the admission journal: every
    // overlapping window replays through the generator that produced it,
    // bit-identical by the counter-stream contract.
    RRRCollection sets(policy_.num_vertices);
    sets.grow(set_last - set_first);
    std::vector<std::uint8_t> have(set_last - set_first, 0);
    for (const AdmissionWindow &window : journal_) {
      const std::uint64_t window_last = window.set_first + window.set_count;
      if (window.set_first >= set_last || window_last <= set_first) continue;
      RRRCollection scratch(policy_.num_vertices);
      generators_[window.generator](scratch, window.first, window.count);
      if (scratch.size() != window.set_count)
        throw std::runtime_error(
            "RRR scrub: window replay produced " +
            std::to_string(scratch.size()) + " sets where the admission "
            "journal recorded " + std::to_string(window.set_count) +
            " — the generator is not replay-safe");
      const std::uint64_t lo = std::max<std::uint64_t>(set_first,
                                                       window.set_first);
      const std::uint64_t hi = std::min<std::uint64_t>(set_last, window_last);
      for (std::uint64_t j = lo; j < hi; ++j) {
        sets.mutable_sets()[j - set_first] =
            std::move(scratch.mutable_sets()[j - window.set_first]);
        have[j - set_first] = 1;
      }
    }
    if (std::find(have.begin(), have.end(), std::uint8_t{0}) != have.end())
      throw std::runtime_error(
          "RRR scrub: damaged block " + std::to_string(block) +
          " has samples missing from the admission journal");
    std::vector<RRRRecord> records;
    records.reserve(sets.size());
    for (std::size_t j = 0; j < sets.size(); ++j)
      records.push_back(sets.record(j));
    compressed_.repair_block(block, records);
    if (metrics::enabled()) scrub_repaired_counter().add(1);
    trace::instant("mem", "rrr.scrub_repair", "block", block);
  }
  if (!compressed_.verify_blocks().empty())
    throw std::runtime_error(
        "RRR scrub: a repaired block still fails verification");
  return corrupt.size();
}

bool RRRStore::flip_stored_bit(std::size_t bit) {
  if (!compressed_active_ || compressed_.total_associations() == 0)
    return false;
  compressed_.flip_payload_bit(bit);
  return true;
}

SelectionResult RRRStore::select(vertex_t num_vertices, std::uint32_t k,
                                 unsigned num_threads, SelectionHooks hooks) {
  if (!compressed_active_)
    return select_seeds_multithreaded(num_vertices, k, plain_, num_threads,
                                      hooks);
  if (policy_.scrub == ScrubMode::Paranoid)
    hooks.verify = [this] { scrub(); };
  else
    scrub();
  return select_seeds_multithreaded(num_vertices, k, compressed_, num_threads,
                                    hooks);
}

void RRRStore::record_sizes(metrics::HistogramData &out) {
  if (compressed_active_) {
    CompressedRRRCollection::Cursor cursor = compressed_.cursor();
    while (!cursor.at_end()) {
      const std::uint32_t count = cursor.next_header();
      cursor.skip_members(count);
      out.record(count);
    }
  } else {
    for (std::size_t j = 0; j < plain_.size(); ++j)
      out.record(plain_.record(j).size());
  }
}

} // namespace detail
} // namespace ripples
