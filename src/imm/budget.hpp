/// \file budget.hpp
/// \brief The RRR memory-budget governor (DESIGN.md §12).
///
/// At scale the RRR collection is the dominant allocation of every IMM
/// driver, and theta is data-dependent: a run that fits on one graph OOM-kills
/// on the next.  The governor turns that cliff into a ladder.  Admission of
/// new samples is chunked and charged against MemoryTracker's budget
/// *before* generation (estimate-ahead: the reservation is the enforcement
/// point and the deterministic oom-fault site; actual footprints are
/// reconciled after admission with unchecked bookkeeping).  When a
/// reservation is refused the store degrades in documented order:
///
///   1. switch the stored sets to CompressedRRRCollection (re-encode in
///      place: list records typically shrink 3-10x, bitmap records stay
///      bitmaps unless their delta list is shorter, and no set grows;
///      selection decodes on read);
///   2. shed the in-flight batch and re-admit at halved granularity, down
///      to one sample at a time;
///   3. stop: shared-memory drivers raise BudgetEarlyStop, caught by the
///      martingale skeleton which finishes selection over the samples it
///      has and reports `degraded` with the certified epsilon'
///      (theta.hpp::certified_epsilon); the distributed driver instead
///      flushes pending checkpoint snapshots and throws
///      MemoryBudgetExceeded naming the consumer — rank-local truncation
///      would silently break the cross-rank theta agreement.
///
/// Every outcome is a valid answer or a diagnostic; no path aborts.  Every
/// shared-memory run, and every rank of a distributed one, stores its sets
/// in an RRRStore; a run with no budget, no forced compression and no oom
/// faults has nothing that can refuse, so its store admits each extend as
/// one window — one reservation, one generator call, one footprint
/// reconciliation — and pays no more than a bare collection.  The
/// distributed driver's inter-rank steal loop is such a window's
/// generator, which is why stealing needs an ungoverned store.
#ifndef RIPPLES_IMM_BUDGET_HPP
#define RIPPLES_IMM_BUDGET_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "imm/rrr_collection.hpp"
#include "imm/select.hpp"
#include "support/memory.hpp"
#include "support/metrics.hpp"

namespace ripples {

/// When the governor may switch RRR storage to the compressed
/// representation.  `Auto` compresses only under budget pressure; `Always`
/// forces it from the first sample (the determinism tests and the
/// compression leg of check.sh use this); `Off` removes the rung — the
/// ladder goes straight from shedding to stopping.
enum class CompressMode { Auto, Always, Off };

/// RRR-store scrubbing intensity (DESIGN.md §14).  `Off` pays nothing;
/// `On` verifies the stored arena's checksums before every seed selection;
/// `Paranoid` verifies before selection's count pass and again before each
/// round's search.  A failed verification is repaired in place by
/// regenerating the damaged block from its RNG coordinates (DESIGN.md §6's
/// healing at storage granularity) and only escalates when regeneration is
/// not byte-identical.
enum class ScrubMode { Off, On, Paranoid };

/// Spelling used by `--scrub-rrr` and the RunReport (off/on/paranoid).
[[nodiscard]] const char *to_string(ScrubMode mode);

namespace detail {

/// Control-flow signal of ladder rung 3 on the shared-memory drivers: the
/// store cannot admit more samples, \p achieved is what it holds.  Caught
/// by run_imm_martingale, which finishes with what it has and marks the
/// report degraded.  Never escapes to callers.
struct BudgetEarlyStop {
  std::uint64_t achieved = 0;
};

/// kind=oom entries of \p fault_plan translated for
/// MemoryTracker::install_oom_faults.
[[nodiscard]] std::vector<OomFaultSpec>
oom_faults_from_plan(const std::string &fault_plan);

/// RAII installation of one run's budget and oom-fault plan into the
/// process-wide MemoryTracker; the destructor restores the unlimited,
/// fault-free state.  Drivers construct one for the duration of the run.
class ScopedBudget {
public:
  ScopedBudget(std::size_t budget_bytes, CompressMode compress,
               std::vector<OomFaultSpec> oom_faults);
  ~ScopedBudget();

  ScopedBudget(const ScopedBudget &) = delete;
  ScopedBudget &operator=(const ScopedBudget &) = delete;

  /// True when something can refuse or reshape admission: a finite budget,
  /// a forced representation, or an installed oom fault.  Governed stores
  /// admit in Policy::chunk batches, so every chunk is a reservation (and
  /// oom-fault) site; ungoverned ones admit each extend whole.  (A fault
  /// with no governed store would never reach a per-chunk reservation
  /// site and silently turn a failure test into a false pass, so faults
  /// alone force governance.)
  [[nodiscard]] bool governed() const { return governed_; }

private:
  bool governed_;
};

/// Budget-governed RRR storage: holds either the plain or the compressed
/// representation behind the admission ladder above.  Every driver but the
/// hypergraph baseline and the partitioned one stores its sets here (the
/// distributed driver one store per rank).
class RRRStore {
public:
  struct Policy {
    std::size_t budget_bytes = 0;
    CompressMode compress = CompressMode::Auto;
    /// Rung 3 behaviour: true (distributed) throws MemoryBudgetExceeded
    /// after flushing pending checkpoint snapshots; false (shared-memory)
    /// raises BudgetEarlyStop for the certified-early-stop path.
    bool hard_refusal = false;
    /// Name reported by MemoryBudgetExceeded and the mem.budget trace.
    const char *consumer = "imm.rrr";
    /// The graph's vertex count n: both representations then store a set
    /// of at least ⌈n/32⌉ members as an n-bit bitmap record
    /// (rrr_collection.hpp).  0 keeps every record a list.
    vertex_t num_vertices = 0;
    /// Initial admission granularity in samples; halved on shed, floor 1.
    /// Ungoverned stores set it to UINT64_MAX: one window per extend.
    std::uint64_t chunk = 16384;
    /// Storage scrubbing (DESIGN.md §14).  Checksums exist only on the
    /// compressed arena, and repair replays admission windows through the
    /// recorded generators, so it requires generators that are pure
    /// functions of (first, count) — true of every driver's, since each
    /// sample is drawn from its own counter stream.
    ScrubMode scrub = ScrubMode::Off;
  };

  explicit RRRStore(const Policy &policy);
  ~RRRStore();

  RRRStore(const RRRStore &) = delete;
  RRRStore &operator=(const RRRStore &) = delete;

  [[nodiscard]] bool using_compressed() const { return compressed_active_; }
  [[nodiscard]] std::size_t size() const {
    return compressed_active_ ? compressed_.size() : plain_.size();
  }
  [[nodiscard]] std::size_t footprint_bytes() const {
    return compressed_active_ ? compressed_.footprint_bytes()
                              : plain_.footprint_bytes();
  }
  [[nodiscard]] std::size_t total_associations() const {
    return compressed_active_ ? compressed_.total_associations()
                              : plain_.total_associations();
  }
  /// Largest footprint_bytes() the store has held, sampled at every
  /// reconciliation — including the plain footprint just before a switch
  /// to the compressed representation, which an after-the-extend reading
  /// never sees.
  [[nodiscard]] std::size_t peak_footprint_bytes() const {
    return peak_bytes_;
  }

  /// Generator for one admission batch: append the caller's samples for
  /// the global index window [first, first + count) to \p out — the
  /// store's own plain sets while that representation is active (generated
  /// in place), an empty scratch collection with the same record kinds
  /// otherwise.  On the
  /// shared-memory drivers every index is the caller's; the distributed
  /// driver generates only its rank's streams' slice of the window.
  using WindowGenerator = std::function<void(
      RRRCollection &out, std::uint64_t first, std::uint64_t count)>;

  /// Admits the window [from, to) in budget-charged chunks, walking the
  /// degradation ladder on refusal.  Chunks reach \p generate in ascending
  /// order.  Windows need not be contiguous: the distributed heal admits a
  /// dead rank's lost range of one stream.  When \p generate throws, the
  /// chunk's reservation is returned and whatever it appended is charged
  /// before the exception propagates.
  void extend_window(std::uint64_t from, std::uint64_t to,
                     const WindowGenerator &generate);

  /// Seed selection over the active representation on a team of up to
  /// \p num_threads threads — identical seeds and tie-breaking in either
  /// (the determinism tests assert it).  \p hooks carries a distributed
  /// rank's pick.  Under ScrubMode::On a scrub pass runs first, so
  /// selection never consumes unverified bytes; under Paranoid the body
  /// scrubs before its count pass and again before each round's search.
  [[nodiscard]] SelectionResult select(vertex_t num_vertices, std::uint32_t k,
                                       unsigned num_threads,
                                       SelectionHooks hooks = {});

  /// Records every stored sample's size into \p out (the report histogram).
  void record_sizes(metrics::HistogramData &out);

  /// One scrub pass over the active representation: verify block CRCs,
  /// regenerate any damaged block's samples bit-identically from the
  /// admission journal's (window, generator) coordinates, re-encode in
  /// place, and re-verify.  Returns the number of blocks repaired.  A no-op
  /// when scrubbing is Off or the plain representation is active (no
  /// contiguous arena to checksum — the collective-level CRCs still cover
  /// its exchanges).  Throws std::runtime_error when repair is impossible
  /// (journal gap or non-identical regeneration).
  std::size_t scrub();

  /// Deterministic fault-injection surface for tests and DESIGN.md §14's
  /// corruption drills: flips one bit of the compressed arena.  Returns
  /// false when no compressed payload exists to damage.
  bool flip_stored_bit(std::size_t bit);

private:
  [[nodiscard]] std::size_t estimate_bytes(std::uint64_t count) const;
  void switch_to_compressed();
  void reconcile();
  [[noreturn]] void stop_or_throw(std::size_t refused_bytes);

  /// One budget-admitted chunk, journalled for scrub repair: the samples at
  /// set indices [set_first, set_first + set_count) were produced by
  /// generators_[generator] over the global window [first, first + count).
  struct AdmissionWindow {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    std::uint64_t set_first = 0;
    std::uint64_t set_count = 0;
    std::size_t generator = 0;
  };

  Policy policy_;
  RRRCollection plain_;
  CompressedRRRCollection compressed_;
  bool compressed_active_ = false;
  /// Bytes currently reserved in MemoryTracker for the stored sets.
  std::size_t charged_ = 0;
  std::size_t peak_bytes_ = 0;
  /// Window indices admitted so far — the denominator of the running
  /// bytes-per-index estimate (on the distributed driver a rank owns only
  /// ~1/p of each window; estimating per *window* index absorbs that).
  std::uint64_t window_units_ = 0;
  /// Scrub repair state (empty unless policy_.scrub != Off): the admission
  /// journal plus one stored copy of each extend_window generator.
  std::vector<AdmissionWindow> journal_;
  std::vector<WindowGenerator> generators_;
};

} // namespace detail
} // namespace ripples

#endif // RIPPLES_IMM_BUDGET_HPP
