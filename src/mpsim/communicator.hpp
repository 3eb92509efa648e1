/// \file communicator.hpp
/// \brief In-process message-passing runtime with MPI collective semantics.
///
/// The paper's distributed implementation is hybrid MPI+OpenMP.  No MPI
/// library is available in this environment, so `mpsim` substitutes an
/// in-process runtime: every rank is a std::thread executing the same
/// program, each owning rank-private data by convention (its partition R_i
/// of the samples, its counter arrays), and communicating exclusively
/// through the collectives below, which follow MPI semantics:
///
///  * `allreduce`  — MPI_Allreduce: element-wise reduction of equal-length
///    buffers, result visible to every rank (the paper's dominant
///    communication, one n-length Sum allreduce per selected seed);
///  * `reduce`     — MPI_Reduce (root only);
///  * `broadcast`  — MPI_Bcast from a root rank;
///  * `allgather`  — MPI_Allgather of one value per rank;
///  * `allgatherv` — MPI_Allgatherv of variable-length per-rank vectors;
///  * `barrier`    — MPI_Barrier.
///
/// Every collective must be called by all live ranks of the communicator in
/// the same order (exactly MPI's contract).  Element types must be
/// trivially copyable, mirroring MPI datatypes.
///
/// Because ranks share one address space, the input graph is naturally
/// shared read-only; under real MPI each rank holds a private copy (§3.2 of
/// the paper).  This changes memory cost, not algorithm behaviour — every
/// rank still treats the graph as immutable input.
///
/// Failure model (three escalation levels, see DESIGN.md §failure-model):
///
///  1. *Abort* (always on): when a rank dies with an exception and recovery
///     is disabled, a shared abort flag unwinds every peer out of its
///     blocked collective with `RankAborted` and Context::run rethrows the
///     original exception — no deadlock, no survivors.
///  2. *Shrink* (RunOptions::recover): ULFM-style survivable collectives.
///     A dead rank is recorded in an epoch-tagged membership ledger;
///     surviving ranks unwind from the failed collective with
///     `RankFailed{dead_ranks}`, collectively agree on the dead set via
///     `shrink()`, obtain a dense re-ranked communicator view, and
///     continue.  Callers address peers by *dense* rank (`rank()`/`size()`)
///     while `world_rank()`/`world_size()` keep the immutable launch-time
///     identity that data ownership (the sampler's world streams) is keyed
///     by.
///  3. *Watchdog* (RunOptions::watchdog, default off): every collective
///     wait carries a deadline; a stalled peer converts the wait into a
///     diagnosed `CollectiveTimeout` naming the site, the laggard ranks,
///     and the elapsed time instead of blocking forever.
///  4. *Integrity* (RunOptions::verify_collectives, default off): every
///     payload — collective buffers, mailbox messages, steal items —
///     carries a CRC-32 published by its producer and recomputed by every
///     consumer before any byte is acted on.  A mismatch triggers a
///     bounded, deterministic retry with capped exponential backoff
///     (integrity.hpp); exhaustion escalates — `PayloadCorrupt` for the
///     producer of the bad bytes, the level-2 shrink/heal ledger for its
///     peers — so silent data corruption becomes either a healed transient
///     or a diagnosed rank death, never a wrong answer.
///
/// Deterministic fault injection (`RunOptions::faults`, `RIPPLES_FAULTS`)
/// turns each of these paths into a reproducible test; see fault.hpp.
#ifndef RIPPLES_MPSIM_COMMUNICATOR_HPP
#define RIPPLES_MPSIM_COMMUNICATOR_HPP

#include <chrono>
#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "mpsim/fault.hpp"
#include "mpsim/integrity.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace ripples::mpsim {

enum class ReduceOp { Sum, Max, Min };

/// Thrown out of a collective (or point-to-point wait) on every surviving
/// rank when a peer rank failed with an exception and recovery is disabled:
/// instead of deadlocking in a barrier the dead rank will never reach,
/// peers unwind with RankAborted and Context::run rethrows the peer's
/// original exception.
class RankAborted : public std::exception {
public:
  [[nodiscard]] const char *what() const noexcept override {
    return "mpsim: peer rank threw; this rank was aborted mid-collective";
  }
};

/// Thrown out of a collective on every surviving rank when a peer died and
/// recovery is enabled (RunOptions::recover).  The failed collective had no
/// effect on the caller's buffers unless the peer died *between* the
/// rendezvous phases of an in-place reduction, in which case the buffer
/// contents are unspecified — recovery code must restart from inputs it
/// still owns, as the self-healing IMM driver does.  Survivors must call
/// Communicator::shrink() (all of them, collectively) before issuing the
/// next collective; until then every communication attempt rethrows.
class RankFailed : public std::exception {
public:
  explicit RankFailed(std::vector<int> dead_ranks);

  /// World ranks that died since this rank last acknowledged a shrink, in
  /// death order.
  [[nodiscard]] const std::vector<int> &dead_ranks() const {
    return dead_ranks_;
  }

  [[nodiscard]] const char *what() const noexcept override {
    return message_.c_str();
  }

private:
  std::vector<int> dead_ranks_;
  std::string message_;
};

/// Thrown out of a collective wait whose deadline (RunOptions::watchdog)
/// expired: a diagnosed replacement for an infinite block on a stalled
/// peer.  Carries the site (which collective, this rank's per-rank entry
/// ordinal), the laggard world ranks that had not arrived, and the elapsed
/// wait.  Propagates through the abort protocol: peers of the thrower
/// unwind with RankAborted and Context::run rethrows the timeout.
class CollectiveTimeout : public std::exception {
public:
  CollectiveTimeout(const char *operation, std::uint64_t site,
                    std::vector<int> laggards, std::chrono::milliseconds waited);

  [[nodiscard]] const char *operation() const { return operation_; }
  [[nodiscard]] std::uint64_t site() const { return site_; }
  /// World ranks that had not arrived when the deadline expired.
  [[nodiscard]] const std::vector<int> &laggards() const { return laggards_; }
  [[nodiscard]] std::chrono::milliseconds waited() const { return waited_; }

  [[nodiscard]] const char *what() const noexcept override {
    return message_.c_str();
  }

private:
  const char *operation_;
  std::uint64_t site_;
  std::vector<int> laggards_;
  std::chrono::milliseconds waited_;
  std::string message_;
};

/// The communication operations instrumented by the metrics subsystem.
enum class Collective : std::size_t {
  Barrier = 0,
  Allreduce,
  Reduce,
  Broadcast,
  Allgather,
  Gather,
  Scatter,
  Allgatherv,
  Send,
  Recv,
  Steal,
};

inline constexpr std::size_t kNumCollectives = 11;

[[nodiscard]] const char *to_string(Collective collective);

/// Per-collective call and payload-byte totals, summed over ranks since the
/// last reset.  Recording happens only while `metrics::enabled()`, keeping
/// the communication hot path a single predictable branch otherwise.
struct CommStatsSnapshot {
  std::array<std::uint64_t, kNumCollectives> calls{};
  std::array<std::uint64_t, kNumCollectives> bytes{};

  /// this - earlier, entry-wise (for bracketing one driver execution).
  [[nodiscard]] CommStatsSnapshot since(const CommStatsSnapshot &earlier) const {
    CommStatsSnapshot delta;
    for (std::size_t c = 0; c < kNumCollectives; ++c) {
      delta.calls[c] = calls[c] - earlier.calls[c];
      delta.bytes[c] = bytes[c] - earlier.bytes[c];
    }
    return delta;
  }

  /// Collectives with at least one call, as metrics report entries.
  [[nodiscard]] std::vector<metrics::CollectiveStats> nonzero() const;
};

/// Process-wide communication totals (accumulated across all Contexts).
[[nodiscard]] CommStatsSnapshot comm_stats();
void reset_comm_stats();

namespace detail {
/// Adds one call of \p collective with \p bytes of payload to the global
/// totals.  Out-of-line so the header stays free of the atomics.
void record_collective(Collective collective, std::size_t bytes);
} // namespace detail

namespace detail {

template <typename T> T combine(ReduceOp op, T a, T b) {
  switch (op) {
  case ReduceOp::Sum: return static_cast<T>(a + b);
  case ReduceOp::Max: return a < b ? b : a;
  case ReduceOp::Min: return b < a ? b : a;
  }
  return a;
}

/// Runtime state shared by the ranks of one communicator.  Type-erased:
/// collectives exchange raw pointers plus byte counts.
struct SharedState;

} // namespace detail

/// Execution options for Context::run.  The one-argument overload keeps the
/// historical fail-stop behaviour (abort on any rank's exception, no
/// watchdog, no injected faults).
struct RunOptions {
  int num_ranks = 1;
  /// Survivable-collective mode: a rank's death raises RankFailed on the
  /// survivors (who may shrink() and continue) instead of aborting the run.
  bool recover = false;
  /// Per-collective wait deadline; zero disables the watchdog.  Also read
  /// from RIPPLES_WATCHDOG_MS when left at zero.
  std::chrono::milliseconds watchdog{0};
  /// Treat watchdog-diagnosed stalls as rank failures: the expiring waiter
  /// marks the laggards dead and raises RankFailed, routing them through the
  /// same shrink/heal path a crash takes instead of aborting the run with a
  /// CollectiveTimeout diagnosis.  Requires `recover` and a nonzero
  /// watchdog; only the generation-barrier waits evict (the shrink and
  /// mailbox watchdogs stay diagnose-only — see sync()).
  bool evict_stalled = false;
  /// Checksummed exchanges: every payload carries a producer CRC-32 that
  /// consumers recompute before use, with retry/backoff on mismatch and
  /// escalation to the failure model on exhaustion (DESIGN.md §14).  Also
  /// read from RIPPLES_VERIFY_COLLECTIVES when left false.
  bool verify_collectives = false;
  /// Deterministic fault plan; merged with RIPPLES_FAULTS when empty.
  FaultPlan faults;
};

/// Membership agreed by a shrink: the surviving world ranks (dense order)
/// and the deaths this shrink acknowledged, in death order.
struct ShrinkResult {
  std::vector<int> members;
  std::vector<int> newly_dead;
};

/// Per-rank handle; passed to the rank function by Context::run.
///
/// `rank()`/`size()` are *dense*: they re-number the surviving ranks after
/// every shrink, so collective logic (roots, slice partitioning, allgather
/// indexing) keeps working on the shrunken team.  `world_rank()` /
/// `world_size()` never change; data ownership that must survive healing
/// (leap-frog stream identity) is keyed by world rank.
class Communicator {
public:
  [[nodiscard]] int rank() const { return my_index_; }
  [[nodiscard]] int size() const { return static_cast<int>(members_.size()); }
  [[nodiscard]] int world_rank() const { return world_rank_; }
  [[nodiscard]] int world_size() const { return world_size_; }
  /// Current membership: world ranks in dense order.
  [[nodiscard]] const std::vector<int> &members() const { return members_; }

  void barrier();

  /// Collective recovery step after catching RankFailed (requires
  /// RunOptions::recover).  Every surviving rank must call it; they agree
  /// on the accumulated dead set, acknowledge it, and adopt the dense
  /// re-ranking returned here.  After shrink() the communicator is fully
  /// functional over the survivors.
  ShrinkResult shrink();

  /// MPI_Allreduce(MPI_IN_PLACE): every rank passes a buffer of identical
  /// length; afterwards every buffer holds the element-wise reduction.
  template <typename T> void allreduce(std::span<T> buffer, ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t site = begin_collective(Collective::Allreduce);
    record(Collective::Allreduce, buffer.size() * sizeof(T));
    trace::Span span("mpsim", "mpsim.allreduce", "bytes",
                     buffer.size() * sizeof(T));
    exchange(Collective::Allreduce, site, buffer.data(),
             buffer.size() * sizeof(T), buffer.data(), [&] {
               combine_slices<T>(buffer, op, /*all_ranks_receive=*/true);
             });
  }

  /// MPI_Reduce: as allreduce, but only \p root's buffer receives the result;
  /// other ranks' buffers are left untouched.  \p root is a dense rank.
  template <typename T> void reduce(std::span<T> buffer, ReduceOp op, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    RIPPLES_ASSERT(root >= 0 && root < size());
    const std::uint64_t site = begin_collective(Collective::Reduce);
    record(Collective::Reduce, buffer.size() * sizeof(T));
    trace::Span span("mpsim", "mpsim.reduce", "bytes",
                     buffer.size() * sizeof(T));
    exchange(Collective::Reduce, site, buffer.data(), buffer.size() * sizeof(T),
             my_index_ == root ? buffer.data() : nullptr, [&] {
               combine_slices<T>(buffer, op, /*all_ranks_receive=*/false, root);
             });
  }

  /// MPI_Bcast: copies \p root's buffer into every rank's buffer.
  template <typename T> void broadcast(std::span<T> buffer, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    RIPPLES_ASSERT(root >= 0 && root < size());
    const std::uint64_t site = begin_collective(Collective::Broadcast);
    record(Collective::Broadcast, buffer.size() * sizeof(T));
    trace::Span span("mpsim", "mpsim.broadcast", "bytes",
                     buffer.size() * sizeof(T));
    exchange(Collective::Broadcast, site, buffer.data(),
             buffer.size() * sizeof(T), nullptr, [&] {
               if (my_index_ != root) {
                 const void *src =
                     peer_pointer(members_[static_cast<std::size_t>(root)]);
                 std::memcpy(buffer.data(), src, buffer.size() * sizeof(T));
               }
             });
  }

  /// MPI_Allgather of a single value per rank; returns the values indexed by
  /// dense rank.
  template <typename T> std::vector<T> allgather(const T &value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t site = begin_collective(Collective::Allgather);
    record(Collective::Allgather, sizeof(T));
    trace::Span span("mpsim", "mpsim.allgather", "bytes", sizeof(T));
    std::vector<T> gathered(members_.size());
    exchange(Collective::Allgather, site, &value, sizeof(T), nullptr, [&] {
      for (std::size_t i = 0; i < members_.size(); ++i)
        std::memcpy(&gathered[i], peer_pointer(members_[i]), sizeof(T));
    });
    return gathered;
  }

  /// MPI_Gather of one value per rank: root receives the values in dense
  /// rank order; other ranks receive an empty vector.
  template <typename T> std::vector<T> gather(const T &value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    RIPPLES_ASSERT(root >= 0 && root < size());
    const std::uint64_t site = begin_collective(Collective::Gather);
    record(Collective::Gather, sizeof(T));
    trace::Span span("mpsim", "mpsim.gather", "bytes", sizeof(T));
    std::vector<T> gathered;
    exchange(Collective::Gather, site, &value, sizeof(T), nullptr, [&] {
      if (my_index_ == root) {
        gathered.resize(members_.size());
        for (std::size_t i = 0; i < members_.size(); ++i)
          std::memcpy(&gathered[i], peer_pointer(members_[i]), sizeof(T));
      }
    });
    return gathered;
  }

  /// MPI_Scatter: root provides size() values; every rank receives the one
  /// at its own dense index.  Non-root ranks may pass an empty span.
  template <typename T> T scatter(std::span<const T> values, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    RIPPLES_ASSERT(root >= 0 && root < size());
    if (my_index_ == root)
      RIPPLES_ASSERT_MSG(values.size() == members_.size(),
                         "scatter requires one value per rank at the root");
    const std::uint64_t site = begin_collective(Collective::Scatter);
    record(Collective::Scatter, sizeof(T));
    trace::Span span("mpsim", "mpsim.scatter", "bytes", sizeof(T));
    T mine;
    exchange(Collective::Scatter, site, values.data(),
             values.size() * sizeof(T), nullptr, [&] {
               std::memcpy(
                   &mine,
                   static_cast<const T *>(peer_pointer(
                       members_[static_cast<std::size_t>(root)])) +
                       my_index_,
                   sizeof(T));
             });
    return mine;
  }

  /// MPI_Send (rendezvous semantics): blocks until the matching recv has
  /// copied the payload.  Messages between one (source, destination) pair
  /// are delivered in order; mismatched send/recv sequences deadlock,
  /// exactly like unbuffered MPI.  \p destination is a dense rank.
  template <typename T> void send(std::span<const T> data, int destination) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(data.data(), data.size() * sizeof(T), destination);
  }

  /// MPI_Recv: blocks until the matching send arrives, then copies it into
  /// \p buffer.  The payload byte count must match the buffer exactly
  /// (checked), mirroring a typed MPI receive.  \p source is a dense rank.
  template <typename T> void recv(std::span<T> buffer, int source) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv_bytes(buffer.data(), buffer.size() * sizeof(T), source);
  }

  /// MPI_Allgatherv: concatenates the per-rank vectors in dense rank order.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t site = begin_collective(Collective::Allgatherv);
    record(Collective::Allgatherv, local.size() * sizeof(T));
    trace::Span span("mpsim", "mpsim.allgatherv", "bytes",
                     local.size() * sizeof(T));
    std::vector<T> gathered;
    exchange(Collective::Allgatherv, site, local.data(),
             local.size() * sizeof(T), nullptr, [&] {
               for (int member : members_) {
                 std::size_t bytes = peer_size(member);
                 std::size_t count = bytes / sizeof(T);
                 std::size_t offset = gathered.size();
                 gathered.resize(offset + count);
                 if (count > 0)
                   std::memcpy(gathered.data() + offset, peer_pointer(member),
                               bytes);
               }
             });
    return gathered;
  }

  /// MPI_Allgatherv preserving the per-rank sections: result[i] is dense
  /// rank i's vector.  The sparse selection exchange needs the rank
  /// boundaries (each section is one rank's top-m summary); the flat
  /// overload above cannot recover them once lengths differ.
  template <typename T>
  std::vector<std::vector<T>> allgatherv_ranks(std::span<const T> local) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t site = begin_collective(Collective::Allgatherv);
    record(Collective::Allgatherv, local.size() * sizeof(T));
    trace::Span span("mpsim", "mpsim.allgatherv", "bytes",
                     local.size() * sizeof(T));
    std::vector<std::vector<T>> sections(members_.size());
    exchange(Collective::Allgatherv, site, local.data(),
             local.size() * sizeof(T), nullptr, [&] {
               for (std::size_t i = 0; i < members_.size(); ++i) {
                 const std::size_t bytes = peer_size(members_[i]);
                 sections[i].resize(bytes / sizeof(T));
                 if (bytes > 0)
                   std::memcpy(sections[i].data(), peer_pointer(members_[i]),
                               bytes);
               }
             });
    return sections;
  }

  /// One stealable unit of work on the donate/steal channel: an opaque
  /// (tag, begin, end) triple whose meaning belongs to the caller (the IMM
  /// sampler uses tag = leapfrog stream and [begin, end) = global draw
  /// index bounds).
  struct StealItem {
    std::uint64_t tag = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  /// Nonblocking donate: replaces this rank's steal queue with \p items.
  /// Unlike the collectives, the steal channel never rendezvouses — there
  /// is no sync, so a dead peer can neither block a publish nor a steal;
  /// the surrounding phase's next real collective is the only barrier.
  /// Counts one fault site (a planned crash here dies *while donating*).
  void steal_publish(std::span<const StealItem> items);

  /// Nonblocking owner-side pop from this rank's own queue.  Hot path: no
  /// fault site, no rendezvous — a rank draining its own queue must not
  /// perturb the fault-site numbering of runs that never steal.
  bool steal_pop(StealItem &out);

  /// Nonblocking steal: scans the *live* membership in dense order starting
  /// after this rank (rotated by \p victim_offset), splits ceil(n/2) items
  /// off the back of the first non-empty victim queue, returns one in
  /// \p out and re-queues the rest locally (where peers may steal them
  /// back).  Returns false when every victim queue is empty.  Counts one
  /// fault site (a planned crash here dies *at a steal site*).  Queues of
  /// ranks that died mid-window stay readable — a steal request to a dead
  /// rank completes instead of hanging — and shrink() removes the dead
  /// rank from the scan, so its unfinished items are never stolen after
  /// the membership acknowledges the death (healing regenerates them).
  bool steal_acquire(StealItem &out, std::uint64_t victim_offset = 0);

private:
  friend class Context;
  friend struct detail::SharedState;
  Communicator(int rank, int size, detail::SharedState &shared);

  /// Metrics hook: one branch when disabled, one relaxed add when enabled.
  static void record(Collective collective, std::size_t bytes) {
    if (metrics::enabled()) detail::record_collective(collective, bytes);
  }

  /// Entry bookkeeping shared by every communication operation: assigns the
  /// per-rank site ordinal and gives the fault injector its hook.  May
  /// throw InjectedFault (planned crash) or block then throw RankAborted
  /// (planned stall, once the run aborts).
  std::uint64_t begin_collective(Collective collective);

  /// Internal rendezvous used by the collectives; unlike the public
  /// barrier(), it is not counted as a Barrier call.  Throws RankAborted
  /// when a peer rank failed (recovery off), RankFailed when a peer died
  /// (recovery on), or CollectiveTimeout when the watchdog deadline passed.
  /// Time spent blocked here feeds the per-thread collective-wait
  /// accounting (metrics::add_thread_collective_wait).  With \p flow set
  /// (the arrival rendezvous of each collective — the one that absorbs
  /// straggler imbalance), the completing rank starts one trace flow per
  /// released waiter and each waiter terminates its own, drawing
  /// completer→waiter arrows across rank rows in Perfetto.
  void sync(Collective collective, std::uint64_t site, bool flow = false);

  void post_pointer(const void *data, std::size_t bytes);
  [[nodiscard]] const void *peer_pointer(int world_peer) const;
  [[nodiscard]] std::size_t peer_size(int world_peer) const;
  void send_bytes(const void *data, std::size_t bytes, int destination);
  void recv_bytes(void *buffer, std::size_t bytes, int source);

  // --- integrity layer (DESIGN.md §14) ---------------------------------------

  [[nodiscard]] bool verify_enabled() const;

  /// The planned corrupt/flaky injection for this rank at \p site, or null.
  [[nodiscard]] const FaultSpec *injection_at(std::uint64_t site) const;

  /// Posts this rank's payload pointer, size, and CRC for \p attempt of the
  /// exchange at \p site, applying any planned corrupt/flaky injection:
  /// `corrupt` posts a bit-flipped staging copy under the clean CRC (the
  /// caller's buffer is never touched, so a retransmit heals), `flaky`
  /// posts clean bytes under a wrong CRC for its first `attempts` tries.
  /// Fast path (verification off, no planned injection): plain post_pointer.
  void post_payload(Collective collective, std::uint64_t site, int attempt,
                    const void *data, std::size_t bytes);

  /// Recomputes every live member's payload CRC against its posted value;
  /// returns the world ranks whose payloads failed.  Identical on every
  /// rank: the buffers are shared and stable between the rendezvous phases,
  /// so each rank reaches the same retry-or-escalate decision without any
  /// extra agreement round.
  [[nodiscard]] std::vector<int> verify_payloads(Collective collective,
                                                 std::uint64_t site,
                                                 int attempt);

  /// Retry budget exhausted: the producer of the bad bytes throws
  /// PayloadCorrupt; its peers route the corrupters into the shrink/heal
  /// ledger (recovery on) or unwind with RankAborted, letting the
  /// producer's diagnosis surface (recovery off).
  [[noreturn]] void escalate_corruption(Collective collective,
                                        std::uint64_t site,
                                        const std::vector<int> &corrupters,
                                        int attempts);

  void note_retry(Collective collective, std::uint64_t site, int attempt);

  /// Verification-off epilogue: when injection posted a corrupted staging
  /// copy and the op reduces in place, the caller's buffer adopts the
  /// (corruption-tainted) result from staging — silent corruption must
  /// reach the caller's view, not vanish into a scratch buffer.
  void finish_unverified(void *inplace_result, std::size_t bytes);

  /// One checksummed exchange: post, rendezvous, verify, rendezvous (the
  /// verdict quiesce — verification happens strictly between two barriers,
  /// so every rank judges the same stable bytes), then read, rendezvous —
  /// retried with capped exponential backoff while any payload fails its
  /// CRC, escalating when kMaxVerifyAttempts exhaust.  \p read runs exactly
  /// once, only after every live payload verified (no byte of a corrupt
  /// payload is ever combined or copied).  With verification off this is
  /// the historical two-phase exchange plus the injection epilogue.
  template <typename ReadFn>
  void exchange(Collective collective, std::uint64_t site, const void *data,
                std::size_t bytes, void *inplace_result, ReadFn &&read) {
    if (!verify_enabled()) {
      post_payload(collective, site, 1, data, bytes);
      sync(collective, site, /*flow=*/true);
      read();
      sync(collective, site);
      finish_unverified(inplace_result, bytes);
      return;
    }
    for (int attempt = 1;; ++attempt) {
      post_payload(collective, site, attempt, data, bytes);
      sync(collective, site, /*flow=*/true);
      const std::vector<int> corrupters =
          verify_payloads(collective, site, attempt);
      // Quiesce verification before anything acts on the verdict: read()
      // mutates the posted buffers (in-place reduction slices, broadcast
      // targets), a retry reposts them, and an escalating rank unwinds —
      // destroying them — all while a slower peer may still be hashing.
      // Because every rank verifies between the same two rendezvous, the
      // verdicts are computed over stable bytes and are therefore
      // identical on every rank, which keeps the per-branch sync counts
      // aligned; without this barrier a fast rank's next move corrupts a
      // slow rank's verdict and the barrier protocol itself diverges.
      sync(collective, site);
      if (corrupters.empty()) {
        read();
        sync(collective, site);
        return;
      }
      if (attempt == kMaxVerifyAttempts)
        escalate_corruption(collective, site, corrupters, attempt);
      // Back off and retransmit from the still-live inputs: every producer
      // reposts, so a transient flip heals.
      note_retry(collective, site, attempt);
      backoff_sleep(attempt);
    }
  }

  /// Each rank reduces a disjoint slice of the index space across all live
  /// rank buffers and writes the result into the receiving buffers.  Safe
  /// without locks: slices are disjoint and a barrier precedes/follows.
  template <typename T>
  void combine_slices(std::span<T> buffer, ReduceOp op, bool all_ranks_receive,
                      int root = 0) {
    const std::size_t len = buffer.size();
    const auto p = members_.size();
    const auto me = static_cast<std::size_t>(my_index_);
    const std::size_t begin = len * me / p;
    const std::size_t end = len * (me + 1) / p;
    if (begin == end) return;

    std::vector<const T *> sources(p);
    for (std::size_t i = 0; i < p; ++i) {
      RIPPLES_ASSERT_MSG(peer_size(members_[i]) == len * sizeof(T),
                         "collective called with mismatched buffer lengths");
      sources[i] = static_cast<const T *>(peer_pointer(members_[i]));
    }

    for (std::size_t i = begin; i < end; ++i) {
      T acc = sources[0][i];
      for (std::size_t r = 1; r < p; ++r)
        acc = detail::combine(op, acc, sources[r][i]);
      if (all_ranks_receive) {
        for (std::size_t r = 0; r < p; ++r)
          const_cast<T *>(sources[r])[i] = acc;
      } else {
        const_cast<T *>(sources[static_cast<std::size_t>(root)])[i] = acc;
      }
    }
  }

  int world_rank_;
  int world_size_;
  /// Dense view of the current membership (world ranks, ascending).  Only
  /// mutated by shrink(), on this rank's own thread.
  std::vector<int> members_;
  int my_index_;
  /// Number of deaths this rank has acknowledged (via shrink); when the
  /// shared ledger grows past it, the next communication raises RankFailed.
  std::size_t acked_deaths_ = 0;
  /// Per-rank communication-entry ordinal (the fault injector's "site").
  std::uint64_t site_counter_ = 0;
  /// Staging copy for injected payload corruption: the flip lands here, the
  /// caller's buffer stays clean, so a retry genuinely retransmits.  Set
  /// while a staged pointer is the posted one (finish_unverified clears it).
  std::vector<std::uint8_t> staging_;
  bool staged_ = false;
  detail::SharedState &shared_;
};

/// Launches and joins rank teams.
class Context {
public:
  /// Runs \p rank_main as `num_ranks` concurrent ranks and joins them.  The
  /// first exception thrown by any rank is rethrown here after all ranks
  /// have been joined.  Reentrant but not nestable from inside a rank.
  ///
  /// Failure protocol (recovery disabled): when any rank throws, a shared
  /// abort flag is raised and every peer blocked in (or later entering) a
  /// collective or point-to-point wait unwinds with RankAborted — real MPI
  /// would deadlock here; the in-process runtime can do better.  run() then
  /// rethrows the failing rank's original exception.  RankAborted escaping
  /// a rank_main is absorbed by the protocol, never rethrown in place of
  /// the original error.
  static void run(int num_ranks,
                  const std::function<void(Communicator &)> &rank_main);

  /// As above, with fault-tolerance options.  With options.recover set, a
  /// rank's death marks it dead instead of aborting: survivors observe
  /// RankFailed, may shrink() and continue, and run() returns normally if
  /// any rank completes.  If every rank dies, the first original exception
  /// is rethrown.  A CollectiveTimeout always aborts (a stall diagnosis is
  /// not a survivable event).
  static void run(const RunOptions &options,
                  const std::function<void(Communicator &)> &rank_main);
};

} // namespace ripples::mpsim

#endif // RIPPLES_MPSIM_COMMUNICATOR_HPP
