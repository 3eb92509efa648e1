#include "mpsim/communicator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "support/checkpoint.hpp"
#include "support/timer.hpp"

namespace ripples::mpsim {

// --- communication metrics --------------------------------------------------

const char *to_string(Collective collective) {
  switch (collective) {
  case Collective::Barrier: return "barrier";
  case Collective::Allreduce: return "allreduce";
  case Collective::Reduce: return "reduce";
  case Collective::Broadcast: return "broadcast";
  case Collective::Allgather: return "allgather";
  case Collective::Gather: return "gather";
  case Collective::Scatter: return "scatter";
  case Collective::Allgatherv: return "allgatherv";
  case Collective::Send: return "send";
  case Collective::Recv: return "recv";
  case Collective::Steal: return "steal";
  }
  return "?";
}

namespace {

struct CommCounters {
  std::array<std::atomic<std::uint64_t>, kNumCollectives> calls{};
  std::array<std::atomic<std::uint64_t>, kNumCollectives> bytes{};
};

CommCounters &comm_counters() {
  static CommCounters counters;
  return counters;
}

// Fault-path instruments.  Registry lookups are cached; the instruments are
// only touched on failure paths (never per-collective), so unconditional
// updates are fine there — injection/death/shrink are rare by definition.
metrics::Counter &crashes_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("mpsim.faults.injected_crashes");
  return c;
}
metrics::Counter &stalls_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("mpsim.faults.injected_stalls");
  return c;
}
metrics::Counter &deaths_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("mpsim.faults.dead_ranks");
  return c;
}
metrics::Counter &shrinks_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("mpsim.faults.shrinks");
  return c;
}
metrics::Counter &timeouts_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("mpsim.faults.timeouts");
  return c;
}
metrics::Counter &evictions_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("mpsim.faults.evicted_stalls");
  return c;
}

// Integrity instruments (DESIGN.md §14).  Event-gated like the fault
// counters: a run that never verifies or injects never creates them, so
// their very presence in a report marks an integrity-active run.
metrics::Counter &integrity_checks_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("integrity.checks");
  return c;
}
metrics::Counter &integrity_detections_counter() {
  static metrics::Counter &c = metrics::Registry::instance().counter(
      "integrity.corruptions_detected");
  return c;
}
metrics::Counter &integrity_retries_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("integrity.retries");
  return c;
}
metrics::Counter &integrity_escalations_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("integrity.escalations");
  return c;
}
metrics::Counter &injected_corruptions_counter() {
  static metrics::Counter &c = metrics::Registry::instance().counter(
      "integrity.injected_corruptions");
  return c;
}
metrics::Counter &injected_flaky_counter() {
  static metrics::Counter &c =
      metrics::Registry::instance().counter("integrity.injected_flaky");
  return c;
}

/// CRC-32 over a raw payload; the empty payload (barriers, zero-length
/// sections of an allgatherv) checksums to 0 on both sides by construction.
std::uint32_t payload_crc(const void *data, std::size_t bytes) {
  if (bytes == 0) return 0;
  return checkpoint::crc32(
      std::span<const std::uint8_t>(static_cast<const std::uint8_t *>(data),
                                    bytes));
}

std::uint32_t item_crc(const Communicator::StealItem &item) {
  static_assert(std::is_trivially_copyable_v<Communicator::StealItem>);
  return checkpoint::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t *>(&item), sizeof(item)));
}

/// The fatal error a rank raises when it discovers a peer declared it dead
/// (payload-corruption escalation can evict a busy rank, unlike stall
/// eviction which only ever marks parked ranks).  Fatal on purpose: a
/// declared-dead rank must unwind as a casualty, never join a shrink.
std::runtime_error declared_dead_error(int world_rank) {
  return std::runtime_error(
      "mpsim: rank " + std::to_string(world_rank) +
      " was declared failed by a peer (payload-corruption escalation)");
}

std::string format_rank_list(const std::vector<int> &ranks) {
  std::string text;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) text += ",";
    text += std::to_string(ranks[i]);
  }
  return text;
}

} // namespace

namespace detail {

void record_collective(Collective collective, std::size_t bytes) {
  CommCounters &counters = comm_counters();
  const auto c = static_cast<std::size_t>(collective);
  counters.calls[c].fetch_add(1, std::memory_order_relaxed);
  counters.bytes[c].fetch_add(bytes, std::memory_order_relaxed);
}

} // namespace detail

CommStatsSnapshot comm_stats() {
  CommCounters &counters = comm_counters();
  CommStatsSnapshot snapshot;
  for (std::size_t c = 0; c < kNumCollectives; ++c) {
    snapshot.calls[c] = counters.calls[c].load(std::memory_order_relaxed);
    snapshot.bytes[c] = counters.bytes[c].load(std::memory_order_relaxed);
  }
  return snapshot;
}

void reset_comm_stats() {
  CommCounters &counters = comm_counters();
  for (std::size_t c = 0; c < kNumCollectives; ++c) {
    counters.calls[c].store(0, std::memory_order_relaxed);
    counters.bytes[c].store(0, std::memory_order_relaxed);
  }
}

std::vector<metrics::CollectiveStats> CommStatsSnapshot::nonzero() const {
  std::vector<metrics::CollectiveStats> stats;
  for (std::size_t c = 0; c < kNumCollectives; ++c) {
    if (calls[c] == 0) continue;
    stats.push_back({to_string(static_cast<Collective>(c)), calls[c], bytes[c]});
  }
  return stats;
}

// --- exceptions --------------------------------------------------------------

RankFailed::RankFailed(std::vector<int> dead_ranks)
    : dead_ranks_(std::move(dead_ranks)),
      message_("mpsim: rank(s) " + format_rank_list(dead_ranks_) +
               " failed; survivors must shrink() before communicating") {}

CollectiveTimeout::CollectiveTimeout(const char *operation, std::uint64_t site,
                                     std::vector<int> laggards,
                                     std::chrono::milliseconds waited)
    : operation_(operation), site_(site), laggards_(std::move(laggards)),
      waited_(waited) {
  message_ = "mpsim: watchdog timeout in " + std::string(operation) +
             " at site " + std::to_string(site) + " after " +
             std::to_string(waited.count()) + " ms; laggard rank(s) " +
             format_rank_list(laggards_);
}

// --- runtime ----------------------------------------------------------------

namespace detail {

/// Wait pacing for blocked ranks: the normal path is woken by notify_all
/// immediately, and the timed wait only bounds unwind latency after a fault.
/// Capped exponential backoff (0.1 ms doubling to 10 ms) keeps narrow waits
/// responsive without letting wide communicators burn CPU re-polling a flag
/// that almost never flips.
class PollBackoff {
public:
  std::chrono::microseconds next() {
    const auto interval = current_;
    current_ = std::min(current_ * 2, kCap);
    return interval;
  }

private:
  static constexpr std::chrono::microseconds kStart{100};
  static constexpr std::chrono::microseconds kCap{10'000};
  std::chrono::microseconds current_{kStart};
};

/// Deadline bookkeeping for one blocking communication wait.  Inert (never
/// consults the clock) when no watchdog is configured.
class WatchdogClock {
public:
  explicit WatchdogClock(std::chrono::milliseconds deadline)
      : deadline_(deadline) {
    if (armed()) start_ = std::chrono::steady_clock::now();
  }

  [[nodiscard]] bool armed() const { return deadline_.count() > 0; }

  [[nodiscard]] std::chrono::milliseconds elapsed() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start_);
  }

  [[nodiscard]] bool expired() const {
    return armed() && elapsed() >= deadline_;
  }

  /// Clamps a backoff interval so a sleeping waiter cannot overshoot the
  /// deadline by more than one wakeup.
  [[nodiscard]] std::chrono::microseconds
  clamp(std::chrono::microseconds interval) const {
    if (!armed()) return interval;
    const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline_ - elapsed());
    return std::max(std::chrono::microseconds{1},
                    std::min(interval, remaining));
  }

private:
  std::chrono::milliseconds deadline_;
  std::chrono::steady_clock::time_point start_;
};

/// Rendezvous channel for one (source, destination) pair: the sender posts
/// a pointer and blocks until the receiver has copied the payload.
struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  const void *data = nullptr;
  std::size_t bytes = 0;
  /// Producer CRC over the posted payload (0 when integrity is inactive).
  std::uint32_t crc = 0;
  /// Injection directives riding with the current message, set by the
  /// sender at post time: the receiver flips one bit of its copy while
  /// attempt <= inject_corrupt_attempts, and treats the checksum as failed
  /// while attempt <= inject_flaky_attempts — modelling a dirty link whose
  /// retransmissions heal (or, when sticky, never do).
  std::uint64_t inject_corrupt_attempts = 0;
  std::uint64_t inject_flaky_attempts = 0;
  bool posted = false;
};

/// One rank's published stealable work.  Unlike the mailboxes, the steal
/// queues never rendezvous: a publish replaces the owner's queue, pops and
/// steals are lock-then-go, and nobody ever waits on a queue — which is why
/// a dead rank's queue stays safely readable for the rest of the window.
struct StealQueue {
  /// One stealable item plus the CRC its publisher computed; the CRC
  /// travels with the item when a thief re-queues surplus locally.
  struct Slot {
    Communicator::StealItem item;
    std::uint32_t crc = 0;
  };

  std::mutex mutex;
  std::deque<Slot> slots;
  /// Publish-site injection: a dirty-link tag mask applied to (and consumed
  /// by) the next read attempt, and a flaky budget decremented per failed
  /// verification.  Sticky corruption instead flips the stored item itself.
  std::uint64_t read_flip_mask = 0;
  std::uint64_t flaky_remaining = 0;
};

struct SharedState {
  explicit SharedState(const RunOptions &run_options)
      : options(run_options), world_size(run_options.num_ranks),
        pointers(static_cast<std::size_t>(world_size), nullptr),
        sizes(static_cast<std::size_t>(world_size), 0),
        crcs(static_cast<std::size_t>(world_size), 0),
        mailboxes(static_cast<std::size_t>(world_size) *
                  static_cast<std::size_t>(world_size)),
        steal_queues(static_cast<std::size_t>(world_size)),
        in_barrier(static_cast<std::size_t>(world_size), 0),
        in_shrink(static_cast<std::size_t>(world_size), 0),
        alive(static_cast<std::size_t>(world_size), 1), live(world_size) {}

  Mailbox &mailbox(int source, int destination) {
    return mailboxes[static_cast<std::size_t>(source) *
                         static_cast<std::size_t>(world_size) +
                     static_cast<std::size_t>(destination)];
  }

  /// First-exception protocol: flips the abort flag and wakes every blocked
  /// waiter so peers unwind promptly instead of riding out the timed waits.
  void abort() {
    aborted.store(true, std::memory_order_release);
    wake_everyone();
  }

  /// Survivable-failure protocol: records \p world_rank's death in the
  /// epoch-tagged ledger and wakes every waiter, which then raises
  /// RankFailed.  Deliberately never completes a pending barrier
  /// generation: the dead rank may not have posted its collective pointer,
  /// so letting the generation complete would hand peers a stale or null
  /// buffer.  Waiters withdraw instead.  The shrink barrier, which carries
  /// no data, *is* completed here when the death supplies its last missing
  /// arrival — otherwise a mid-shrink death would hang the survivors.
  void mark_dead(int world_rank) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      mark_dead_locked(world_rank);
    }
    wake_everyone();
  }

  /// Idempotent: a rank can be declared dead twice — a watchdog eviction
  /// races with the evicted rank's own unwind (its rank_body calls
  /// mark_dead when it finally throws), and two waiters can evict the same
  /// laggard concurrently.  Only the first declaration touches the ledger.
  void mark_dead_locked(int world_rank) {
    if (!alive[static_cast<std::size_t>(world_rank)]) return;
    alive[static_cast<std::size_t>(world_rank)] = 0;
    --live;
    dead_order.push_back(world_rank);
    dead_count.store(dead_order.size(), std::memory_order_release);
    if (metrics::enabled()) deaths_counter().increment();
    trace::instant("mpsim", "mpsim.rank_dead", "rank",
                   static_cast<std::uint64_t>(world_rank));
    if (shrink_arrived > 0 && shrink_arrived == live)
      complete_shrink_locked();
  }

  void complete_shrink_locked() {
    shrink_arrived = 0;
    ++shrink_generation;
    shrink_epoch = dead_order.size();
    std::fill(in_shrink.begin(), in_shrink.end(), 0);
    if (metrics::enabled()) shrinks_counter().increment();
    trace::instant("mpsim", "mpsim.shrink_complete", "survivors",
                   static_cast<std::uint64_t>(live), "dead",
                   static_cast<std::uint64_t>(shrink_epoch));
  }

  void complete_generation_locked() {
    arrived = 0;
    ++generation;
    std::fill(in_barrier.begin(), in_barrier.end(), 0);
  }

  /// Membership acknowledged up to \p acked_deaths: all world ranks not
  /// among the first acked_deaths entries of the death ledger, ascending.
  [[nodiscard]] std::vector<int>
  members_at_locked(std::size_t acked_deaths) const {
    std::vector<char> is_dead(static_cast<std::size_t>(world_size), 0);
    for (std::size_t d = 0; d < acked_deaths; ++d)
      is_dead[static_cast<std::size_t>(dead_order[d])] = 1;
    std::vector<int> members;
    members.reserve(static_cast<std::size_t>(world_size) - acked_deaths);
    for (int r = 0; r < world_size; ++r)
      if (!is_dead[static_cast<std::size_t>(r)]) members.push_back(r);
    return members;
  }

  [[nodiscard]] RankFailed rank_failed_since_locked(std::size_t acked) const {
    return RankFailed(std::vector<int>(
        dead_order.begin() + static_cast<std::ptrdiff_t>(acked),
        dead_order.end()));
  }

  /// Snapshot variant for waiters that do not hold the central mutex (the
  /// mailbox paths, which hold only their box mutex).
  [[nodiscard]] RankFailed rank_failed_since(std::size_t acked) {
    std::lock_guard<std::mutex> lock(mutex);
    return rank_failed_since_locked(acked);
  }

  void wake_everyone() {
    // The empty lock/unlock before each notify serializes with waiters'
    // predicate checks: a waiter either observes the updated state before
    // blocking or is woken by the notify.  Never hold the central mutex
    // while taking a mailbox mutex (mailbox waiters lock them the other
    // way around via rank_failed_since).
    {
      std::lock_guard<std::mutex> lock(mutex);
    }
    cv.notify_all();
    for (Mailbox &box : mailboxes) {
      {
        std::lock_guard<std::mutex> lock(box.mutex);
      }
      box.cv.notify_all();
    }
  }

  const RunOptions options;
  const int world_size;

  // Collective pointer exchange, indexed by world rank.  `crcs` carries each
  // producer's CRC-32 alongside its payload pointer; stable (like the
  // pointers) between the two rendezvous phases of an exchange, which is
  // what lets every rank verify every payload without an agreement round.
  std::vector<const void *> pointers;
  std::vector<std::size_t> sizes;
  std::vector<std::uint32_t> crcs;
  std::vector<Mailbox> mailboxes;
  std::vector<StealQueue> steal_queues;

  // Central mutex: guards the generation barrier, the shrink barrier, and
  // the membership ledger below.  `aborted` and `dead_count` double as
  // lock-free mirrors for the mailbox wait loops.
  std::mutex mutex;
  std::condition_variable cv;

  // Generation barrier over the live ranks (both rendezvous phases of every
  // collective).  in_barrier flags arrivals of the current generation so a
  // watchdog expiry can name the ranks that never showed up.
  int arrived = 0;
  std::uint64_t generation = 0;
  std::vector<char> in_barrier;

  // Collective flow arrows (trace only): the completing rank of a flow-
  // flagged generation allocates world_size consecutive flow ids and stamps
  // them here; each released waiter reads `flow_base + world_rank` under
  // the lock to terminate its arrow on its own row.  Stable until every
  // waiter has read it — the next generation cannot complete before all of
  // them re-arrive.
  std::uint64_t flow_base = 0;
  std::uint64_t flow_generation = ~std::uint64_t{0};

  // Shrink barrier (recovery agreement), same structure.  shrink_epoch is
  // the death-ledger length acknowledged by the last completed shrink —
  // every participant adopts exactly this prefix, which is what makes the
  // surviving ranks' membership views identical.
  int shrink_arrived = 0;
  std::uint64_t shrink_generation = 0;
  std::size_t shrink_epoch = 0;
  std::vector<char> in_shrink;

  // Membership ledger.
  std::vector<char> alive;
  int live;
  std::vector<int> dead_order;
  std::atomic<std::size_t> dead_count{0};
  std::atomic<bool> aborted{false};

  // Ranks whose rank_main returned normally (success criterion for
  // recovery-enabled runs).
  int completed = 0;
};

} // namespace detail

// --- Communicator -----------------------------------------------------------

Communicator::Communicator(int rank, int size, detail::SharedState &shared)
    : world_rank_(rank), world_size_(size), my_index_(rank), shared_(shared) {
  members_.resize(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) members_[static_cast<std::size_t>(r)] = r;
}

std::uint64_t Communicator::begin_collective(Collective collective) {
  const std::uint64_t site = site_counter_++;
  if (!shared_.options.faults.empty()) {
    for (const FaultSpec &fault : shared_.options.faults) {
      if (fault.rank != world_rank_ || fault.site != site) continue;
      // Oom faults fire at memory-reservation sites (MemoryTracker), not at
      // communication sites; the communicator's site counter never matches
      // them by design, so skip rather than fall through to the stall path.
      if (fault.kind == FaultSpec::Kind::Oom) continue;
      // Payload faults (corrupt/flaky) fire inside the exchange itself —
      // post_payload and the mailbox/steal paths consult injection_at() —
      // so the entry hook leaves them alone.
      if (fault.kind == FaultSpec::Kind::Corrupt ||
          fault.kind == FaultSpec::Kind::Flaky)
        continue;
      if (fault.kind == FaultSpec::Kind::Crash) {
        if (metrics::enabled()) crashes_counter().increment();
        trace::instant("mpsim", "mpsim.fault_crash", "rank",
                       static_cast<std::uint64_t>(world_rank_), "site", site);
        throw InjectedFault(world_rank_, site, to_string(collective));
      }
      // Stall: block here without ever arriving at the rendezvous —
      // modelling a hung peer.  The rank unwinds once the run aborts (a
      // peer's watchdog diagnosed the stall) or once a peer *evicted* it
      // (RunOptions::evict_stalled declared it dead); without a watchdog
      // this hangs the run, exactly like real MPI.
      if (metrics::enabled()) stalls_counter().increment();
      trace::instant("mpsim", "mpsim.fault_stall", "rank",
                     static_cast<std::uint64_t>(world_rank_), "site", site);
      while (!shared_.aborted.load(std::memory_order_acquire)) {
        if (shared_.dead_count.load(std::memory_order_acquire) > 0) {
          std::lock_guard<std::mutex> lock(shared_.mutex);
          if (!shared_.alive[static_cast<std::size_t>(world_rank_)])
            throw std::runtime_error(
                "mpsim: rank " + std::to_string(world_rank_) +
                " evicted while stalled at site " + std::to_string(site));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
      throw RankAborted();
    }
  }
  return site;
}

void Communicator::sync(Collective collective, std::uint64_t site, bool flow) {
  // Declared before the lock so the destructor accounts after release: all
  // time inside sync() — including lock acquisition and the straggler wait
  // — is collective-wait from the round ledger's point of view.  Accounts
  // on the throwing exits too.
  struct WaitAccount {
    bool armed;
    StopWatch watch;
    ~WaitAccount() {
      if (armed) metrics::add_thread_collective_wait(watch.elapsed_seconds());
    }
  } wait_account{metrics::enabled(), {}};

  std::unique_lock<std::mutex> lock(shared_.mutex);
  if (shared_.aborted.load(std::memory_order_acquire)) throw RankAborted();
  // A corruption escalation can declare a *busy* rank dead (unlike stall
  // eviction, which only marks parked ranks).  A declared-dead rank must
  // unwind as a casualty — never observe RankFailed and join a shrink,
  // where its arrival would overcount the barrier against `live`.
  if (!shared_.alive[static_cast<std::size_t>(world_rank_)])
    throw declared_dead_error(world_rank_);
  if (shared_.dead_order.size() > acked_deaths_)
    throw shared_.rank_failed_since_locked(acked_deaths_);

  const std::uint64_t my_generation = shared_.generation;
  shared_.in_barrier[static_cast<std::size_t>(world_rank_)] = 1;
  if (++shared_.arrived == shared_.live) {
    // Completer: last to arrive, so every other in_barrier rank is a waiter
    // this completion releases.  Publish a block of flow ids for them and
    // start the arrows on this row, stamped at the completion instant.
    std::uint64_t flow_base = 0;
    std::uint64_t flow_ts = 0;
    std::vector<int> released;
    if (flow && trace::enabled()) {
      for (int r = 0; r < shared_.world_size; ++r)
        if (r != world_rank_ && shared_.in_barrier[static_cast<std::size_t>(r)])
          released.push_back(r);
      if (!released.empty()) {
        flow_base =
            trace::new_flow_ids(static_cast<std::uint64_t>(shared_.world_size));
        shared_.flow_base = flow_base;
        shared_.flow_generation = my_generation;
        // Stamp before the release below: a woken waiter can emit its "f"
        // before this thread runs again, and a flow must not end before it
        // starts.
        flow_ts = trace::timestamp_us();
      }
    }
    shared_.complete_generation_locked();
    shared_.cv.notify_all();
    lock.unlock();
    if (flow_base != 0)
      for (int r : released)
        trace::flow_begin("flow", "flow.collective",
                          flow_base + static_cast<std::uint64_t>(r), flow_ts);
    return;
  }

  detail::PollBackoff backoff;
  detail::WatchdogClock watchdog(shared_.options.watchdog);
  while (shared_.generation == my_generation) {
    if (watchdog.expired()) {
      std::vector<int> laggards;
      for (int r = 0; r < shared_.world_size; ++r)
        if (shared_.alive[static_cast<std::size_t>(r)] &&
            !shared_.in_barrier[static_cast<std::size_t>(r)])
          laggards.push_back(r);
      --shared_.arrived;
      shared_.in_barrier[static_cast<std::size_t>(world_rank_)] = 0;
      if (metrics::enabled()) timeouts_counter().increment();
      trace::instant("mpsim", "mpsim.collective_timeout", "rank",
                     static_cast<std::uint64_t>(world_rank_), "site", site);
      if (shared_.options.recover && shared_.options.evict_stalled &&
          !laggards.empty()) {
        // Stall eviction: declare the laggards dead so this surfaces as a
        // survivable RankFailed — same shrink/heal path as a crash —
        // instead of a fatal diagnosis.  The stalled ranks observe their
        // own eviction in the begin_collective stall loop and unwind.
        for (int laggard : laggards) shared_.mark_dead_locked(laggard);
        if (metrics::enabled()) evictions_counter().add(laggards.size());
        trace::instant("mpsim", "mpsim.stall_evicted", "count",
                       laggards.size(), "site", site);
        RankFailed failure = shared_.rank_failed_since_locked(acked_deaths_);
        lock.unlock();
        shared_.wake_everyone();
        throw failure;
      }
      throw CollectiveTimeout(to_string(collective), site, std::move(laggards),
                              watchdog.elapsed());
    }
    shared_.cv.wait_for(lock, watchdog.clamp(backoff.next()));
    // Completion first: once the generation advanced this collective
    // succeeded and our arrival was consumed by complete_generation_locked.
    // A fault recorded *after* that must not be raised here — withdrawing
    // now would decrement an `arrived` count that no longer includes us
    // (underflowing the next barrier into a permanent hang).  The death or
    // abort surfaces at the next communication entry instead.
    if (shared_.generation != my_generation) break;
    // Still blocked in this generation: a fault can never complete it
    // (mark_dead withdraws instead), so state consistency on these exits
    // only requires undoing our own arrival.
    if (shared_.aborted.load(std::memory_order_acquire)) {
      --shared_.arrived;
      shared_.in_barrier[static_cast<std::size_t>(world_rank_)] = 0;
      throw RankAborted();
    }
    if (shared_.dead_order.size() > acked_deaths_) {
      --shared_.arrived;
      shared_.in_barrier[static_cast<std::size_t>(world_rank_)] = 0;
      if (!shared_.alive[static_cast<std::size_t>(world_rank_)])
        throw declared_dead_error(world_rank_);
      throw shared_.rank_failed_since_locked(acked_deaths_);
    }
  }

  // Released by a completed generation: terminate this rank's arrow.  The
  // id is only valid if the completer published for *our* generation (it
  // skips publication when tracing was off at completion time).
  std::uint64_t flow_id = 0;
  if (flow && trace::enabled() && shared_.flow_generation == my_generation)
    flow_id = shared_.flow_base + static_cast<std::uint64_t>(world_rank_);
  lock.unlock();
  if (flow_id != 0)
    trace::flow_end("flow", "flow.collective", flow_id);
}

void Communicator::barrier() {
  const std::uint64_t site = begin_collective(Collective::Barrier);
  record(Collective::Barrier, 0);
  trace::Span span("mpsim", "mpsim.barrier");
  sync(Collective::Barrier, site, /*flow=*/true);
}

ShrinkResult Communicator::shrink() {
  RIPPLES_ASSERT_MSG(shared_.options.recover,
                     "shrink() requires RunOptions::recover");
  trace::Span span("mpsim", "mpsim.shrink");
  std::unique_lock<std::mutex> lock(shared_.mutex);
  if (shared_.aborted.load(std::memory_order_acquire)) throw RankAborted();
  if (!shared_.alive[static_cast<std::size_t>(world_rank_)])
    throw declared_dead_error(world_rank_);

  const std::uint64_t my_generation = shared_.shrink_generation;
  shared_.in_shrink[static_cast<std::size_t>(world_rank_)] = 1;
  if (++shared_.shrink_arrived == shared_.live) {
    shared_.complete_shrink_locked();
    shared_.cv.notify_all();
  } else {
    detail::PollBackoff backoff;
    detail::WatchdogClock watchdog(shared_.options.watchdog);
    while (shared_.shrink_generation == my_generation) {
      if (watchdog.expired()) {
        std::vector<int> laggards;
        for (int r = 0; r < shared_.world_size; ++r)
          if (shared_.alive[static_cast<std::size_t>(r)] &&
              !shared_.in_shrink[static_cast<std::size_t>(r)])
            laggards.push_back(r);
        --shared_.shrink_arrived;
        shared_.in_shrink[static_cast<std::size_t>(world_rank_)] = 0;
        if (metrics::enabled()) timeouts_counter().increment();
        throw CollectiveTimeout("shrink", site_counter_, std::move(laggards),
                                watchdog.elapsed());
      }
      shared_.cv.wait_for(lock, watchdog.clamp(backoff.next()));
      // Same completion-first rule as sync(): once the shrink generation
      // advanced our arrival was consumed, so withdrawing would corrupt the
      // barrier count.  An abort raced in after completion surfaces at the
      // next communication entry.
      if (shared_.shrink_generation != my_generation) break;
      if (shared_.aborted.load(std::memory_order_acquire)) {
        --shared_.shrink_arrived;
        shared_.in_shrink[static_cast<std::size_t>(world_rank_)] = 0;
        throw RankAborted();
      }
      // New deaths do not unwind a shrink: mark_dead completes it once the
      // last missing live rank has arrived, folding the extra deaths into
      // this shrink's epoch.
    }
  }

  // Adopt exactly the prefix of the death ledger this shrink acknowledged.
  // Deaths recorded after shrink_epoch surface as RankFailed on the next
  // communication and trigger a further shrink round.
  ShrinkResult result;
  result.newly_dead.assign(
      shared_.dead_order.begin() + static_cast<std::ptrdiff_t>(acked_deaths_),
      shared_.dead_order.begin() +
          static_cast<std::ptrdiff_t>(shared_.shrink_epoch));
  acked_deaths_ = shared_.shrink_epoch;
  members_ = shared_.members_at_locked(acked_deaths_);
  const auto me = std::find(members_.begin(), members_.end(), world_rank_);
  RIPPLES_ASSERT(me != members_.end());
  my_index_ = static_cast<int>(me - members_.begin());
  result.members = members_;
  return result;
}

void Communicator::post_pointer(const void *data, std::size_t bytes) {
  shared_.pointers[static_cast<std::size_t>(world_rank_)] = data;
  shared_.sizes[static_cast<std::size_t>(world_rank_)] = bytes;
}

const void *Communicator::peer_pointer(int world_peer) const {
  RIPPLES_DEBUG_ASSERT(world_peer >= 0 && world_peer < world_size_);
  return shared_.pointers[static_cast<std::size_t>(world_peer)];
}

std::size_t Communicator::peer_size(int world_peer) const {
  RIPPLES_DEBUG_ASSERT(world_peer >= 0 && world_peer < world_size_);
  return shared_.sizes[static_cast<std::size_t>(world_peer)];
}

// --- integrity layer ---------------------------------------------------------

bool Communicator::verify_enabled() const {
  return shared_.options.verify_collectives;
}

const FaultSpec *Communicator::injection_at(std::uint64_t site) const {
  for (const FaultSpec &fault : shared_.options.faults) {
    if (fault.rank != world_rank_ || fault.site != site) continue;
    if (fault.kind == FaultSpec::Kind::Corrupt ||
        fault.kind == FaultSpec::Kind::Flaky)
      return &fault;
  }
  return nullptr;
}

void Communicator::post_payload(Collective collective, std::uint64_t site,
                                int attempt, const void *data,
                                std::size_t bytes) {
  (void)collective;
  staged_ = false;
  const FaultSpec *fault = injection_at(site);
  if (!verify_enabled() && fault == nullptr) {
    post_pointer(data, bytes);
    return;
  }
  const void *posted = data;
  std::uint32_t crc = payload_crc(data, bytes);
  if (fault != nullptr && fault->kind == FaultSpec::Kind::Corrupt &&
      bytes > 0 && (attempt == 1 || fault->sticky)) {
    // The flip lands in a staging copy published under the *clean* CRC: the
    // caller's buffer is never touched, so a retransmit genuinely heals —
    // unless the fault is sticky, in which case every repost re-corrupts.
    staging_.assign(static_cast<const std::uint8_t *>(data),
                    static_cast<const std::uint8_t *>(data) + bytes);
    const std::uint64_t bit = site % (static_cast<std::uint64_t>(bytes) * 8);
    staging_[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    posted = staging_.data();
    staged_ = true;
    if (metrics::enabled()) injected_corruptions_counter().increment();
    trace::instant("mpsim", "mpsim.fault_corrupt", "rank",
                   static_cast<std::uint64_t>(world_rank_), "site", site);
  } else if (fault != nullptr && fault->kind == FaultSpec::Kind::Flaky &&
             static_cast<std::uint64_t>(attempt) <= fault->attempts) {
    // Clean bytes under a wrong checksum: the payload is fine, the "link"
    // is not — retransmits heal once the configured budget is spent.
    crc ^= 1u;
    if (metrics::enabled()) injected_flaky_counter().increment();
    trace::instant("mpsim", "mpsim.fault_flaky", "rank",
                   static_cast<std::uint64_t>(world_rank_), "site", site);
  }
  shared_.crcs[static_cast<std::size_t>(world_rank_)] = crc;
  post_pointer(posted, bytes);
}

std::vector<int> Communicator::verify_payloads(Collective collective,
                                               std::uint64_t site,
                                               int attempt) {
  (void)collective;
  std::vector<int> corrupters;
  for (int member : members_) {
    const auto m = static_cast<std::size_t>(member);
    if (payload_crc(shared_.pointers[m], shared_.sizes[m]) != shared_.crcs[m])
      corrupters.push_back(member);
  }
  if (metrics::enabled()) {
    integrity_checks_counter().add(members_.size());
    if (!corrupters.empty())
      integrity_detections_counter().add(corrupters.size());
  }
  if (!corrupters.empty())
    trace::instant("mpsim", "mpsim.payload_corrupt", "site", site, "attempt",
                   static_cast<std::uint64_t>(attempt));
  return corrupters;
}

void Communicator::escalate_corruption(Collective collective,
                                       std::uint64_t site,
                                       const std::vector<int> &corrupters,
                                       int attempts) {
  if (metrics::enabled()) integrity_escalations_counter().increment();
  trace::instant("mpsim", "mpsim.corruption_escalated", "site", site, "rank",
                 static_cast<std::uint64_t>(world_rank_));
  // Every rank reaches this point with the same corrupter set (the posted
  // buffers are stable between the rendezvous phases), so the roles need no
  // agreement round: producers of bad bytes die with the diagnosis, their
  // peers route them into the ledger (recovery on) or unwind (recovery off).
  if (std::find(corrupters.begin(), corrupters.end(), world_rank_) !=
      corrupters.end())
    throw PayloadCorrupt(to_string(collective), site, world_rank_, attempts);
  if (shared_.options.recover) {
    std::unique_lock<std::mutex> lock(shared_.mutex);
    for (int corrupter : corrupters) shared_.mark_dead_locked(corrupter);
    RankFailed failure = shared_.rank_failed_since_locked(acked_deaths_);
    lock.unlock();
    shared_.wake_everyone();
    throw failure;
  }
  throw RankAborted();
}

void Communicator::note_retry(Collective collective, std::uint64_t site,
                              int attempt) {
  (void)collective;
  if (metrics::enabled()) integrity_retries_counter().increment();
  trace::instant("mpsim", "mpsim.payload_retry", "site", site, "attempt",
                 static_cast<std::uint64_t>(attempt));
}

void Communicator::finish_unverified(void *inplace_result, std::size_t bytes) {
  if (!staged_) return;
  staged_ = false;
  // In-place reductions wrote the combined result into the *posted* buffers
  // — for this rank, the corrupted staging copy.  The caller's view must
  // adopt it: with verification off, injected corruption is deliberately
  // silent, and silent means the wrong bytes reach the algorithm.
  if (inplace_result != nullptr && bytes > 0)
    std::memcpy(inplace_result, staging_.data(), bytes);
}

void Communicator::send_bytes(const void *data, std::size_t bytes,
                              int destination) {
  RIPPLES_ASSERT(destination >= 0 && destination < size());
  RIPPLES_ASSERT_MSG(destination != my_index_, "self-send would deadlock");
  const int dest_world = members_[static_cast<std::size_t>(destination)];
  const std::uint64_t site = begin_collective(Collective::Send);
  record(Collective::Send, bytes);
  trace::Span span("mpsim", "mpsim.send", "bytes", bytes, "peer",
                   static_cast<std::uint64_t>(dest_world));
  detail::Mailbox &box = shared_.mailbox(world_rank_, dest_world);
  std::unique_lock<std::mutex> lock(box.mutex);
  detail::PollBackoff backoff;
  detail::WatchdogClock watchdog(shared_.options.watchdog);

  // These loops hold only the mailbox mutex, so failure checks go through
  // the lock-free mirrors (aborted, dead_count); the central mutex is taken
  // — after dropping the box lock, to keep lock order acyclic — only to
  // snapshot the dead set for the exception.  The self-alive check matters
  // here: a receiver that exhausted its retry budget against this sender's
  // corruption declares *us* dead, and a declared-dead rank must unwind as
  // a casualty, never join a shrink.
  auto throw_failed = [&] {
    lock.unlock();
    std::lock_guard<std::mutex> central(shared_.mutex);
    if (!shared_.alive[static_cast<std::size_t>(world_rank_)])
      throw declared_dead_error(world_rank_);
    throw shared_.rank_failed_since_locked(acked_deaths_);
  };
  auto throw_timeout = [&] {
    if (metrics::enabled()) timeouts_counter().increment();
    throw CollectiveTimeout("send", site, {dest_world}, watchdog.elapsed());
  };

  // Wait for the previous message on this channel to be consumed.
  while (box.posted) {
    if (shared_.aborted.load(std::memory_order_acquire)) throw RankAborted();
    if (shared_.dead_count.load(std::memory_order_acquire) > acked_deaths_)
      throw_failed();
    if (watchdog.expired()) throw_timeout();
    box.cv.wait_for(lock, watchdog.clamp(backoff.next()));
  }
  if (shared_.aborted.load(std::memory_order_acquire)) throw RankAborted();
  if (shared_.dead_count.load(std::memory_order_acquire) > acked_deaths_)
    throw_failed();
  const FaultSpec *injection = injection_at(site);
  box.data = data;
  box.bytes = bytes;
  box.crc = (verify_enabled() || injection != nullptr)
                ? payload_crc(data, bytes)
                : 0;
  // Sender-side injection rides with the message as a directive: the
  // rendezvous gives the receiver the sender's *live* buffer, so a flip
  // must happen on the receiving side (the sender's bytes stay clean for
  // the retransmits that model the retry healing).
  box.inject_corrupt_attempts = 0;
  box.inject_flaky_attempts = 0;
  if (injection != nullptr && injection->kind == FaultSpec::Kind::Corrupt)
    box.inject_corrupt_attempts =
        injection->sticky ? std::numeric_limits<std::uint64_t>::max() : 1;
  else if (injection != nullptr && injection->kind == FaultSpec::Kind::Flaky)
    box.inject_flaky_attempts = injection->attempts;
  box.posted = true;
  box.cv.notify_all();
  // Rendezvous: return only after the receiver copied the payload.  If the
  // receiver dies first, the posted pointer must be withdrawn before this
  // stack frame unwinds.
  while (box.posted) {
    if (shared_.aborted.load(std::memory_order_acquire)) {
      box.posted = false;
      box.data = nullptr;
      throw RankAborted();
    }
    if (shared_.dead_count.load(std::memory_order_acquire) > acked_deaths_) {
      box.posted = false;
      box.data = nullptr;
      throw_failed();
    }
    if (watchdog.expired()) {
      box.posted = false;
      box.data = nullptr;
      throw_timeout();
    }
    box.cv.wait_for(lock, watchdog.clamp(backoff.next()));
  }
}

void Communicator::recv_bytes(void *buffer, std::size_t bytes, int source) {
  RIPPLES_ASSERT(source >= 0 && source < size());
  RIPPLES_ASSERT_MSG(source != my_index_, "self-receive would deadlock");
  const int source_world = members_[static_cast<std::size_t>(source)];
  const std::uint64_t site = begin_collective(Collective::Recv);
  record(Collective::Recv, bytes);
  trace::Span span("mpsim", "mpsim.recv", "bytes", bytes, "peer",
                   static_cast<std::uint64_t>(source_world));
  const FaultSpec *own = injection_at(site);
  detail::Mailbox &box = shared_.mailbox(source_world, world_rank_);
  std::unique_lock<std::mutex> lock(box.mutex);
  detail::PollBackoff backoff;
  detail::WatchdogClock watchdog(shared_.options.watchdog);
  for (int attempt = 1;; ++attempt) {
    while (!box.posted) {
      if (shared_.aborted.load(std::memory_order_acquire)) throw RankAborted();
      if (shared_.dead_count.load(std::memory_order_acquire) > acked_deaths_) {
        lock.unlock();
        std::lock_guard<std::mutex> central(shared_.mutex);
        if (!shared_.alive[static_cast<std::size_t>(world_rank_)])
          throw declared_dead_error(world_rank_);
        throw shared_.rank_failed_since_locked(acked_deaths_);
      }
      if (watchdog.expired()) {
        if (metrics::enabled()) timeouts_counter().increment();
        throw CollectiveTimeout("recv", site, {source_world},
                                watchdog.elapsed());
      }
      box.cv.wait_for(lock, watchdog.clamp(backoff.next()));
    }
    RIPPLES_ASSERT_MSG(box.bytes == bytes,
                       "recv buffer size must match the sent payload");
    if (bytes > 0) std::memcpy(buffer, box.data, bytes);
    // Dirty-link injection lands on the receiving copy: this rank's own
    // planned corruption, or the sender's posted directive.  One flip even
    // when both are active — two flips at the same bit would cancel.
    const bool own_corrupt = own != nullptr &&
                             own->kind == FaultSpec::Kind::Corrupt &&
                             (attempt == 1 || own->sticky);
    const bool link_corrupt =
        static_cast<std::uint64_t>(attempt) <= box.inject_corrupt_attempts;
    if ((own_corrupt || link_corrupt) && bytes > 0) {
      const std::uint64_t bit = site % (static_cast<std::uint64_t>(bytes) * 8);
      static_cast<std::uint8_t *>(buffer)[bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      if (metrics::enabled()) injected_corruptions_counter().increment();
      trace::instant("mpsim", "mpsim.fault_corrupt", "rank",
                     static_cast<std::uint64_t>(world_rank_), "site", site);
    }
    auto consume = [&] {
      box.posted = false;
      box.data = nullptr;
      box.cv.notify_all();
    };
    if (!verify_enabled()) {
      // Unverified: whatever the copy now holds is the message.  Injected
      // corruption is deliberately silent here — the wrong bytes reach the
      // caller, which is exactly what the verification layer exists to stop.
      consume();
      return;
    }
    const bool own_flaky = own != nullptr &&
                           own->kind == FaultSpec::Kind::Flaky &&
                           static_cast<std::uint64_t>(attempt) <= own->attempts;
    const bool link_flaky =
        static_cast<std::uint64_t>(attempt) <= box.inject_flaky_attempts;
    bool corrupt;
    if (own_flaky || link_flaky) {
      corrupt = true;
      if (metrics::enabled()) injected_flaky_counter().increment();
      trace::instant("mpsim", "mpsim.fault_flaky", "rank",
                     static_cast<std::uint64_t>(world_rank_), "site", site);
    } else {
      if (metrics::enabled()) integrity_checks_counter().increment();
      corrupt = payload_crc(buffer, bytes) != box.crc;
    }
    if (!corrupt) {
      consume();
      return;
    }
    if (metrics::enabled()) integrity_detections_counter().increment();
    trace::instant("mpsim", "mpsim.payload_corrupt", "site", site, "attempt",
                   static_cast<std::uint64_t>(attempt));
    if (attempt == kMaxVerifyAttempts) {
      if (metrics::enabled()) integrity_escalations_counter().increment();
      trace::instant("mpsim", "mpsim.corruption_escalated", "site", site,
                     "rank", static_cast<std::uint64_t>(world_rank_));
      // Attribution: a sticky fault on this rank's own recv site (or its
      // own still-failing flaky) is self-inflicted; otherwise the sender
      // produced the bad bytes and is escalated like any corrupter.
      const bool self_inflicted =
          own_flaky || (own != nullptr &&
                        own->kind == FaultSpec::Kind::Corrupt && own->sticky);
      if (self_inflicted)
        throw PayloadCorrupt("recv", site, world_rank_, attempt);
      if (shared_.options.recover) {
        lock.unlock();
        std::unique_lock<std::mutex> central(shared_.mutex);
        shared_.mark_dead_locked(source_world);
        RankFailed failure = shared_.rank_failed_since_locked(acked_deaths_);
        central.unlock();
        shared_.wake_everyone();
        throw failure;
      }
      throw PayloadCorrupt("send", site, source_world, attempt);
    }
    // Retry against the sender's still-posted buffer (the rendezvous keeps
    // it live until we consume), off the lock so the sender's own failure
    // checks stay responsive.
    lock.unlock();
    note_retry(Collective::Recv, site, attempt);
    backoff_sleep(attempt);
    lock.lock();
  }
}

// --- Steal channel ----------------------------------------------------------
//
// Nonblocking by construction: every operation is lock-then-go on one queue
// mutex (steal_acquire touches the victim's queue first, its own second —
// acyclic because thieves never hold another queue while taking a victim's).
// No rendezvous means no watchdog is needed here; a rank that dies at a
// steal site is diagnosed by the phase's next real collective, where the
// standard watchdog/eviction machinery already applies.

void Communicator::steal_publish(std::span<const StealItem> items) {
  const std::uint64_t site = begin_collective(Collective::Steal);
  record(Collective::Steal, items.size() * sizeof(StealItem));
  trace::Span span("mpsim", "mpsim.steal_publish", "items", items.size(),
                   "site", site);
  const FaultSpec *injection = injection_at(site);
  const bool checksum = verify_enabled() || injection != nullptr;
  detail::StealQueue &queue =
      shared_.steal_queues[static_cast<std::size_t>(world_rank_)];
  std::lock_guard<std::mutex> lock(queue.mutex);
  queue.slots.clear();
  for (const StealItem &item : items)
    queue.slots.push_back({item, checksum ? item_crc(item) : 0});
  queue.read_flip_mask = 0;
  queue.flaky_remaining = 0;
  if (injection == nullptr || queue.slots.empty()) return;
  if (injection->kind == FaultSpec::Kind::Corrupt) {
    if (injection->sticky) {
      // Storage corruption: the stored item itself is damaged (its CRC was
      // taken before the flip), so every read attempt fails until a
      // consumer exhausts its budget and escalates against this rank.
      queue.slots.front().item.tag ^= std::uint64_t{1} << (site % 64);
      if (metrics::enabled()) injected_corruptions_counter().increment();
      trace::instant("mpsim", "mpsim.fault_corrupt", "rank",
                     static_cast<std::uint64_t>(world_rank_), "site", site);
    } else {
      // Dirty link: the next read attempt sees a flipped copy, once.
      queue.read_flip_mask = std::uint64_t{1} << (site % 64);
    }
  } else {
    queue.flaky_remaining = injection->attempts;
  }
}

bool Communicator::steal_pop(StealItem &out) {
  detail::StealQueue &queue =
      shared_.steal_queues[static_cast<std::size_t>(world_rank_)];
  for (int attempt = 1;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(queue.mutex);
      if (queue.slots.empty()) return false;
      const detail::StealQueue::Slot &slot = queue.slots.front();
      StealItem candidate = slot.item;
      if (queue.read_flip_mask != 0) {
        candidate.tag ^= queue.read_flip_mask;
        queue.read_flip_mask = 0;
        if (metrics::enabled()) injected_corruptions_counter().increment();
        trace::instant("mpsim", "mpsim.fault_corrupt", "rank",
                       static_cast<std::uint64_t>(world_rank_), "site",
                       site_counter_);
      }
      bool corrupt = false;
      if (verify_enabled()) {
        if (queue.flaky_remaining > 0) {
          --queue.flaky_remaining;
          corrupt = true;
          if (metrics::enabled()) injected_flaky_counter().increment();
        } else {
          if (metrics::enabled()) integrity_checks_counter().increment();
          corrupt = item_crc(candidate) != slot.crc;
        }
      }
      if (!corrupt) {
        out = candidate;
        queue.slots.pop_front();
        return true;
      }
      if (metrics::enabled()) integrity_detections_counter().increment();
      if (attempt == kMaxVerifyAttempts) {
        // Whatever poisoned this rank's own queue — its own published
        // storage corruption or still-failing flaky budget — is charged to
        // this rank: it dies with the diagnosis and healing regenerates its
        // unexecuted ranges from RNG coordinates.
        if (metrics::enabled()) integrity_escalations_counter().increment();
        trace::instant("mpsim", "mpsim.corruption_escalated", "site",
                       site_counter_, "rank",
                       static_cast<std::uint64_t>(world_rank_));
        throw PayloadCorrupt("steal", site_counter_, world_rank_, attempt);
      }
    }
    note_retry(Collective::Steal, site_counter_, attempt);
    backoff_sleep(attempt);
  }
}

bool Communicator::steal_acquire(StealItem &out, std::uint64_t victim_offset) {
  const std::uint64_t site = begin_collective(Collective::Steal);
  const FaultSpec *own = injection_at(site);
  const std::size_t p = members_.size();
  if (p <= 1) return false;
  const auto me = static_cast<std::size_t>(my_index_);
  for (std::size_t off = 0; off < p; ++off) {
    const std::size_t victim_index =
        (me + 1 + static_cast<std::size_t>(victim_offset % p) + off) % p;
    if (victim_index == me) continue;
    const int victim_world = members_[victim_index];
    detail::StealQueue &victim =
        shared_.steal_queues[static_cast<std::size_t>(victim_world)];
    for (int attempt = 1;; ++attempt) {
      // Copy the split out of the victim's lock before touching our own
      // queue; holding two queue mutexes at once would require a global
      // locking order the thieves cannot agree on.  Verification happens
      // under the same lock so the split is only erased once it verified —
      // a corrupt read leaves the victim's queue intact for the retry.
      std::vector<detail::StealQueue::Slot> taken;
      bool empty = false;
      bool corrupt = false;
      bool self_inflicted = false;
      {
        std::lock_guard<std::mutex> lock(victim.mutex);
        const std::size_t n = victim.slots.size();
        if (n == 0) {
          empty = true;
        } else {
          const std::size_t keep = n - (n + 1) / 2; // thief takes ceil(n/2)
          taken.assign(victim.slots.begin() + static_cast<std::ptrdiff_t>(keep),
                       victim.slots.end());
          // Dirty-link injection on the thief's copy: this rank's own
          // planned corruption or the victim's one-shot publish directive
          // (consumed by this attempt).  One flip even when both are live.
          const bool own_corrupt = own != nullptr &&
                                   own->kind == FaultSpec::Kind::Corrupt &&
                                   (attempt == 1 || own->sticky);
          const bool link_corrupt = victim.read_flip_mask != 0;
          if (own_corrupt || link_corrupt) {
            const std::uint64_t mask = link_corrupt
                                           ? victim.read_flip_mask
                                           : std::uint64_t{1} << (site % 64);
            victim.read_flip_mask = 0;
            taken.front().item.tag ^= mask;
            if (metrics::enabled()) injected_corruptions_counter().increment();
            trace::instant("mpsim", "mpsim.fault_corrupt", "rank",
                           static_cast<std::uint64_t>(world_rank_), "site",
                           site);
          }
          if (verify_enabled()) {
            bool flaky = false;
            if (victim.flaky_remaining > 0) {
              --victim.flaky_remaining;
              flaky = true;
            } else if (own != nullptr &&
                       own->kind == FaultSpec::Kind::Flaky &&
                       static_cast<std::uint64_t>(attempt) <= own->attempts) {
              flaky = true;
              self_inflicted = true;
            }
            if (flaky) {
              corrupt = true;
              if (metrics::enabled()) injected_flaky_counter().increment();
              trace::instant("mpsim", "mpsim.fault_flaky", "rank",
                             static_cast<std::uint64_t>(world_rank_), "site",
                             site);
            } else {
              if (metrics::enabled())
                integrity_checks_counter().add(taken.size());
              for (const detail::StealQueue::Slot &slot : taken)
                if (item_crc(slot.item) != slot.crc) corrupt = true;
              self_inflicted = own != nullptr &&
                               own->kind == FaultSpec::Kind::Corrupt &&
                               own->sticky;
            }
          }
          if (!corrupt)
            victim.slots.erase(
                victim.slots.begin() + static_cast<std::ptrdiff_t>(keep),
                victim.slots.end());
        }
      }
      if (empty) break; // next victim
      if (!corrupt) {
        record(Collective::Steal, taken.size() * sizeof(StealItem));
        trace::instant("mpsim", "mpsim.steal_acquire", "victim",
                       static_cast<std::uint64_t>(victim_world), "items",
                       static_cast<std::uint64_t>(taken.size()));
        out = taken.front().item;
        if (taken.size() > 1) {
          detail::StealQueue &mine =
              shared_.steal_queues[static_cast<std::size_t>(world_rank_)];
          std::lock_guard<std::mutex> lock(mine.mutex);
          // Back of our queue: peers split from the back, so the surplus
          // stays re-stealable ahead of our own front-pop order.  The CRCs
          // travel with the items for later verification.
          mine.slots.insert(mine.slots.end(), taken.begin() + 1, taken.end());
        }
        return true;
      }
      if (metrics::enabled()) integrity_detections_counter().increment();
      trace::instant("mpsim", "mpsim.payload_corrupt", "site", site, "attempt",
                     static_cast<std::uint64_t>(attempt));
      if (attempt == kMaxVerifyAttempts) {
        if (metrics::enabled()) integrity_escalations_counter().increment();
        trace::instant("mpsim", "mpsim.corruption_escalated", "site", site,
                       "rank", static_cast<std::uint64_t>(world_rank_));
        if (self_inflicted)
          throw PayloadCorrupt("steal", site, world_rank_, attempt);
        // The victim's stored items are damaged: charge the victim.  Its
        // queue drops out of the scan at the next shrink, and healing
        // regenerates the unexecuted ranges from RNG coordinates.
        if (shared_.options.recover) {
          std::unique_lock<std::mutex> central(shared_.mutex);
          shared_.mark_dead_locked(victim_world);
          RankFailed failure = shared_.rank_failed_since_locked(acked_deaths_);
          central.unlock();
          shared_.wake_everyone();
          throw failure;
        }
        throw PayloadCorrupt("steal", site, victim_world, attempt);
      }
      note_retry(Collective::Steal, site, attempt);
      backoff_sleep(attempt);
    }
  }
  return false;
}

// --- Context ----------------------------------------------------------------

void Context::run(int num_ranks,
                  const std::function<void(Communicator &)> &rank_main) {
  RunOptions options;
  options.num_ranks = num_ranks;
  run(options, rank_main);
}

void Context::run(const RunOptions &options,
                  const std::function<void(Communicator &)> &rank_main) {
  RIPPLES_ASSERT(options.num_ranks >= 1);
  detail::SharedState shared(options);

  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto record_error = [&] {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  };

  auto rank_body = [&](int rank) {
    // Rank identity for the tracer: events from this thread (and its scope)
    // group under trace process `rank`.  RankScope restores the previous
    // rank on exit — rank 0 runs on the calling thread, which may have its
    // own identity.
    trace::RankScope rank_scope(rank);
    trace::Span rank_span("mpsim", "mpsim.rank", "rank",
                          static_cast<std::uint64_t>(rank));
    Communicator comm(rank, options.num_ranks, shared);
    try {
      rank_main(comm);
      std::lock_guard<std::mutex> lock(shared.mutex);
      ++shared.completed;
    } catch (const RankAborted &) {
      // This rank was unwound by the abort protocol; the rank that failed
      // already recorded the original exception.  (A RankAborted thrown
      // directly by user code is indistinguishable and treated the same:
      // the fallback in run() still surfaces an error.)
      shared.abort();
    } catch (const CollectiveTimeout &) {
      // A stall diagnosis is never survivable: the laggard is still holding
      // a thread and possibly locks, so the only safe exit is a global
      // abort carrying the diagnosis.
      record_error();
      shared.abort();
    } catch (...) {
      record_error();
      if (options.recover) {
        // Survivable failure: record the death and let the peers observe
        // RankFailed, shrink, and continue.  (A RankFailed escaping
        // rank_main lands here too — user code that does not recover
        // simply becomes another casualty.)
        shared.mark_dead(comm.world_rank());
      } else {
        // Wake and unwind every peer: a blocked rank would otherwise wait
        // forever for this rank's next barrier arrival or message.
        shared.abort();
      }
    }
  };

  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<std::size_t>(options.num_ranks) - 1);
  for (int r = 1; r < options.num_ranks; ++r) ranks.emplace_back(rank_body, r);
  rank_body(0);
  for (std::thread &t : ranks) t.join();

  if (shared.aborted.load(std::memory_order_acquire)) {
    if (!first_error) first_error = std::make_exception_ptr(RankAborted());
    std::rethrow_exception(first_error);
  }
  // Recovery mode: the run succeeded if anyone made it to the end; the
  // first original exception surfaces only when every rank died.
  if (shared.completed == 0 && first_error)
    std::rethrow_exception(first_error);
}

} // namespace ripples::mpsim
