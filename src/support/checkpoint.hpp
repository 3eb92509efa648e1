/// \file checkpoint.hpp
/// \brief Durable checkpoint/restart for the long-running IMM drivers.
///
/// PR 3 made the distributed drivers survive *rank* deaths inside a live
/// process; this module survives whole-process kills (OOM, node reboot,
/// scheduler preemption) — the dominant failure mode of the long,
/// memory-heavy runs the paper targets.  The key economy: because every RRR
/// set is addressed by an RNG stream coordinate (a per-index Philox counter
/// stream), the sample partition R is a *recomputable* function of (seed,
/// coordinates, count) and never needs to be serialized.  A snapshot therefore stores only the martingale
/// round state plus the per-stream sample counts — O(ranks + rounds) words,
/// not O(|R|) — and a resumed run rebuilds R by deterministic replay,
/// producing byte-identical seeds, theta, and coverage to an uninterrupted
/// run.
///
/// Format (little-endian, see DESIGN.md §9):
///
///   [magic u32 "RPCP"] [version u32] [payload_bytes u64] [crc32 u32]
///   [payload: fingerprint + martingale state, field-by-field]
///
/// The CRC covers the payload, so truncation, bit rot, and torn writes are
/// all detected; writes go to a temp file renamed into place, so a crash
/// mid-write never corrupts an existing snapshot.  The fingerprint (graph
/// hash, k, epsilon, seed, RNG mode, exchange protocol, rank count, driver)
/// makes a mismatched resume a *refused* resume, never a silently wrong one.
#ifndef RIPPLES_SUPPORT_CHECKPOINT_HPP
#define RIPPLES_SUPPORT_CHECKPOINT_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ripples::checkpoint {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over \p bytes — the payload
/// guard of the snapshot format, exposed for tests.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                                  std::uint32_t seed = 0);

/// Why a snapshot failed to load.  Every failure mode is a *distinct*
/// diagnosis: refusing a resume must tell the operator whether the file is
/// damaged (retry an older snapshot) or belongs to a different run (wrong
/// directory or changed parameters).
enum class LoadError {
  OpenFailed,          ///< file missing or unreadable
  BadMagic,            ///< not a ripples checkpoint at all
  VersionSkew,         ///< written by an incompatible format version
  Truncated,           ///< shorter than its header claims
  CrcMismatch,         ///< payload bytes do not match the stored CRC
  FingerprintMismatch, ///< snapshot belongs to a different run configuration
};

[[nodiscard]] const char *to_string(LoadError error);

/// Thrown when a snapshot cannot be loaded or does not belong to this run.
/// Never thrown by the retention/write path: a checkpointing *run* must not
/// die because its safety net has a hole; only an explicit resume fails.
class CheckpointError : public std::runtime_error {
public:
  CheckpointError(LoadError kind, const std::string &message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] LoadError kind() const { return kind_; }

private:
  LoadError kind_;
};

/// Identity of one run configuration.  A resume is refused unless every
/// field matches: replaying RRR coordinates against a different graph,
/// epsilon, or rank count would produce a well-formed but *wrong* result,
/// which is strictly worse than an error.
struct RunFingerprint {
  std::string driver;
  std::uint64_t graph_hash = 0;
  std::uint64_t graph_vertices = 0;
  std::uint64_t graph_edges = 0;
  std::uint64_t seed = 0;
  double epsilon = 0.0;
  double l = 0.0;
  std::uint32_t k = 0;
  std::uint8_t model = 0;
  /// 0 on every snapshot the drivers write today (counter streams).  The
  /// retired leap-frog mode wrote 1, so such a snapshot is refused.
  std::uint8_t rng_mode = 0;
  std::int32_t world_size = 0;

  friend bool operator==(const RunFingerprint &,
                         const RunFingerprint &) = default;

  /// Human-readable list of the fields where \p other differs from *this
  /// (empty when they match) — the body of a FingerprintMismatch diagnosis.
  [[nodiscard]] std::string describe_mismatch(const RunFingerprint &other) const;
};

/// One martingale-round-boundary snapshot: the fingerprint plus everything
/// needed to re-enter the estimation loop exactly where the killed run left
/// off.  Deliberately *no* RRR sets: `stream_counts[s]` (samples generated
/// by world stream s) plus `num_samples` are the coordinates from which the
/// resumed ranks regenerate their partitions bit-identically.
struct Snapshot {
  static constexpr std::uint32_t kMagic = 0x52504350; // "RPCP"
  static constexpr std::uint32_t kVersion = 1;

  RunFingerprint fingerprint;

  /// Next estimation round to execute (1-based; rounds < next_round are
  /// complete).  When `accepted`, the estimation loop is skipped entirely.
  std::uint32_t next_round = 1;
  bool accepted = false;
  double lower_bound = 1.0;
  double last_coverage = 0.0;
  std::uint32_t estimation_iterations = 0;
  /// |R| reached at this boundary — the replay target for regeneration.
  std::uint64_t num_samples = 0;
  /// Sample-count target of every extend executed so far, in order.
  std::vector<std::uint64_t> extend_targets;
  /// Per-world-stream sample counts (empty for drivers without per-rank
  /// streams, e.g. the graph-partitioned driver's per-(sample,vertex) keys).
  std::vector<std::uint64_t> stream_counts;

  friend bool operator==(const Snapshot &, const Snapshot &) = default;

  /// Header + CRC-guarded payload, ready to write.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Inverse of serialize(); throws CheckpointError with a distinct kind
  /// and diagnosis for bad magic, version skew, truncation, or CRC damage.
  [[nodiscard]] static Snapshot deserialize(std::span<const std::uint8_t> bytes);
};

/// Throws CheckpointError{FingerprintMismatch} naming every differing field
/// when \p snapshot does not belong to the run described by \p expected.
void require_matching_fingerprint(const Snapshot &snapshot,
                                  const RunFingerprint &expected);

/// Checkpoint/resume knobs carried by ImmOptions, set by code or by the
/// `--checkpoint-dir`, `--checkpoint-every`, `--checkpoint-keep` and
/// `--resume` flags (apply_option_flags).  The defaults checkpoint nothing.
struct Options {
  /// Snapshot directory; empty disables checkpointing entirely.
  std::string dir;
  /// Write every Nth round boundary (acceptance boundaries always write).
  std::uint32_t every = 1;
  /// Resume from the newest loadable snapshot in `dir` (fresh start when
  /// the directory holds none — a kill before the first boundary).
  bool resume = false;
  /// Snapshots retained on disk; older ones are pruned after each write.
  std::uint32_t keep_last = 3;
};

/// Owns one snapshot directory: atomic write-rename, last-N retention,
/// boundary thinning, and diagnosed (never crashing) recovery of the newest
/// intact snapshot.  Registers itself process-wide for construction so the
/// graceful-shutdown signal path can flush a pending boundary.
class CheckpointManager {
public:
  /// Creates \p directory if needed.  Throws std::runtime_error when it
  /// cannot be created — checkpointing that silently never writes would be
  /// worse than failing fast at setup.
  explicit CheckpointManager(std::string directory, std::uint32_t every = 1,
                             std::uint32_t keep_last = 3);
  ~CheckpointManager();

  CheckpointManager(const CheckpointManager &) = delete;
  CheckpointManager &operator=(const CheckpointManager &) = delete;

  /// Round-boundary hook: caches \p snapshot as pending and writes it out
  /// when the boundary counter hits the `every` stride or \p force is set
  /// (acceptance boundaries force — they gate the final phase).  Returns
  /// true when a file was written.
  bool observe(const Snapshot &snapshot, bool force = false);

  /// Writes \p snapshot unconditionally: serialize, temp file, rename into
  /// place, prune beyond keep_last.  Throws std::runtime_error on I/O
  /// failure.
  void write_now(const Snapshot &snapshot);

  /// Writes the cached pending snapshot if it is newer than the last write
  /// (the graceful-shutdown "final checkpoint").  Best-effort: returns
  /// false instead of throwing.
  bool flush_pending() noexcept;

  /// Newest loadable snapshot in the directory, trying older files when
  /// newer ones are damaged.  Damaged files are *diagnosed* (appended to
  /// \p diagnosis when given), never fatal.  nullopt when nothing loads.
  [[nodiscard]] std::optional<Snapshot>
  load_latest(std::string *diagnosis = nullptr) const;

  /// Loads one snapshot file; throws CheckpointError on any damage.
  [[nodiscard]] static Snapshot load_file(const std::string &path);

  [[nodiscard]] const std::string &directory() const { return directory_; }
  /// Snapshot files currently on disk, oldest first.
  [[nodiscard]] std::vector<std::string> snapshot_files() const;

private:
  friend bool flush_pending_snapshots() noexcept;

  std::string directory_;
  std::uint32_t every_;
  std::uint32_t keep_last_;
  std::uint64_t sequence_ = 0;   ///< next file number (continues past resume)
  std::uint64_t boundaries_ = 0; ///< observe() calls, for `every` thinning
  std::optional<Snapshot> pending_;
  bool pending_written_ = true;
  struct Mutex; // out-of-line (keeps <mutex> out of this header)
  Mutex *mutex_;
};

/// Flushes the pending snapshot of every live CheckpointManager (see
/// flush_pending).  Locks are only try-acquired: this runs on the signal
/// path where blocking on a mutex held by the interrupted thread would
/// deadlock.  Returns true when every manager flushed cleanly.
bool flush_pending_snapshots() noexcept;

/// Installs a SIGINT/SIGTERM handler that writes pending checkpoints,
/// marks the run interrupted in the report log, flushes reports and trace
/// buffers, and exits with 128+signum — so an operator's Ctrl-C or a
/// scheduler's TERM leaves the same resumable state a round boundary would.
/// Idempotent.
void install_signal_flush();

} // namespace ripples::checkpoint

#endif // RIPPLES_SUPPORT_CHECKPOINT_HPP
