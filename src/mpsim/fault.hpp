/// \file fault.hpp
/// \brief Deterministic fault injection for the mpsim runtime.
///
/// At 1024 nodes — the paper's largest configuration — rank failure and
/// stragglers are the norm, not the exception, yet a failure mode that only
/// occurs under real hardware faults cannot be regression-tested.  The fault
/// plan turns every failure scenario into a reproducible experiment: a plan
/// names a (rank, site) coordinate — site N is the Nth communication
/// operation (collective or point-to-point) *that rank* enters — and a kind:
///
///  * `crash` — the rank throws `InjectedFault` at the site, exactly as if
///    user code had failed there (OOM, assertion, hardware fault).  With
///    recovery disabled the run aborts via the PR-1 protocol; with recovery
///    enabled the surviving ranks shrink and continue.
///  * `stall` — the rank blocks at the site without arriving, modelling a
///    hung process or a pathological straggler.  The collective watchdog
///    (RunOptions::watchdog) converts the peers' indefinite wait into a
///    diagnosed `CollectiveTimeout`; without a watchdog a stall hangs, just
///    like real MPI.
///  * `oom` — the rank's Nth *tracked memory reservation* (not communication
///    operation: site N counts MemoryTracker::try_reserve attempts on that
///    rank) is refused, and stickily so — every later reservation on the
///    rank fails too, modelling a hard per-rank memory ceiling.  The budget
///    governor then walks its degradation ladder deterministically
///    (DESIGN.md §12): compress, shed, and finally a certified early stop
///    or a diagnosed MemoryBudgetExceeded.  The communicator ignores oom
///    entries; MemoryTracker::install_oom_faults consumes them.
///  * `corrupt` — the rank's payload at the site has one bit flipped after
///    the CRC is published, modelling silent data corruption in transit or
///    in a NIC buffer.  With `--verify-collectives` the mismatch is
///    detected, retried (the flip is transient: the repost is clean), or —
///    with the optional bare `sticky` token, which makes every attempt
///    corrupt — escalated to the shrink-and-heal path.  Without
///    verification the corruption propagates silently, which is exactly
///    the baseline the integrity tests measure against (DESIGN.md §14).
///  * `flaky` — the rank publishes a deliberately wrong checksum for its
///    first `attempts=M` tries at the site (default 1) and a clean one
///    afterwards, modelling a transient link that heals itself.  Only
///    observable under `--verify-collectives`; M at or above the retry
///    budget degenerates into an escalation, like `sticky` corruption.
///
/// Plans are written `rank=R,site=N[,kind=crash|stall|oom|corrupt|flaky]`
/// (plus `,sticky` for corrupt and `,attempts=M` for flaky), multiple
/// faults separated by `;`.  They arrive programmatically
/// (RunOptions::faults, ImmOptions::fault_plan, imm_cli --inject-fault).
/// Because site counting is per-rank and deterministic, the same plan hits
/// the same operation on every run — the property the determinism tests
/// assert.  Two entries naming the same (rank, site) coordinate in the same
/// counting space (communication sites, or reservation sites for oom) are
/// ambiguous and rejected at parse time.
#ifndef RIPPLES_MPSIM_FAULT_HPP
#define RIPPLES_MPSIM_FAULT_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ripples::mpsim {

/// One planned fault: rank \p rank fails at its \p site-th communication
/// entry (0-based, counted per rank over collectives and point-to-point
/// operations alike).
struct FaultSpec {
  enum class Kind { Crash, Stall, Oom, Corrupt, Flaky };

  int rank = 0;
  std::uint64_t site = 0;
  Kind kind = Kind::Crash;
  /// kind=corrupt only: every retry attempt is corrupted too, forcing the
  /// retry budget to exhaust and the escalation path to run.
  bool sticky = false;
  /// kind=flaky only: the number of leading attempts that fail (>= 1).
  std::uint64_t attempts = 1;

  friend bool operator==(const FaultSpec &, const FaultSpec &) = default;
};

using FaultPlan = std::vector<FaultSpec>;

/// Parses `rank=R,site=N[,kind=crash|stall|oom|corrupt|flaky][,sticky]
/// [,attempts=M][;rank=...]`.  The empty string yields an empty plan;
/// malformed specs — unknown keys, unknown kinds, modifiers on the wrong
/// kind, or duplicate (rank, site) coordinates — throw std::invalid_argument
/// with a message naming the offending token.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string &spec);

/// Thrown by the injector at a planned crash site.  The message is a pure
/// function of the fault coordinates, so repeated runs of one plan fail
/// with byte-identical diagnostics.
class InjectedFault : public std::runtime_error {
public:
  InjectedFault(int rank, std::uint64_t site, const char *operation);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::uint64_t site() const { return site_; }

private:
  int rank_;
  std::uint64_t site_;
};

} // namespace ripples::mpsim

#endif // RIPPLES_MPSIM_FAULT_HPP
