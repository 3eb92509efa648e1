#!/usr/bin/env python3
"""Diff two ripples --json-report files and flag regressions.

Accepts either format the toolchain emits: a report log
({"schema_version", "reports": [...], "registry": ...}, written at exit by
bench binaries and imm_cli) or a single standalone RunReport document.
Reports are matched by driver name in order of appearance, so a baseline and
candidate produced by the same bench invocation line up automatically.

Four families of checks, each with its own threshold:

  * phase wall-times (`phases_seconds`): candidate may exceed baseline by
    --phase-tolerance (relative, default 0.25) before a phase counts as a
    regression, and only when the absolute growth also exceeds
    --phase-min-seconds (default 0.05) — sub-tick phases are noise.
  * mpsim collective traffic (`mpsim.<collective>.{calls,bytes}`): the
    communication volume of a fixed configuration is deterministic, so the
    default --mpsim-tolerance is 0 (exact match).
  * RRR histogram (`samples.size_histogram.{count,sum}`): sampling is
    counter-based and reproducible, so the default --histogram-tolerance
    is 0 as well.
  * registry counters (report-log `registry.counters`, when both files are
    report logs): values may grow by --counter-tolerance (relative, default
    0.25 — timing counters like graph.*.micros are noisy).  The integrity
    layer's `integrity.*` family (DESIGN.md §14: checks, corruptions
    detected, retries, escalations, injected faults, scrub passes/repairs)
    rides under --counter-tolerance too, but as a symmetric band: a
    candidate that verifies fewer payloads or scrubs fewer blocks than its
    baseline has LOST coverage, so a shrink beyond tolerance fails just
    like a growth — the one-sided rule that treats smaller counters as
    improvements does not apply to checking work.  The detection-side
    counters only exist on runs that detected something — a fault-injected
    candidate diffed against a clean baseline reports them as one-sided
    presence diffs, which --allow-missing downgrades to notes.
  * memory (`storage.{rrr_peak_bytes,tracker_peak_bytes,peak_rss_bytes}`):
    candidate may exceed baseline by --memory-tolerance (relative, default
    0.25 — RSS is allocator- and kernel-dependent).  The memory governor's
    registry counters (`mem.budget.*`) ride in this family too: how often a
    budgeted run reserved, refused, switched to compression, or shed batches
    is a memory-behaviour property, not a timing one.
  * degraded-run parity (`degraded` / `epsilon_achieved`, DESIGN.md §12): a
    run that stopped early under a memory budget is only comparable to
    another degraded run, so one side degrading while the other completed is
    ALWAYS a hard failure — --allow-missing does not downgrade it.  When
    both sides degraded, their certified epsilon values must match exactly
    (the certificate is deterministic for a fixed configuration).
  * per-round imbalance (`rounds[].imbalance_factor`, schema v5): rounds are
    matched by round number; candidate imbalance may exceed baseline by
    --imbalance-tolerance (relative, default 0.5 — timing-derived and
    noisy).  Per-rank `rrr_sets` counts are deterministic and compared
    exactly.
  * result identity (--check-seeds): the seeds array, theta value, sample
    count, and selection coverage must match EXACTLY.  This is the
    kill/resume equivalence check — a checkpoint-resumed run is only correct
    if it is bit-identical to the uninterrupted run, so there is no
    tolerance to configure.  --seeds-only checks just the seed array: the
    shrink-and-heal contract after a mid-run rank loss promises the
    failure-free seed set, but a fault that fires away from a martingale
    boundary may shift acceptance by one round, moving theta slightly.

--ignore-placement skips the families that encode WHERE work ran rather
than WHAT was computed: mpsim collective traffic, storage peaks, the
per-round ledger (per-rank rrr_sets and imbalance), and the governor's
reservation count (a heal regenerates a dead rank's windows on a survivor,
so the number of admission windows depends on where work ran).  check.sh's stealing
leg uses it to compare a work-stealing run against its no-steal baseline —
the runs must agree on every result-identity and sampling-distribution
check while legitimately differing in placement.

A metric present on one side and absent on the other is always a reported
diff, never a silent pass: a collective or registry counter appearing means
new communication/instrumentation, one disappearing means a regression run
would be comparing nothing (--allow-missing downgrades these to notes).

Schema versions: the two files must declare the SAME schema_version (taken
from the report-log envelope, falling back to the first report's field).
Comparing across schema revisions silently skips whatever fields one side
lacks, so a mismatch is a hard error, not a note.

Exit status: 0 when no check fails, 1 on any regression or match failure.
"""

import argparse
import json
import sys


# Registry counters that count admission windows rather than results:
# skipped under --ignore-placement.  Refusals, compression switches and shed
# batches stay compared.
PLACEMENT_COUNTERS = {"mem.budget.reservations"}


def load_reports(path):
    """Returns (reports, registry, schema_version); registry is None for
    standalone docs."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, dict) and isinstance(doc.get("reports"), list):
        registry = doc.get("registry")
        version = doc.get("schema_version")
        if version is None and doc["reports"]:
            version = doc["reports"][0].get("schema_version")
        return (doc["reports"],
                registry if isinstance(registry, dict) else None, version)
    if isinstance(doc, dict) and "driver" in doc:
        return [doc], None, doc.get("schema_version")
    raise ValueError(f"{path}: neither a report log nor a single run report")


def pair_reports(baseline, candidate):
    """Match reports by (driver, per-driver occurrence index)."""
    def keyed(reports):
        seen = {}
        out = {}
        for report in reports:
            driver = report.get("driver", "?")
            index = seen.get(driver, 0)
            seen[driver] = index + 1
            out[(driver, index)] = report
        return out

    base_map = keyed(baseline)
    cand_map = keyed(candidate)
    pairs = [(key, base_map[key], cand_map[key])
             for key in base_map if key in cand_map]
    missing = sorted(set(base_map) - set(cand_map))
    extra = sorted(set(cand_map) - set(base_map))
    return pairs, missing, extra


def dig(report, *keys):
    node = report
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


class Comparison:
    def __init__(self, args):
        self.args = args
        self.failures = []
        self.checked = 0

    def fail(self, message):
        self.failures.append(message)
        print(f"FAIL  {message}")

    def presence_diff(self, label, in_baseline):
        """A metric present on one side only is a diff, not a silent pass."""
        self.checked += 1
        side = "baseline" if in_baseline else "candidate"
        message = f"{label}: present in {side} only"
        if self.args.allow_missing:
            print(f"note  {message}")
        else:
            self.fail(message)

    def check_relative(self, label, base, cand, tolerance, min_delta=0.0):
        """Flags cand exceeding base by more than `tolerance` (relative)."""
        self.checked += 1
        if base is None or cand is None:
            self.fail(f"{label}: missing value (baseline={base}, "
                      f"candidate={cand})")
            return
        delta = cand - base
        limit = abs(base) * tolerance
        if delta > limit and delta > min_delta:
            grown = (cand / base - 1.0) * 100.0 if base else float("inf")
            self.fail(f"{label}: {base:g} -> {cand:g} "
                      f"(+{grown:.1f}% > {tolerance * 100:.0f}% tolerance)")
        else:
            print(f"ok    {label}: {base:g} -> {cand:g}")

    def check_band(self, label, base, cand, tolerance):
        """Flags cand leaving the symmetric band around base.  Used for the
        integrity.* counters, where a shrink matters as much as a growth: a
        candidate that verifies fewer payloads or scrubs fewer blocks than
        its baseline has lost coverage, which the one-sided growth check
        would silently wave through."""
        self.checked += 1
        if base is None or cand is None:
            self.fail(f"{label}: missing value (baseline={base}, "
                      f"candidate={cand})")
            return
        limit = abs(base) * tolerance
        if abs(cand - base) > limit:
            moved = (cand / base - 1.0) * 100.0 if base else float("inf")
            self.fail(f"{label}: {base:g} -> {cand:g} "
                      f"({moved:+.1f}% outside the +/-{tolerance * 100:.0f}% "
                      "band)")
        else:
            print(f"ok    {label}: {base:g} -> {cand:g}")

    def check_exact(self, label, base, cand):
        """Bit-for-bit equality; used for the resume-equivalence fields."""
        self.checked += 1
        if base == cand:
            print(f"ok    {label}: identical")
        else:
            self.fail(f"{label}: baseline {base!r} != candidate {cand!r}")

    def compare_report(self, key, base, cand):
        driver, index = key
        label = f"{driver}[{index}]"

        self.compare_degradation(label, base, cand)

        if self.args.check_seeds or self.args.seeds_only:
            self.check_exact(f"{label}.seeds", dig(base, "seeds"),
                             dig(cand, "seeds"))
        if self.args.check_seeds:
            self.check_exact(f"{label}.theta.value",
                             dig(base, "theta", "value"),
                             dig(cand, "theta", "value"))
            self.check_exact(f"{label}.samples.generated",
                             dig(base, "samples", "generated"),
                             dig(cand, "samples", "generated"))
            self.check_exact(f"{label}.selection.coverage_fraction",
                             dig(base, "selection", "coverage_fraction"),
                             dig(cand, "selection", "coverage_fraction"))

        for phase in ("estimate_theta", "sample", "select_seeds", "other",
                      "total"):
            self.check_relative(
                f"{label}.phases.{phase}",
                dig(base, "phases_seconds", phase),
                dig(cand, "phases_seconds", phase),
                self.args.phase_tolerance,
                self.args.phase_min_seconds)

        base_comm = {} if self.args.ignore_placement else (
            dig(base, "mpsim") or {})
        cand_comm = {} if self.args.ignore_placement else (
            dig(cand, "mpsim") or {})
        for collective in sorted(set(base_comm) | set(cand_comm)):
            if collective not in base_comm or collective not in cand_comm:
                self.presence_diff(f"{label}.mpsim.{collective}",
                                   collective in base_comm)
                continue
            for field in ("calls", "bytes"):
                self.check_relative(
                    f"{label}.mpsim.{collective}.{field}",
                    dig(base_comm, collective, field) or 0,
                    dig(cand_comm, collective, field) or 0,
                    self.args.mpsim_tolerance)

        for field in ("count", "sum"):
            self.check_relative(
                f"{label}.rrr_histogram.{field}",
                dig(base, "samples", "size_histogram", field),
                dig(cand, "samples", "size_histogram", field),
                self.args.histogram_tolerance)

        for field in (() if self.args.ignore_placement else
                      ("rrr_peak_bytes", "tracker_peak_bytes",
                       "peak_rss_bytes")):
            base_value = dig(base, "storage", field)
            cand_value = dig(cand, "storage", field)
            if base_value is None and cand_value is None:
                continue  # pre-v5 reports lack the tracker/RSS fields
            if base_value is None or cand_value is None:
                self.presence_diff(f"{label}.storage.{field}",
                                   base_value is not None)
                continue
            self.check_relative(f"{label}.storage.{field}", base_value,
                                cand_value, self.args.memory_tolerance)

        if not self.args.ignore_placement:
            self.compare_rounds(label, base, cand)

    def compare_degradation(self, label, base, cand):
        """Degraded-run parity (DESIGN.md §12): every other family would
        otherwise diff a complete run against a truncated one and report
        nonsense, so a degraded/complete mismatch is unconditionally fatal."""
        base_degraded = bool(dig(base, "degraded"))
        cand_degraded = bool(dig(cand, "degraded"))
        if not base_degraded and not cand_degraded:
            return
        self.checked += 1
        if base_degraded != cand_degraded:
            side = "baseline" if base_degraded else "candidate"
            self.fail(f"{label}.degraded: only the {side} run degraded under "
                      "its memory budget — a complete and a degraded run are "
                      "not comparable")
            return
        print(f"ok    {label}.degraded: both runs degraded under budget")
        self.check_exact(f"{label}.epsilon_achieved",
                         dig(base, "epsilon_achieved"),
                         dig(cand, "epsilon_achieved"))

    def compare_rounds(self, label, base, cand):
        """Per-round ledger (schema v5): imbalance within tolerance, RRR set
        counts exact (sampling is deterministic for a fixed config)."""
        base_rounds = {r.get("round"): r for r in dig(base, "rounds") or []}
        cand_rounds = {r.get("round"): r for r in dig(cand, "rounds") or []}
        if not base_rounds and not cand_rounds:
            return
        for number in sorted(set(base_rounds) | set(cand_rounds)):
            if number not in base_rounds or number not in cand_rounds:
                self.presence_diff(f"{label}.rounds[{number}]",
                                   number in base_rounds)
                continue
            self.check_relative(
                f"{label}.rounds[{number}].imbalance_factor",
                dig(base_rounds[number], "imbalance_factor"),
                dig(cand_rounds[number], "imbalance_factor"),
                self.args.imbalance_tolerance)
            base_sets = sorted((e.get("rank"), e.get("rrr_sets"))
                               for e in base_rounds[number].get("per_rank", []))
            cand_sets = sorted((e.get("rank"), e.get("rrr_sets"))
                               for e in cand_rounds[number].get("per_rank", []))
            self.check_exact(f"{label}.rounds[{number}].per_rank.rrr_sets",
                             base_sets, cand_sets)

    def compare_registries(self, base_registry, cand_registry):
        """Registry counters: presence mismatches are diffs, values may grow
        by --counter-tolerance — except the memory governor's mem.budget.*
        family, which diffs under --memory-tolerance alongside the storage
        peaks it governs, and the integrity.* family (verification checks,
        detections, retries, escalations, injected faults, scrub activity),
        which diffs as a symmetric band under --counter-tolerance — losing
        checking work is as much a regression as adding it.  Detection-side
        integrity counters appear only on runs that detected something, so
        against a clean baseline they surface as presence diffs."""
        base_counters = dig(base_registry, "counters") or {}
        cand_counters = dig(cand_registry, "counters") or {}
        for name in sorted(set(base_counters) | set(cand_counters)):
            if self.args.ignore_placement and name in PLACEMENT_COUNTERS:
                continue
            if name not in base_counters or name not in cand_counters:
                self.presence_diff(f"registry.counters.{name}",
                                   name in base_counters)
                continue
            if name.startswith("integrity."):
                self.check_band(f"registry.counters.{name}",
                                base_counters[name], cand_counters[name],
                                self.args.counter_tolerance)
                continue
            tolerance = (self.args.memory_tolerance
                         if name.startswith("mem.budget.")
                         else self.args.counter_tolerance)
            self.check_relative(f"registry.counters.{name}",
                                base_counters[name], cand_counters[name],
                                tolerance)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline --json-report file")
    parser.add_argument("candidate", help="candidate --json-report file")
    parser.add_argument("--phase-tolerance", type=float, default=0.25,
                        help="relative growth allowed per phase time "
                             "(default 0.25)")
    parser.add_argument("--phase-min-seconds", type=float, default=0.05,
                        help="absolute growth a phase regression must also "
                             "exceed (default 0.05)")
    parser.add_argument("--mpsim-tolerance", type=float, default=0.0,
                        help="relative growth allowed for collective "
                             "calls/bytes (default 0: exact)")
    parser.add_argument("--histogram-tolerance", type=float, default=0.0,
                        help="relative growth allowed for RRR histogram "
                             "count/sum (default 0: exact)")
    parser.add_argument("--counter-tolerance", type=float, default=0.25,
                        help="relative growth allowed per registry counter "
                             "(default 0.25; timing counters are noisy)")
    parser.add_argument("--memory-tolerance", type=float, default=0.25,
                        help="relative growth allowed for storage peaks "
                             "(default 0.25; RSS is allocator-dependent)")
    parser.add_argument("--imbalance-tolerance", type=float, default=0.5,
                        help="relative growth allowed per round imbalance "
                             "factor (default 0.5; timing-derived)")
    parser.add_argument("--check-seeds", action="store_true",
                        help="require EXACT equality of seeds, theta, sample "
                             "count, and coverage (kill/resume equivalence)")
    parser.add_argument("--seeds-only", action="store_true",
                        help="require EXACT equality of the seed set but not "
                             "theta or the sample count (the shrink-and-heal "
                             "guarantee: a non-boundary fault may shift the "
                             "martingale by a round, so theta equality is "
                             "only promised for boundary faults)")
    parser.add_argument("--ignore-placement", action="store_true",
                        help="skip the placement-sensitive families (mpsim "
                             "collective traffic, storage peaks, per-round "
                             "ledger, mem.budget.reservations) when "
                             "comparing runs whose work "
                             "placement legitimately differs, e.g. stealing "
                             "on vs off; result identity and the RRR "
                             "histogram still apply")
    parser.add_argument("--allow-missing", action="store_true",
                        help="don't fail when a baseline report has no "
                             "candidate counterpart")
    args = parser.parse_args()

    try:
        baseline, base_registry, base_version = load_reports(args.baseline)
        candidate, cand_registry, cand_version = load_reports(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if base_version != cand_version:
        print(f"error: schema_version mismatch: baseline declares "
              f"{base_version!r}, candidate declares {cand_version!r} — "
              "comparing across schema revisions would silently skip fields; "
              "regenerate the baseline with the current binary",
              file=sys.stderr)
        return 1

    pairs, missing, extra = pair_reports(baseline, candidate)
    comparison = Comparison(args)
    for key, base, cand in pairs:
        comparison.compare_report(key, base, cand)
    if base_registry is not None and cand_registry is not None:
        comparison.compare_registries(base_registry, cand_registry)
    for key in missing:
        message = f"{key[0]}[{key[1]}]: present in baseline only"
        if args.allow_missing:
            print(f"note  {message}")
        else:
            comparison.fail(message)
    for key in extra:
        print(f"note  {key[0]}[{key[1]}]: present in candidate only")

    status = "FAILED" if comparison.failures else "passed"
    print(f"\n{comparison.checked} checks over {len(pairs)} report pair(s): "
          f"{len(comparison.failures)} regression(s) — {status}")
    return 1 if comparison.failures else 0


if __name__ == "__main__":
    sys.exit(main())
