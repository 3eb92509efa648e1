#!/usr/bin/env python3
"""Checks compare_reports.py's --ignore-placement on the reservation count.

Writes two small report logs that differ only in the registry counter
`mem.budget.reservations` (12 vs 16: a healed run regenerates the dead
rank's windows on a survivor, so it admits more windows with the same
seeds), then runs compare_reports.py on them twice.  With
`--check-seeds --ignore-placement` the pair must pass; without
`--ignore-placement` it must fail, naming the counter.  A third pair that
also differs in `mem.budget.refusals` must fail even with the flag.

Usage: check_compare_reports.py [WORK_DIR]
Exits 0 when every check holds, 1 otherwise.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

COMPARE = Path(__file__).resolve().parent / "compare_reports.py"

REPORT = {
    "driver": "imm_distributed",
    "schema_version": 9,
    "seeds": [3, 1, 4, 15],
    "theta": {"value": 1200},
    "samples": {"generated": 1600,
                "size_histogram": {"count": 1600, "sum": 9000}},
    "selection": {"coverage_fraction": 0.5},
    "phases_seconds": {"estimate_theta": 0.5, "sample": 0.25,
                       "select_seeds": 0.125, "other": 0.0625,
                       "total": 0.9375},
    "storage": {"rrr_peak_bytes": 65536, "tracker_peak_bytes": 65536,
                "peak_rss_bytes": 1 << 24},
}


def report_log(counters):
    return {"schema_version": 9, "reports": [copy.deepcopy(REPORT)],
            "registry": {"counters": counters}}


def compare(base, cand, flags):
    done = subprocess.run([sys.executable, str(COMPARE), str(base), str(cand),
                           "--check-seeds", *flags],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    return done.returncode, done.stdout


def main():
    work = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    work.mkdir(parents=True, exist_ok=True)
    clean = {"mem.budget.reservations": 12, "mem.budget.refusals": 1}
    healed = dict(clean, **{"mem.budget.reservations": 16})
    refused = dict(healed, **{"mem.budget.refusals": 2})
    paths = {}
    for name, counters in (("clean", clean), ("healed", healed),
                           ("refused", refused)):
        paths[name] = work / f"compare_{name}.json"
        paths[name].write_text(json.dumps(report_log(counters)),
                               encoding="utf-8")

    failures = []
    # (baseline, candidate, flags, expected exit, text the output must hold)
    cases = [
        ("clean", "healed", ["--ignore-placement"], 0, "passed"),
        ("clean", "healed", [], 1, "mem.budget.reservations"),
        ("clean", "refused", ["--ignore-placement"], 1,
         "mem.budget.refusals"),
    ]
    for base, cand, flags, want, text in cases:
        code, output = compare(paths[base], paths[cand], flags)
        label = f"{base} vs {cand} {' '.join(flags) or '(no flags)'}"
        if code != want or text not in output:
            failures.append(f"{label}: exit {code} (want {want}), "
                            f"output lacks {text!r}:\n{output}")
        else:
            print(f"ok    {label}: exit {code}")
    for failure in failures:
        print(f"FAIL  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
