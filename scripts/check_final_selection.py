#!/usr/bin/env python3
"""End-to-end check of the final SelectSeeds reuse (DESIGN.md §4 item 6).

Runs imm_cli on two small configurations of the same surrogate input under
`--driver dist --ranks 2`: one whose theta fits in the accepted round's |R|
(no top-up: the final selection must be the accepted round's, marked by the
`imm.select.final_reused` registry counter) and one whose theta overshoots
|R| (a top-up: the final selection is computed and the counter is absent).
For each it also checks that

  * the configuration still is what it claims (theta vs |R| from the run
    report's theta section), so input drift cannot quietly test nothing;
  * the seeds equal `--driver seq` on the same input;
  * the trace passes validate_trace.py and analyze_trace.py, whose
    decomposition must accept a near-empty `imm.select_seeds` span.

Usage: check_final_selection.py IMM_CLI [WORK_DIR]
Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUT = ["--dataset", "cit-HepTh", "--scale", "0.01", "--epsilon", "0.5",
         "--seed", "2019"]
# (label, k, final selection reused?)
CASES = [("no top-up", 8, True), ("top-up", 3, False)]


def run(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stdout}")


def check_case(cli, work, label, k, reused):
    stem = work / label.replace(" ", "_")
    report_path = stem.with_suffix(".report.json")
    trace_path = stem.with_suffix(".trace.json")
    seq_path = stem.with_suffix(".seq.json")
    run([cli, *INPUT, "-k", str(k), "--driver", "dist", "--ranks", "2",
         "--json-report", str(report_path), "--trace", str(trace_path)])
    run([cli, *INPUT, "-k", str(k), "--driver", "seq", "--json",
         str(seq_path)])

    failures = []
    doc = json.loads(report_path.read_text())
    report = doc["reports"][0]
    theta = report["theta"]
    accepted_samples = theta["extend_targets"][theta["iterations"] - 1]
    if (theta["value"] > accepted_samples) == reused:
        failures.append(f"theta {theta['value']} vs |R| {accepted_samples} "
                        f"no longer makes a {label} run")
    marker = doc["registry"]["counters"].get("imm.select.final_reused")
    if reused and marker != 1:
        failures.append(f"reuse marker is {marker}, expected 1")
    if not reused and marker is not None:
        failures.append(f"reuse marker is {marker}, expected absent")
    seq_seeds = json.loads(seq_path.read_text())["seeds"]
    if report["seeds"] != seq_seeds:
        failures.append(f"seeds {report['seeds']} differ from --driver seq "
                        f"{seq_seeds}")
    for script, extra in (("validate_trace.py", ["--check-flows"]),
                          ("analyze_trace.py", ["--quiet"])):
        try:
            run([sys.executable, str(HERE / script), str(trace_path), *extra])
        except RuntimeError as error:
            failures.append(str(error))
    return failures


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(sys.argv[2]) if len(sys.argv) == 3 else Path(scratch)
        work.mkdir(parents=True, exist_ok=True)
        status = 0
        for label, k, reused in CASES:
            failures = check_case(cli, work, label, k, reused)
            for failure in failures:
                print(f"FAIL  {label} (k={k}): {failure}", file=sys.stderr)
            if failures:
                status = 1
            else:
                print(f"ok    {label} (k={k}): final selection "
                      f"{'reused' if reused else 'computed'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
