#!/usr/bin/env python3
"""Reconstruct the per-round critical path of a ripples trace.

Consumes the Chrome trace-event JSON that --trace writes and answers the
load-imbalance questions the raw timeline only shows visually:

  * Where did each round's wall time go?  For every martingale round the
    round span ("imm.estimation_round", keyed by its `x` arg; the final
    extend+select pair; the resume replay) is aligned across rank rows
    (pids).  The round's wall time W is the slowest rank's span.  A final
    selection that returned the accepted round's seeds (its
    "imm.select_seeds" span carries reused=1, and no top-up ran) did no
    work: it is listed as "final (reused)" and has nothing to decompose.
    Each rank's time decomposes into sample compute (sampler batch spans minus
    the collectives nested in them), select compute (select spans minus
    nested collectives), collective wait (top-level mpsim spans), and
    imbalance slack (W minus the rank's own span) — independently measured
    pieces, so their sum matching W is a real check on the
    instrumentation, not an identity.
  * Who was the straggler?  A collective's completer (the last rank to
    arrive) emits the "flow.collective" flow starts that release the
    waiters, so per round the rank emitting the most collective-flow
    starts is the rank the others waited on.
  * Did every sampler batch feed selection?  Every "flow.rrr_batch" start
    must terminate in a flow end inside a select span, and every sampler
    batch span must have a corresponding batch flow on its rank.

Checks (nonzero exit on violation, same contract as compare_reports.py):
  * per-round decomposition sums to W within --sum-tolerance (default
    0.05) on the critical rank (a reused final selection is exempt);
  * every flow start pairs with exactly one flow end;
  * every sampler batch span is covered by a batch flow on its pid;
  * optional --max-imbalance bound on every round's max/median compute
    imbalance factor; --imbalance-min-wall-ms restricts that gate to
    rounds long enough to measure (sub-millisecond rounds are scheduler
    noise, not load imbalance).

--print-imbalance emits one machine-parseable line per round on stdout
(`IMBALANCE<TAB>label<TAB>wall_ms<TAB>factor`) so callers (check.sh's
stealing leg) can compute before/after ratios without scraping the table.

Usage:
  analyze_trace.py trace.json [--sum-tolerance 0.05] [--max-imbalance F]
                              [--imbalance-min-wall-ms MS]
                              [--print-imbalance] [--quiet]
"""

import argparse
import collections
import json
import sys

ROUND_SPAN = "imm.estimation_round"
FINAL_SPANS = {"imm.sample", "imm.select_seeds"}
REUSED_LABEL = "final (reused)"
REPLAY_SPAN = "imm.resume_replay"
SAMPLER_CATEGORY = "sampler"
SELECT_CATEGORY = "select"
MPSIM_CATEGORY = "mpsim"
BATCH_FLOW = "flow.rrr_batch"
COLLECTIVE_FLOW = "flow.collective"


def load_events(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        raise ValueError(f"{path}: not a trace-event JSON object")
    return doc["traceEvents"]


def spans_by_pid(events):
    """pid -> list of complete ("X") events sorted by start time."""
    out = collections.defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            out[event["pid"]].append(event)
    for spans in out.values():
        spans.sort(key=lambda e: e["ts"])
    return out


def overlap(span, lo, hi):
    """Microseconds of `span` falling inside [lo, hi]."""
    begin = max(span["ts"], lo)
    end = min(span["ts"] + span.get("dur", 0), hi)
    return max(0.0, end - begin)


def toplevel(spans):
    """Drops spans nested inside an earlier span of the same list (same
    pid/category), so summing durations never double-counts."""
    kept = []
    open_until = -1.0
    for span in spans:  # sorted by ts
        end = span["ts"] + span.get("dur", 0)
        if span["ts"] < open_until:
            continue
        kept.append(span)
        open_until = max(open_until, end)
    return kept


class RoundWindow:
    """One rank's view of one round: the enclosing span interval."""

    def __init__(self, pid, lo, hi):
        self.pid = pid
        self.lo = lo
        self.hi = hi
        self.duration = hi - lo
        self.sample_compute = 0.0
        self.select_compute = 0.0
        self.wait = 0.0

    def attribute(self, rank_spans):
        """Splits the interval using the sampler/select/mpsim spans of this
        pid.  All pieces are measured from their own spans — not derived
        from the round duration — so the sum is a genuine cross-check."""
        inside = [s for s in rank_spans
                  if overlap(s, self.lo, self.hi) > 0]
        # mpsim.rank is the whole-run wrapper around a rank's body, not a
        # collective — counting it as wait would swallow the entire round.
        mpsim = toplevel([s for s in inside
                          if s.get("cat") == MPSIM_CATEGORY
                          and s.get("name") != "mpsim.rank"])
        sampler = toplevel([s for s in inside
                            if s.get("cat") == SAMPLER_CATEGORY])
        select = toplevel([s for s in inside
                           if s.get("cat") == SELECT_CATEGORY])
        self.wait = sum(overlap(s, self.lo, self.hi) for s in mpsim)

        def minus_nested_collectives(outer_list):
            total = 0.0
            for outer in outer_list:
                lo = max(outer["ts"], self.lo)
                hi = min(outer["ts"] + outer.get("dur", 0), self.hi)
                total += hi - lo
                total -= sum(overlap(s, lo, hi) for s in mpsim)
            return max(0.0, total)

        self.sample_compute = minus_nested_collectives(sampler)
        self.select_compute = minus_nested_collectives(select)

    @property
    def compute(self):
        return self.sample_compute + self.select_compute


def collect_rounds(pid_spans):
    """(label, {pid: RoundWindow}) per round, chronological.

    Estimation rounds align across pids by their `x` arg (per-occurrence,
    so a healing replay's second pass at the same x forms its own round);
    the resume replay is one round; the final extend+select pair is one."""
    rounds = {}

    def add(key, pid, lo, hi):
        window = rounds.setdefault(key, {})
        if pid in window:
            window[pid].lo = min(window[pid].lo, lo)
            window[pid].hi = max(window[pid].hi, hi)
            window[pid].duration = window[pid].hi - window[pid].lo
        else:
            window[pid] = RoundWindow(pid, lo, hi)

    for pid, spans in pid_spans.items():
        occurrence = collections.Counter()
        for span in spans:
            name = span.get("name")
            lo, hi = span["ts"], span["ts"] + span.get("dur", 0)
            if name == ROUND_SPAN:
                x = span.get("args", {}).get("x")
                key = ("round", x, occurrence[x])
                occurrence[x] += 1
                add(key, pid, lo, hi)
            elif name == REPLAY_SPAN:
                add(("replay", 0, occurrence["replay"]), pid, lo, hi)
            elif name in FINAL_SPANS:
                # A reused selection runs no top-up, so its span is the
                # whole final pair on every rank.
                reused = span.get("args", {}).get("reused") == 1
                add(("reused" if reused else "final", 0, 0), pid, lo, hi)

    def order(item):
        key, window = item
        return min(w.lo for w in window.values())

    labeled = []
    for key, window in sorted(rounds.items(), key=order):
        kind, x, occurrence = key
        if kind == "round":
            label = f"round {x}" + (f" (retry {occurrence})"
                                    if occurrence else "")
        elif kind == "replay":
            label = "resume replay"
        elif kind == "reused":
            label = REUSED_LABEL
        else:
            label = "final"
        labeled.append((label, window))
    return labeled


def imbalance_factor(computes):
    """max/median over per-rank compute, lower median — mirrors
    metrics::round_imbalance_factor."""
    if len(computes) < 2:
        return 1.0
    ordered = sorted(computes)
    median = ordered[(len(ordered) - 1) // 2]
    return ordered[-1] / median if median > 0 else 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="trace-event JSON file to analyze")
    parser.add_argument("--sum-tolerance", type=float, default=0.05,
                        help="allowed relative gap between the critical "
                             "rank's decomposition and the round wall time "
                             "(default 0.05)")
    parser.add_argument("--max-imbalance", type=float, default=None,
                        help="fail when any round's compute imbalance "
                             "factor exceeds this bound")
    parser.add_argument("--imbalance-min-wall-ms", type=float, default=0.0,
                        help="apply --max-imbalance only to rounds whose "
                             "wall time is at least this many milliseconds "
                             "(default 0: gate every round)")
    parser.add_argument("--print-imbalance", action="store_true",
                        help="emit one IMBALANCE\\tlabel\\twall_ms\\tfactor "
                             "line per round for machine consumption")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-round table, print only "
                             "failures and the summary line")
    args = parser.parse_args()

    try:
        events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    failures = []

    # --- flow bookkeeping ---------------------------------------------------
    flow_starts = collections.defaultdict(list)
    flow_ends = collections.defaultdict(list)
    batch_flow_starts_per_pid = collections.Counter()
    collective_starts = []  # (name-checked) completer-side flow starts
    for event in events:
        phase = event.get("ph")
        if phase == "s":
            flow_starts[event.get("id")].append(event)
            if event.get("name") == BATCH_FLOW:
                batch_flow_starts_per_pid[event["pid"]] += 1
            elif event.get("name") == COLLECTIVE_FLOW:
                collective_starts.append(event)
        elif phase == "f":
            flow_ends[event.get("id")].append(event)

    for flow_id, starts in sorted(flow_starts.items()):
        ends = flow_ends.get(flow_id, [])
        if len(starts) != 1 or len(ends) != 1:
            failures.append(
                f"flow id {flow_id} ({starts[0].get('name')}): "
                f"{len(starts)} start(s), {len(ends)} end(s) — "
                "expected exactly one of each")
    for flow_id in sorted(set(flow_ends) - set(flow_starts)):
        failures.append(f"flow id {flow_id}: end without a start")

    # Every sampler batch span must be covered by a batch flow on its pid.
    pid_spans = spans_by_pid(events)
    for pid, spans in sorted(pid_spans.items()):
        batches = len(toplevel(
            [s for s in spans if s.get("cat") == SAMPLER_CATEGORY]))
        flows = batch_flow_starts_per_pid.get(pid, 0)
        if batches > flows:
            failures.append(
                f"rank {pid}: {batches} sampler batch span(s) but only "
                f"{flows} {BATCH_FLOW} flow(s) — a batch never fed "
                "selection")

    # --- per-round decomposition -------------------------------------------
    rounds = collect_rounds(pid_spans)
    if not rounds:
        failures.append("no martingale round spans found "
                        f"({ROUND_SPAN} / {REPLAY_SPAN} / final pair)")

    header = (f"{'round':<18} {'W(ms)':>9} {'sample':>8} {'select':>8} "
              f"{'wait':>8} {'slack':>8} {'sum/W':>7} {'imbal':>6} "
              "straggler")
    if not args.quiet and rounds:
        print(header)
        print("-" * len(header))

    totals = {"wall": 0.0, "sample": 0.0, "select": 0.0, "wait": 0.0,
              "slack": 0.0}
    for label, window in rounds:
        for rank_window in window.values():
            rank_window.attribute(pid_spans[rank_window.pid])
        wall = max(w.duration for w in window.values())
        critical = max(window.values(), key=lambda w: w.duration)
        sample = sum(w.sample_compute for w in window.values())
        select = sum(w.select_compute for w in window.values())
        wait = sum(w.wait for w in window.values())
        slack = sum(wall - w.duration for w in window.values())
        factor = imbalance_factor([w.compute for w in window.values()])

        # The straggler: who completed (arrived last at) the most
        # collectives inside this round's window.
        lo = min(w.lo for w in window.values())
        hi = max(w.hi for w in window.values())
        completers = collections.Counter(
            e["pid"] for e in collective_starts if lo <= e["ts"] <= hi)
        straggler = (f"rank {completers.most_common(1)[0][0]} "
                     f"({completers.most_common(1)[0][1]} collectives)"
                     if completers else "-")

        # The check: the critical rank's independently measured pieces must
        # reassemble its wall time.  (Aggregates across ranks always sum to
        # ranks*W by construction; the critical rank's do not.)
        accounted = (critical.sample_compute + critical.select_compute +
                     critical.wait)
        gap = abs(wall - accounted) / wall if wall > 0 else 0.0
        # Nothing ran inside a reused selection: its few microseconds of
        # bookkeeping are not compute the pieces could reassemble.
        if label == REUSED_LABEL:
            gap = 0.0
        if gap > args.sum_tolerance:
            failures.append(
                f"{label}: critical rank {critical.pid} decomposition "
                f"covers {accounted / 1000.0:.3f}ms of {wall / 1000.0:.3f}ms "
                f"wall ({gap * 100.0:.1f}% gap > "
                f"{args.sum_tolerance * 100.0:.0f}% tolerance)")
        if (args.max_imbalance is not None and
                wall / 1000.0 >= args.imbalance_min_wall_ms and
                factor > args.max_imbalance):
            failures.append(f"{label}: imbalance factor {factor:.2f} exceeds "
                            f"--max-imbalance {args.max_imbalance:.2f}")
        if args.print_imbalance:
            print(f"IMBALANCE\t{label}\t{wall / 1000.0:.3f}\t{factor:.4f}")

        totals["wall"] += wall
        totals["sample"] += sample
        totals["select"] += select
        totals["wait"] += wait
        totals["slack"] += slack
        if not args.quiet:
            print(f"{label:<18} {wall / 1000.0:>9.3f} "
                  f"{sample / 1000.0:>8.3f} {select / 1000.0:>8.3f} "
                  f"{wait / 1000.0:>8.3f} {slack / 1000.0:>8.3f} "
                  f"{(1.0 - gap):>6.1%} {factor:>6.2f} {straggler}")

    ranks = max((len(w) for _, w in rounds), default=0)
    if not args.quiet and rounds:
        busy = totals["sample"] + totals["select"]
        denominator = totals["wall"] * max(ranks, 1)
        print("-" * len(header))
        print(f"{ranks} rank(s), {len(rounds)} round(s), critical path "
              f"{totals['wall'] / 1000.0:.3f}ms: "
              f"{busy / denominator:.1%} compute, "
              f"{totals['wait'] / denominator:.1%} collective wait, "
              f"{totals['slack'] / denominator:.1%} imbalance slack"
              if denominator > 0 else "empty trace")

    if failures:
        for message in failures:
            print(f"FAIL  {message}", file=sys.stderr)
        print(f"{args.trace}: FAILED ({len(failures)} problem(s))",
              file=sys.stderr)
        return 1
    print(f"{args.trace}: analysis passed "
          f"({len(rounds)} round(s), {len(flow_starts)} flow(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
