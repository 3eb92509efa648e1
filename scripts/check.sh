#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes over the concurrency and memory
# hot-spots (the mpsim runtime, Algorithm 4 selection, RRR storage) and a
# fault-injection soak over the recovery machinery.
#
#   scripts/check.sh             # full check
#   scripts/check.sh --no-tsan   # skip the ThreadSanitizer stage
#   scripts/check.sh --no-asan   # skip the AddressSanitizer stage
#   scripts/check.sh --no-ubsan  # skip the UndefinedBehaviorSanitizer stage
#   scripts/check.sh --no-soak   # skip the fault-injection soak stage
#   scripts/check.sh --no-checkpoint # skip the kill-resume soak leg
#   scripts/check.sh --no-fused  # skip the fused sampling-engine leg
#   scripts/check.sh --no-observability # skip the trace/analyze leg
#   scripts/check.sh --no-membudget # skip the memory-budget leg
#   scripts/check.sh --no-stealing # skip the work-stealing leg
#   scripts/check.sh --no-integrity # skip the data-integrity leg
#
# selection_exchange_test rides in the TSan stage: its threaded-rank cells
# make the selection allreduce on each rank team's primary thread.
#
# The fused leg reruns the sampling, driver-matrix, checkpoint, and fault
# suites with RIPPLES_SAMPLER=fused, so the env-selected fused engine sees
# the same coverage the scalar default gets; every byte-identity assertion
# in those suites then compares fused output against the same expectations.
#
# The observability leg runs a 4-rank fused imm_cli with --trace
# --profile-mem --json-report and pushes the artifacts through the full
# analysis pipeline: validate_trace.py with flow-pairing and counter-track
# enforcement, then analyze_trace.py (critical-path decomposition must sum
# within tolerance of each round's wall time).  This is the one place the
# whole observatory — flow events, round ledger, resource sampler, and
# both scripts — is exercised end to end against a real multi-rank run.
#
# The memory-budget leg (DESIGN.md §12) runs `ctest -L memory`, then drives
# imm_cli through the degradation ladder end to end on LT, whose RRR sets
# are short list records: a forced-compression fig6-style run must report
# >= 3x lower RRR peak with seeds byte-identical to the unlimited reference;
# a tight budget must switch to compression (mem.budget.compress_switches
# >= 1) and still finish complete with the reference seeds.  On IC most
# sets are n-bit bitmap records already, which compression stores as-is, so
# there forced compression must only never raise the peak.  A below-floor
# budget soak — the whole ladder under an RLIMIT_AS cap — must end in a
# degraded-but-valid report (shared-memory) or a diagnosed
# MemoryBudgetExceeded (dist), never a raw bad_alloc.
#
# The stealing leg (DESIGN.md §13) runs `ctest -L stealing`, then drives the
# fig7 pathology end to end: a 4-rank fused run with --steal-skew
# homes every draw on rank 0, so the per-round compute imbalance factor is
# pathological (hundreds).  Three baseline and three steal-on runs are
# traced; the steal-on traces must pass analyze_trace.py --max-imbalance
# (nonzero exit on violation), the min-of-3 worst-round factors must show a
# >= 3x reduction, and compare_reports.py --check-seeds --ignore-placement
# must find every steal-on run byte-identical in seeds/theta/|R|/coverage
# to its no-steal baseline — stealing moves work, never results.
#
# The integrity leg (DESIGN.md §14) runs `ctest -L integrity`, then drives
# the corruption machinery end to end on a 4-rank fused+steal run:
# a transient bit-flip is injected at EVERY communication site (the sweep
# walks site indices, rotating the victim rank, until the plan stops firing
# on any rank) and each run must detect the flip, retry it away, and finish
# with seeds byte-identical to the clean verified reference; sticky flips
# at a spread of sites must exhaust the retry budget and escalate through
# shrink-and-heal to the same seeds; flaky delivery must be absorbed by the
# retry budget without escalation.  A corrupted payload may cost retries or
# a heal, but never a silently wrong seed set.
#
# The TSan stage builds with -DRIPPLES_SANITIZE=thread (see the top-level
# CMakeLists.txt) and runs mpsim_test, fault_test, and select_test.  OpenMP
# barrier synchronization is invisible to TSan because libgomp is not
# instrumented; scripts/tsan-suppressions.txt silences those known false
# positives while keeping the std::thread-based mpsim runtime fully checked.
#
# The ASan stage builds with -DRIPPLES_SANITIZE=address and runs imm_test,
# rrr_test, and sampler_test — the drivers with the largest allocation
# churn (RRR collections, compressed arena, hypergraph index, fused
# lane-mask scratch) and therefore the best leak/overflow coverage per test
# second.
#
# The UBSan stage builds with -DRIPPLES_SANITIZE=undefined
# (-fno-sanitize-recover=all, so any UB report fails the run) and runs
# mpsim_test and fault_test: the failure paths unwind mid-collective, which
# is exactly where lifetime and arithmetic UB would hide.
#
# The soak stage reruns the `faults` ctest label repeatedly
# (RIPPLES_SOAK_ITERATIONS, default 5): the recovery protocol's historical
# bugs (stale-waiter barrier underflow) were scheduling races that a single
# pass can miss.
#
# The checkpoint stage is a kill-resume soak: after `ctest -L checkpoint`,
# it runs imm_cli with --checkpoint-dir, SIGKILLs it at a randomized moment
# mid-run (RIPPLES_KILL_ITERATIONS, default 5, different delay each time),
# resumes with --resume, and requires compare_reports.py --check-seeds to
# find the resumed run byte-identical to an uninterrupted reference.  This
# exercises the one thing in-process tests cannot: real SIGKILL, a fresh
# process, and on-disk snapshots as the only carried-over state.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
soak_iterations=${RIPPLES_SOAK_ITERATIONS:-5}
kill_iterations=${RIPPLES_KILL_ITERATIONS:-5}
run_tsan=1
run_asan=1
run_ubsan=1
run_soak=1
run_checkpoint=1
run_fused=1
run_observability=1
run_membudget=1
run_stealing=1
run_integrity=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    --no-ubsan) run_ubsan=0 ;;
    --no-soak) run_soak=0 ;;
    --no-checkpoint) run_checkpoint=0 ;;
    --no-fused) run_fused=0 ;;
    --no-observability) run_observability=0 ;;
    --no-membudget) run_membudget=0 ;;
    --no-stealing) run_stealing=0 ;;
    --no-integrity) run_integrity=0 ;;
    *) echo "unknown option: $arg (--no-tsan | --no-asan | --no-ubsan | --no-soak | --no-checkpoint | --no-fused | --no-observability | --no-membudget | --no-stealing | --no-integrity)" >&2; exit 2 ;;
  esac
done

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$jobs"

if [[ "$run_fused" == 1 ]]; then
  echo "== fused: sampling + driver + checkpoint suites under RIPPLES_SAMPLER=fused =="
  RIPPLES_SAMPLER=fused ./build/tests/sampler_test
  RIPPLES_SAMPLER=fused ./build/tests/imm_test
  RIPPLES_SAMPLER=fused ./build/tests/driver_matrix_test
  RIPPLES_SAMPLER=fused ./build/tests/checkpoint_test
  RIPPLES_SAMPLER=fused ./build/tests/fault_test
fi

if [[ "$run_soak" == 1 ]]; then
  echo "== faults: soak (${soak_iterations}x ctest -L faults) =="
  for ((i = 1; i <= soak_iterations; ++i)); do
    ctest --test-dir build -L faults --output-on-failure -j "$jobs" \
      > /dev/null || { echo "fault soak failed on iteration $i" >&2; exit 1; }
  done
fi

if [[ "$run_checkpoint" == 1 ]]; then
  echo "== checkpoint: ctest -L checkpoint =="
  ctest --test-dir build -L checkpoint --output-on-failure -j "$jobs"

  echo "== checkpoint: kill-resume soak (${kill_iterations}x SIGKILL mid-run + --resume) =="
  ckpt_work=$(mktemp -d)
  trap 'rm -rf "$ckpt_work"' EXIT
  ckpt_cli=./build/examples/imm_cli
  # About a second of martingale rounds.  Each kill lands at 10-85% of the
  # reference run's measured wall time, so it falls anywhere from before the
  # first snapshot to after acceptance however fast the build is.
  ckpt_args=(--driver dist --ranks 3 --dataset cit-HepTh --scale 0.2
             --epsilon 0.3 -k 32 --seed 2019)
  # Uninterrupted reference, checkpointing enabled so its registry carries
  # the same imm.checkpoint.* counters the resumed runs will.
  ref_start_ns=$(date +%s%N)
  "$ckpt_cli" "${ckpt_args[@]}" --checkpoint-dir "$ckpt_work/ref-ckpt" \
    --json-report "$ckpt_work/reference.json" > /dev/null
  ref_ms=$(( ($(date +%s%N) - ref_start_ns) / 1000000 ))
  echo "  reference run: ${ref_ms}ms"
  # A victim that finished before its kill is a miss: nothing was
  # interrupted, so it is not compared, and the iteration is redrawn — at
  # most kill_iterations times over the whole leg.
  misses=0
  for ((i = 1; i <= kill_iterations; ++i)); do
    dir="$ckpt_work/run-$i-$misses"
    delay_ms=$(( ref_ms * (10 + RANDOM % 76) / 100 ))
    "$ckpt_cli" "${ckpt_args[@]}" --checkpoint-dir "$dir" > /dev/null 2>&1 &
    victim=$!
    sleep "$(printf '%d.%03d' $((delay_ms / 1000)) $((delay_ms % 1000)))"
    kill -9 "$victim" 2>/dev/null || true
    victim_status=0
    wait "$victim" 2>/dev/null || victim_status=$?
    if (( victim_status != 0 && victim_status != 128 + 9 )); then
      echo "kill-resume soak: the victim failed (status $victim_status)" \
           "on iteration $i" >&2
      exit 1
    fi
    if (( victim_status == 0 )); then
      misses=$((misses + 1))
      echo "  iteration $i: miss, the run had finished before ${delay_ms}ms"
      if (( misses > kill_iterations )); then
        echo "kill-resume soak: $misses misses; the reference's ${ref_ms}ms" \
             "no longer predicts the victims' wall time" >&2
        exit 1
      fi
      i=$((i - 1))
      continue
    fi
    "$ckpt_cli" "${ckpt_args[@]}" --checkpoint-dir "$dir" --resume \
      --json-report "$ckpt_work/resumed-$i.json" > /dev/null
    # Identity is the point here (--check-seeds is exact); the perf families
    # are relaxed because a resumed run legitimately does less work and this
    # leg runs back-to-back processes, not min-of-N measurements.
    python3 scripts/compare_reports.py --check-seeds --allow-missing \
      --phase-tolerance 2.0 --counter-tolerance 10 \
      "$ckpt_work/reference.json" "$ckpt_work/resumed-$i.json" \
      > "$ckpt_work/compare-$i.txt" \
      || { grep FAIL "$ckpt_work/compare-$i.txt" >&2
           echo "kill-resume soak: resumed run diverged from the reference" \
                "on iteration $i (killed at ${delay_ms}ms)" >&2; exit 1; }
    echo "  iteration $i: killed at ${delay_ms}ms, resume matched the reference"
  done
fi

if [[ "$run_observability" == 1 ]]; then
  echo "== observability: 4-rank trace + memory profile through the analysis pipeline =="
  # No EXIT trap here — the checkpoint leg owns it; clean up explicitly.
  obs_work=$(mktemp -d)
  ./build/examples/imm_cli --driver dist --ranks 4 --sampler fused \
    --dataset cit-HepTh --scale 0.1 --epsilon 0.5 -k 16 --seed 2019 \
    --trace "$obs_work/trace.json" --profile-mem \
    --json-report "$obs_work/report.json" > /dev/null \
    || { rm -rf "$obs_work"; echo "observability run failed" >&2; exit 1; }
  python3 scripts/validate_trace.py "$obs_work/trace.json" \
    --require-categories imm,sampler,select,mpsim,flow \
    --require-counters mem.tracker_live_bytes,mem.tracker_peak_bytes,mem.rss_bytes \
    --check-flows \
    || { rm -rf "$obs_work"; echo "observability: trace validation failed" >&2; exit 1; }
  python3 scripts/analyze_trace.py "$obs_work/trace.json" \
    || { rm -rf "$obs_work"; echo "observability: trace analysis failed" >&2; exit 1; }
  # The report must carry the v5 observability payload: a rounds ledger row
  # set covering all 4 ranks and a non-empty memory timeline.
  python3 - "$obs_work/report.json" <<'EOF' \
    || { rm -rf "$obs_work"; echo "observability: report payload check failed" >&2; exit 1; }
import json, sys
doc = json.load(open(sys.argv[1]))
report = doc["reports"][0]
rounds = report["rounds"]
assert rounds, "empty rounds ledger"
ranks = {entry["rank"] for r in rounds for entry in r["per_rank"]}
assert ranks == set(range(4)), f"rounds cover ranks {sorted(ranks)}, expected 0..3"
assert all("imbalance_factor" in r for r in rounds)
assert report["memory_timeline"], "empty memory timeline"
assert report["storage"]["tracker_peak_bytes"] >= 0
assert report["storage"]["peak_rss_bytes"] > 0
print(f"  report: {len(rounds)} rounds, {len(report['memory_timeline'])} memory samples")
EOF
  rm -rf "$obs_work"
fi

if [[ "$run_membudget" == 1 ]]; then
  echo "== membudget: ctest -L memory =="
  ctest --test-dir build -L memory --output-on-failure -j "$jobs"

  echo "== membudget: degradation ladder end to end =="
  # No EXIT trap here — the checkpoint leg owns it; clean up explicitly.
  mem_work=$(mktemp -d)
  mem_cli=./build/examples/imm_cli
  mem_base=(--driver mt --threads 3 --dataset cit-HepTh --scale 0.1
            --epsilon 0.5 -k 16 --seed 2019)
  mem_args=("${mem_base[@]}" --model lt)
  # Plain-representation reference: records the peak to beat and the seed
  # set every governed run below must reproduce byte-identically.  A
  # generous (never-binding) budget keeps the tracker charged so the
  # tracker_peak_bytes and mem.budget.* families are present on both sides
  # of every diff below.
  "$mem_cli" "${mem_args[@]}" --rrr-compress off --mem-budget 1073741824 \
    --json-report "$mem_work/reference.json" > /dev/null \
    || { rm -rf "$mem_work"; echo "membudget: reference run failed" >&2; exit 1; }
  # Rung 1, forced: --rrr-compress always must cut the RRR peak >= 3x while
  # changing nothing the algorithm can observe.
  "$mem_cli" "${mem_args[@]}" --rrr-compress always \
    --json-report "$mem_work/compressed.json" > /dev/null \
    || { rm -rf "$mem_work"; echo "membudget: forced-compression run failed" >&2; exit 1; }
  python3 scripts/compare_reports.py --check-seeds --allow-missing \
    --phase-tolerance 2.0 --counter-tolerance 10 \
    "$mem_work/reference.json" "$mem_work/compressed.json" > /dev/null \
    || { rm -rf "$mem_work"; echo "membudget: compressed seeds diverged from the reference" >&2; exit 1; }
  tight_budget=$(python3 - "$mem_work/reference.json" "$mem_work/compressed.json" <<'EOF'
import json, sys
ref = json.load(open(sys.argv[1]))["reports"][0]
comp = json.load(open(sys.argv[2]))["reports"][0]
plain = ref["storage"]["rrr_peak_bytes"]
squeezed = comp["storage"]["rrr_peak_bytes"]
assert squeezed * 3 <= plain, \
    f"compression saved only {plain / max(squeezed, 1):.2f}x (need >= 3x)"
assert not comp.get("degraded"), "forced compression must not degrade"
print(plain // 2)
EOF
  ) || { rm -rf "$mem_work"; echo "membudget: compression-ratio check failed" >&2; exit 1; }
  echo "  forced compression (lt): >= 3x peak reduction, seeds identical"
  # IC: the plain store already holds most sets as bitmaps, which the
  # compressed store keeps as-is when the varint record is longer.
  "$mem_cli" "${mem_base[@]}" --model ic --rrr-compress off \
    --json-report "$mem_work/reference-ic.json" > /dev/null \
    || { rm -rf "$mem_work"; echo "membudget: ic reference run failed" >&2; exit 1; }
  "$mem_cli" "${mem_base[@]}" --model ic --rrr-compress always \
    --json-report "$mem_work/compressed-ic.json" > /dev/null \
    || { rm -rf "$mem_work"; echo "membudget: ic forced-compression run failed" >&2; exit 1; }
  python3 - "$mem_work/reference-ic.json" "$mem_work/compressed-ic.json" <<'EOF' \
    || { rm -rf "$mem_work"; echo "membudget: ic forced-compression check failed" >&2; exit 1; }
import json, sys
ref = json.load(open(sys.argv[1]))["reports"][0]
comp = json.load(open(sys.argv[2]))["reports"][0]
plain = ref["storage"]["rrr_peak_bytes"]
squeezed = comp["storage"]["rrr_peak_bytes"]
assert squeezed <= plain, f"compression raised the peak {plain} -> {squeezed}"
assert comp["seeds"] == ref["seeds"], "compressed seeds diverged"
EOF
  echo "  forced compression (ic): peak never above plain, seeds identical"
  # Rung 2, under pressure: a budget of half the plain peak must trip the
  # governor into compression mid-run and still finish complete — same
  # seeds, not degraded.
  "$mem_cli" "${mem_args[@]}" --mem-budget "$tight_budget" \
    --json-report "$mem_work/tight.json" > /dev/null \
    || { rm -rf "$mem_work"; echo "membudget: tight-budget run failed" >&2; exit 1; }
  python3 - "$mem_work/tight.json" <<'EOF' \
    || { rm -rf "$mem_work"; echo "membudget: tight-budget payload check failed" >&2; exit 1; }
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc["registry"]["counters"]
assert counters.get("mem.budget.reservations", 0) >= 1, "budget never consulted"
assert counters.get("mem.budget.compress_switches", 0) >= 1, \
    "governor never switched to compression"
assert not doc["reports"][0].get("degraded"), \
    "tight budget should finish complete, not degraded"
EOF
  # Identity is the point; the memory families are relaxed because a run
  # that switches representation mid-flight legitimately reserves and peaks
  # differently from the plain reference it must still agree with.
  python3 scripts/compare_reports.py --check-seeds --allow-missing \
    --phase-tolerance 2.0 --counter-tolerance 10 --memory-tolerance 2.0 \
    "$mem_work/reference.json" "$mem_work/tight.json" > /dev/null \
    || { rm -rf "$mem_work"; echo "membudget: tight-budget seeds diverged from the reference" >&2; exit 1; }
  echo "  tight budget ($tight_budget bytes): switched to compression, seeds identical"
  # Rung 3, below the floor: soak the whole ladder under an RLIMIT_AS cap.
  # The shared-memory driver must end in a degraded-but-certified report
  # (exit 0, "degraded" on stdout) and the distributed driver in a diagnosed
  # MemoryBudgetExceeded (nonzero exit); neither may ever surface a raw
  # bad_alloc or reach terminate().  The IC input's whole plain store is
  # ~420 KB of mostly bitmap records, so every budget here sits below even
  # its forced-compression peak (~370 KB).
  for floor_budget in 16384 65536 262144; do
    if ! bash -c "ulimit -v 4194304; exec '$mem_cli' --driver mt --threads 3 \
          --dataset cit-HepTh --scale 0.1 --epsilon 0.5 -k 16 --seed 2019 \
          --mem-budget $floor_budget" \
          > "$mem_work/floor-mt-$floor_budget.log" 2>&1; then
      cat "$mem_work/floor-mt-$floor_budget.log" >&2
      rm -rf "$mem_work"
      echo "membudget: shared-memory run under a $floor_budget-byte floor must degrade, not fail" >&2
      exit 1
    fi
    grep -q "degraded: memory budget reached" \
        "$mem_work/floor-mt-$floor_budget.log" \
      || { rm -rf "$mem_work"; echo "membudget: mt floor run at $floor_budget finished without degrading" >&2; exit 1; }
    if bash -c "ulimit -v 4194304; exec '$mem_cli' --driver dist --ranks 3 \
          --dataset cit-HepTh --scale 0.1 --epsilon 0.5 -k 16 --seed 2019 \
          --mem-budget $floor_budget" \
          > "$mem_work/floor-dist-$floor_budget.log" 2>&1; then
      rm -rf "$mem_work"
      echo "membudget: distributed run under a $floor_budget-byte floor must refuse, not succeed" >&2
      exit 1
    fi
    grep -q "memory budget exceeded" "$mem_work/floor-dist-$floor_budget.log" \
      || { cat "$mem_work/floor-dist-$floor_budget.log" >&2; rm -rf "$mem_work";
           echo "membudget: dist floor run at $floor_budget died without the budget diagnostic" >&2; exit 1; }
    if grep -qE "bad_alloc|terminate called" "$mem_work"/floor-*-"$floor_budget".log; then
      rm -rf "$mem_work"
      echo "membudget: a floor run at $floor_budget surfaced a raw allocation failure" >&2
      exit 1
    fi
    echo "  floor budget $floor_budget: mt degraded with certificate, dist refused with diagnostic"
  done
  rm -rf "$mem_work"
fi

if [[ "$run_stealing" == 1 ]]; then
  echo "== stealing: ctest -L stealing =="
  ctest --test-dir build -L stealing --output-on-failure -j "$jobs"

  echo "== stealing: fig7 skewed-partition imbalance gate (4-rank fused, min-of-3) =="
  # No EXIT trap here — the checkpoint leg owns it; clean up explicitly.
  steal_work=$(mktemp -d)
  steal_cli=./build/examples/imm_cli
  # --steal-skew homes every stream on rank 0 — the manufactured fig7
  # pathology.  The baseline keeps stealing off (factor: hundreds); the
  # steal-on runs must close the tail AND stay byte-identical.
  steal_args=(--driver dist --ranks 4 --sampler fused
              --dataset cit-HepTh --scale 0.1 --epsilon 0.5 -k 16
              --seed 2019 --steal-skew)
  for i in 1 2 3; do
    "$steal_cli" "${steal_args[@]}" --trace "$steal_work/base-$i.json" \
      --json-report "$steal_work/base-report-$i.json" > /dev/null \
      || { rm -rf "$steal_work"; echo "stealing: baseline run $i failed" >&2; exit 1; }
    "$steal_cli" "${steal_args[@]}" --steal on \
      --trace "$steal_work/steal-$i.json" \
      --json-report "$steal_work/steal-report-$i.json" > /dev/null \
      || { rm -rf "$steal_work"; echo "stealing: steal-on run $i failed" >&2; exit 1; }
    # Gate (nonzero exit): with stealing on, no substantial round may
    # exceed a 3.0 max/median compute imbalance.  Rounds under 40 ms (the
    # final top-up/select round here, ~16 ms) are dominated by
    # per-collective accounting noise on one core, not load imbalance —
    # the min-of-3 reduction check below still covers them at >= 5 ms. The
    # estimation rounds (the actual fig7 pathology) run 80-120 ms; 40 ms
    # splits the two populations with margin on both sides.
    python3 scripts/analyze_trace.py "$steal_work/steal-$i.json" --quiet \
      --max-imbalance 3.0 --imbalance-min-wall-ms 40 --print-imbalance \
      > "$steal_work/steal-imbal-$i.txt" \
      || { cat "$steal_work/steal-imbal-$i.txt" >&2; rm -rf "$steal_work";
           echo "stealing: steal-on run $i violated --max-imbalance 3.0" >&2; exit 1; }
    python3 scripts/analyze_trace.py "$steal_work/base-$i.json" --quiet \
      --print-imbalance > "$steal_work/base-imbal-$i.txt" \
      || { rm -rf "$steal_work"; echo "stealing: baseline trace analysis failed on run $i" >&2; exit 1; }
    # Byte-identity across the placement change: seeds, theta, |R|, and
    # coverage exact; placement-sensitive families excluded by design.
    python3 scripts/compare_reports.py --check-seeds --allow-missing \
      --ignore-placement --phase-tolerance 2.0 --counter-tolerance 10 \
      "$steal_work/base-report-$i.json" "$steal_work/steal-report-$i.json" \
      > /dev/null \
      || { rm -rf "$steal_work";
           echo "stealing: steal-on run $i diverged from the no-steal baseline" >&2; exit 1; }
  done
  # The headline number: min-of-3 worst measurable round per side, >= 3x
  # apart.  min-of-3 makes a lucky baseline or an unlucky steal run
  # insufficient — the reduction must hold on the best run of each side.
  python3 - "$steal_work" <<'EOF' \
    || { rm -rf "$steal_work"; echo "stealing: imbalance-reduction check failed" >&2; exit 1; }
import sys

def worst_factor(path):
    worst = 1.0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("IMBALANCE\t"):
                continue
            _, _, wall_ms, factor = line.rstrip("\n").split("\t")
            if float(wall_ms) >= 5.0:
                worst = max(worst, float(factor))
    return worst

work = sys.argv[1]
base = min(worst_factor(f"{work}/base-imbal-{i}.txt") for i in (1, 2, 3))
steal = min(worst_factor(f"{work}/steal-imbal-{i}.txt") for i in (1, 2, 3))
assert steal > 0 and base >= 3.0 * steal, (
    f"imbalance reduced only {base / steal:.2f}x "
    f"(baseline min-of-3 worst {base:.2f}, stealing {steal:.2f}; need >= 3x)")
print(f"  imbalance factor: {base:.1f} -> {steal:.2f} "
      f"({base / steal:.0f}x reduction, min-of-3 worst rounds)")
EOF
  echo "  3/3 steal-on runs byte-identical to the skewed no-steal baseline"
  rm -rf "$steal_work"
fi

if [[ "$run_integrity" == 1 ]]; then
  echo "== integrity: ctest -L integrity =="
  ctest --test-dir build -L integrity --output-on-failure -j "$jobs"

  echo "== integrity: corruption sweep over every communication site (4-rank fused+steal) =="
  # No EXIT trap here — the checkpoint leg owns it; clean up explicitly.
  int_work=$(mktemp -d)
  int_cli=./build/examples/imm_cli
  int_args=(--driver dist --ranks 4 --sampler fused --steal on
            --dataset cit-HepTh --scale 0.1 --epsilon 0.5 -k 16 --seed 2019)
  # References: the unverified run proves the checksum layer changes nothing
  # observable; the verified run is the byte-identity baseline every injected
  # run below must reproduce.
  "$int_cli" "${int_args[@]}" --json-report "$int_work/plain.json" > /dev/null \
    || { rm -rf "$int_work"; echo "integrity: unverified reference run failed" >&2; exit 1; }
  "$int_cli" "${int_args[@]}" --verify-collectives --scrub-rrr on \
    --json-report "$int_work/clean.json" > /dev/null \
    || { rm -rf "$int_work"; echo "integrity: verified reference run failed" >&2; exit 1; }
  # --ignore-placement: with --steal on, who ends up doing which chunk is
  # timing-dependent, and the CRC work shifts timing — results must still
  # be byte-identical.
  python3 scripts/compare_reports.py --check-seeds --ignore-placement \
    --allow-missing --phase-tolerance 2.0 --counter-tolerance 100 \
    "$int_work/plain.json" "$int_work/clean.json" > /dev/null \
    || { rm -rf "$int_work"; echo "integrity: enabling verification changed the results" >&2; exit 1; }
  # Paranoid scrubbing re-checks every RRR block on every iterate; it may
  # cost time but must be invisible to the algorithm.
  "$int_cli" "${int_args[@]}" --verify-collectives --scrub-rrr paranoid \
    --json-report "$int_work/paranoid.json" > /dev/null \
    || { rm -rf "$int_work"; echo "integrity: paranoid scrub run failed" >&2; exit 1; }
  python3 scripts/compare_reports.py --check-seeds --ignore-placement \
    --allow-missing --phase-tolerance 2.0 --counter-tolerance 100 \
    "$int_work/plain.json" "$int_work/paranoid.json" > /dev/null \
    || { rm -rf "$int_work"; echo "integrity: paranoid scrubbing changed the results" >&2; exit 1; }

  # Transient flip at EVERY communication site: the CRC must catch it, the
  # bounded retry must retransmit clean bytes, and the run must finish with
  # the reference seeds — detected and retried, never silently wrong, never
  # escalated.  Site numbering is per rank, so the victim rank rotates while
  # the site index walks the space; a site that fires on no rank is a
  # payload-less operation (a barrier carries nothing to corrupt), so the
  # sweep only concludes the space is exhausted after eight consecutive
  # all-rank misses, well past any hole the collective schedule contains.
  transient_runs=0
  site=0
  last_fired=-1
  miss_streak=0
  while :; do
    if (( site >= 512 )); then
      rm -rf "$int_work"
      echo "integrity: transient sweep did not terminate within 512 sites" >&2
      exit 1
    fi
    fired=0
    for probe in 0 1 2 3; do
      rank=$(( (site + probe) % 4 ))
      "$int_cli" "${int_args[@]}" --verify-collectives --scrub-rrr on \
        --inject-fault "rank=$rank,site=$site,kind=corrupt" \
        --json-report "$int_work/corrupt.json" > /dev/null \
        || { rm -rf "$int_work"; echo "integrity: transient flip at rank=$rank site=$site was not survived" >&2; exit 1; }
      fired=$(python3 - "$int_work/corrupt.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["registry"]["counters"]
if not counters.get("integrity.injected_corruptions", 0):
    print(0)  # site is beyond this rank's last communication operation
    sys.exit(0)
assert counters.get("integrity.corruptions_detected", 0) >= 1, "flip not detected"
assert counters.get("integrity.retries", 0) >= 1, "no retry recorded"
assert not counters.get("integrity.escalations", 0), "transient flip escalated"
print(1)
EOF
      ) || { rm -rf "$int_work"; echo "integrity: transient counter check failed at rank=$rank site=$site" >&2; exit 1; }
      [[ "$fired" == 1 ]] && break
    done
    if [[ "$fired" == 0 ]]; then
      miss_streak=$(( miss_streak + 1 ))
      if (( miss_streak >= 8 )); then
        break
      fi
      site=$(( site + 1 ))
      continue
    fi
    miss_streak=0
    last_fired=$site
    python3 scripts/compare_reports.py --check-seeds --ignore-placement \
      --allow-missing --phase-tolerance 2.0 --counter-tolerance 100 \
      "$int_work/clean.json" "$int_work/corrupt.json" > /dev/null \
      || { rm -rf "$int_work"; echo "integrity: seeds diverged after a transient flip at rank=$rank site=$site" >&2; exit 1; }
    transient_runs=$(( transient_runs + 1 ))
    site=$(( site + 1 ))
  done
  sites=$(( last_fired + 1 ))
  if (( sites < 16 )); then
    rm -rf "$int_work"
    echo "integrity: sweep found only $sites communication sites — the probe looks broken" >&2
    exit 1
  fi
  echo "  transient flips: all $transient_runs sites detected, retried, byte-identical"

  # Sticky flips re-corrupt every retransmission, so the retry budget must
  # exhaust and escalate the corrupter through the crash path — shrink,
  # heal, regenerate — to the same seeds.  The spread covers early setup,
  # mid-run sampling/steal traffic, and late selection.
  sticky_runs=0
  for slot in 0 1 2 3 4 5 6 7; do
    site=$(( slot * (sites - 1) / 7 ))
    # As in the transient sweep, probe all four victims: with --steal on a
    # given rank's site count is placement-dependent, so a fixed rank may
    # simply never reach this site index.  A site that fires on no rank is
    # a payload-less hole (barrier) — skip it, the floor below catches a
    # broken spread.
    for probe in 0 1 2 3; do
      rank=$(( (slot + probe) % 4 ))
      "$int_cli" "${int_args[@]}" --verify-collectives --scrub-rrr on --recover \
        --inject-fault "rank=$rank,site=$site,kind=corrupt,sticky" \
        --json-report "$int_work/sticky.json" > /dev/null \
        || { rm -rf "$int_work"; echo "integrity: sticky flip at rank=$rank site=$site was not healed" >&2; exit 1; }
      fired=$(python3 - "$int_work/sticky.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["registry"]["counters"]
if not counters.get("integrity.injected_corruptions", 0):
    print(0)
    sys.exit(0)
assert counters.get("integrity.corruptions_detected", 0) >= 1, "flip not detected"
assert counters.get("integrity.escalations", 0) >= 1, "sticky flip never escalated"
print(1)
EOF
      ) || { rm -rf "$int_work"; echo "integrity: sticky counter check failed at rank=$rank site=$site" >&2; exit 1; }
      [[ "$fired" == 1 ]] || continue
      # --seeds-only, not --check-seeds: escalation kills the corrupter, and
      # the heal contract promises the failure-free SEED SET — a non-boundary
      # site may shift martingale acceptance by a round, moving theta.  The
      # phase floor mutes timing noise: a heal legitimately spends tens of
      # milliseconds in backoff + shrink + regeneration that the clean run
      # never pays, and this whole run is only ~half a second.
      python3 scripts/compare_reports.py --seeds-only --ignore-placement \
        --allow-missing --phase-tolerance 2.0 --phase-min-seconds 1.0 \
        --counter-tolerance 100 \
        "$int_work/clean.json" "$int_work/sticky.json" > /dev/null \
        || { rm -rf "$int_work"; echo "integrity: seeds diverged after healing a sticky flip at rank=$rank site=$site" >&2; exit 1; }
      sticky_runs=$(( sticky_runs + 1 ))
      break
    done
  done
  if (( sticky_runs < 6 )); then
    rm -rf "$int_work"
    echo "integrity: only $sticky_runs/8 sticky flips fired — the spread looks broken" >&2
    exit 1
  fi
  echo "  sticky flips: $sticky_runs/8 escalated through shrink-and-heal, byte-identical"

  # Flaky delivery fails verification M times then passes; the retry budget
  # (4 attempts) must absorb it — retried, never escalated, no rank loss.
  for spec in 0:1 1:2 2:3 3:2; do
    rank=${spec%%:*}
    attempts=${spec##*:}
    site=$(( (rank + 1) * (sites - 1) / 5 ))
    "$int_cli" "${int_args[@]}" --verify-collectives --scrub-rrr on \
      --inject-fault "rank=$rank,site=$site,kind=flaky,attempts=$attempts" \
      --json-report "$int_work/flaky.json" > /dev/null \
      || { rm -rf "$int_work"; echo "integrity: flaky delivery at rank=$rank site=$site was not absorbed" >&2; exit 1; }
    python3 - "$int_work/flaky.json" <<EOF \
      || { rm -rf "$int_work"; echo "integrity: flaky counter check failed at rank=$rank site=$site" >&2; exit 1; }
import json
counters = json.load(open("$int_work/flaky.json"))["registry"]["counters"]
assert counters.get("integrity.injected_flaky", 0) >= 1, "flaky fault never fired"
assert counters.get("integrity.retries", 0) >= $attempts, "retry budget not exercised"
assert not counters.get("integrity.escalations", 0), "flaky delivery escalated"
EOF
    python3 scripts/compare_reports.py --check-seeds --ignore-placement \
      --allow-missing --phase-tolerance 2.0 --counter-tolerance 100 \
      "$int_work/clean.json" "$int_work/flaky.json" > /dev/null \
      || { rm -rf "$int_work"; echo "integrity: seeds diverged after flaky delivery at rank=$rank site=$site" >&2; exit 1; }
  done
  echo "  flaky delivery: 4/4 absorbed by the retry budget, byte-identical"
  rm -rf "$int_work"
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== tsan: build mpsim_test + fault_test + select_test + selection_exchange_test + sampler_test + trace_test + metrics_test + memory_budget_test + stealing_test + integrity_test =="
  cmake -B build-tsan -S . -DRIPPLES_SANITIZE=thread \
    -DRIPPLES_ENABLE_BENCHMARKS=OFF -DRIPPLES_ENABLE_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan --target \
    mpsim_test fault_test select_test selection_exchange_test sampler_test \
    trace_test metrics_test memory_budget_test stealing_test integrity_test \
    -j "$jobs"

  echo "== tsan: run =="
  # The suppressions match OpenMP-region functions by stack frame.  At the
  # default history a long parallel region evicts its workers' stacks
  # ("failed to restore the stack") and the same false positives escape
  # them; history_size=7 keeps those stacks restorable.
  export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan-suppressions.txt history_size=7"
  ./build-tsan/tests/mpsim_test
  ./build-tsan/tests/fault_test
  ./build-tsan/tests/select_test
  ./build-tsan/tests/selection_exchange_test
  # The observatory's concurrency surface: flow-id allocation and ring
  # publication from rank threads, the completer's id-block handoff, the
  # background resource sampler against tracker updates and ledger appends.
  ./build-tsan/tests/trace_test
  ./build-tsan/tests/metrics_test
  # The fused engine shares only pre-grown collection slots between worker
  # threads; run the sampler suite in both engines to race-check that claim.
  ./build-tsan/tests/sampler_test
  RIPPLES_SAMPLER=fused ./build-tsan/tests/sampler_test
  # The memory governor's tracker and oom-fault registry are shared across
  # rank threads; the budget suite races try_reserve against the ladder.
  ./build-tsan/tests/memory_budget_test
  # The steal channel's publish/pop/acquire is lock-based cross-rank
  # handoff; the perturbation sweep drives every schedule through it under
  # the race detector, and the threaded-rank cells add the samplers'
  # OpenMP teams inside each rank thread.
  ./build-tsan/tests/stealing_test
  # The verified-exchange protocol hashes every member's posted payload from
  # every rank between two barriers; the corruption/retry/escalation suite
  # drives those cross-thread reads, the backoff clock hook, and the scrub
  # counters under the race detector.
  ./build-tsan/tests/integrity_test
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== asan: build imm_test + rrr_test + sampler_test + memory_budget_test + stealing_test =="
  cmake -B build-asan -S . -DRIPPLES_SANITIZE=address \
    -DRIPPLES_ENABLE_BENCHMARKS=OFF -DRIPPLES_ENABLE_EXAMPLES=OFF >/dev/null
  cmake --build build-asan --target imm_test rrr_test sampler_test \
    memory_budget_test stealing_test -j "$jobs"

  echo "== asan: run =="
  ./build-asan/tests/imm_test
  ./build-asan/tests/rrr_test
  # The fused kernel's counting-sort emission indexes scratch by lane mask
  # words; ASan checks those stores stay inside the pre-sized buffers.
  ./build-asan/tests/sampler_test
  RIPPLES_SAMPLER=fused ./build-asan/tests/sampler_test
  # The compressed store's varint encoder/decoder and the ladder's window
  # hand-off are the newest pointer arithmetic in the repo; leak/overflow
  # check them under both the plain and forced-compression paths.
  ./build-asan/tests/memory_budget_test
  # Chunk enumeration writes sets[first_slot + j] computed from saturating
  # index arithmetic; ASan checks every stolen chunk's stores stay inside
  # the pre-grown collection.
  ./build-asan/tests/stealing_test
fi

if [[ "$run_ubsan" == 1 ]]; then
  echo "== ubsan: build mpsim_test + fault_test =="
  cmake -B build-ubsan -S . -DRIPPLES_SANITIZE=undefined \
    -DRIPPLES_ENABLE_BENCHMARKS=OFF -DRIPPLES_ENABLE_EXAMPLES=OFF >/dev/null
  cmake --build build-ubsan --target mpsim_test fault_test -j "$jobs"

  echo "== ubsan: run =="
  ./build-ubsan/tests/mpsim_test
  ./build-ubsan/tests/fault_test
fi

echo "== all checks passed =="
