#!/usr/bin/env bash
# Machine-readable bench pipeline: builds the repo, runs the figure/table benches
# with JSON emission enabled, and collects BENCH_<name>.json files in one directory.
#
# Usage: scripts/bench.sh [build-dir] [out-dir]
#   build-dir defaults to `build`, out-dir to `bench_out`.
#
# fig8 exits non-zero if the TLB breaks cycle-neutrality, the walker-read reduction
# misses its 5x target, or the trace/counter EMC cross-check fails; fig9 exits
# non-zero on a cycle-neutrality violation; tab6 on a trace mismatch; emc_scaling
# if sharded EMC locking is below 2x the global baseline at 4 vCPUs, if any
# real-thread cell diverges from its deterministic oracle (counters or per-vCPU
# cycles), or — on hosts with >= 4 hardware threads — if sharded locking is
# slower than global in wall-clock at 8 vCPUs; channel if the zero-copy
# seal+open path is below 4x the scalar baseline at 64 KiB or the 16-session
# sharded aggregate is below 2x one session; scripts/tcb_loc.sh if src/monitor
# exceeds 5,000 non-blank, non-comment lines. Any of those fails this script.
# BENCH_emc_scaling.json carries both series: "cells" (simulated cycles,
# deterministic engine) and "engine_cells" (wall-clock ns, real threads vs
# their oracle twins).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench_out}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j

mkdir -p "$OUT_DIR"
export EREBOR_BENCH_JSON="$OUT_DIR"

echo "== tcb (monitor source size; paper section 11: <5k LoC) =="
# Fails if src/monitor grows past the paper's 5,000-line figure.
tcb_lines=$(scripts/tcb_loc.sh)
echo "src/monitor: $tcb_lines non-blank, non-comment lines (limit 5000)"
echo

echo "== fig8 (LMBench microbenchmarks, TLB off/on cross-check) =="
EREBOR_TRACE=1 EREBOR_TRACE_JSON="$OUT_DIR/fig8_trace.json" \
  "$BUILD_DIR/bench/fig8_lmbench"

echo
echo "== fig9 (workload ablation, TLB off/on cross-check) =="
"$BUILD_DIR/bench/fig9_workloads"

echo
echo "== tab3 (privilege-transition costs) =="
"$BUILD_DIR/bench/tab3_transitions" --benchmark_out_format=console 2>/dev/null

echo
echo "== tab6 (execution statistics) =="
EREBOR_TRACE=1 "$BUILD_DIR/bench/tab6_stats"

echo
echo "== emc_scaling (multi-vCPU EMC throughput, global vs sharded locking) =="
# Runs both engines: deterministic simulated-cycle cells plus the real-thread
# wall-clock sweep with per-cell oracle-equivalence checks. Set
# EREBOR_EXEC=deterministic to skip the threaded sweep.
"$BUILD_DIR/bench/emc_scaling"

echo
echo "== channel (attested-channel seal+open and multi-session ingest) =="
"$BUILD_DIR/bench/channel_throughput"

echo
echo "== batched_mmu (per-op vs ring MMU-update ablation) =="
# Fails if the ring path recovers less than a majority of the Erebor-added
# fork/mmap/pagefault cost, or if the multi-vCPU ring burst diverges between
# the real-thread engine and its deterministic oracle. EREBOR_BENCH_ITERS
# overrides the iteration count; EREBOR_EXEC=deterministic skips the threaded
# oracle half.
"$BUILD_DIR/bench/batched_mmu"

echo
echo "== serving (fleet supervisor under hostile load) =="
# Fails if any attacked tenant escapes quarantine+replacement, if a benign
# tenant is penalized for a neighbor's attack, if the benign p99 under attack
# exceeds 1.5x the attack-free baseline, or if the real-thread burst-ingest
# engine diverges from its deterministic oracle. EREBOR_EXEC=deterministic
# skips the threaded oracle half.
"$BUILD_DIR/bench/serving"

echo
echo "== tab7_platforms (isolation-backend ablation: PKS vs TME-MK vs CET-only) =="
# Fails if a measured gated PTE write diverges from its backend cost model, if
# TME-MK cannot hold 16/64/256 live sealed sandboxes with clean invariants, or
# if PKS admission past the 11-key budget is not a clean kUnavailable refusal
# counted in fleet.domain_exhausted.
"$BUILD_DIR/bench/tab7_platforms"

echo
echo "== warm_start (cold boot vs real warm session install vs CoW clone) =="
# Fails if the warm install (full attested handshake + session install — no
# debug shortcut) is not cheaper than a cold boot, or if a template clone is
# not at least 10x cheaper than cold at every heap size.
"$BUILD_DIR/bench/warm_start"

echo
echo "== mem_sharing (common-memory footprint ablation) =="
# Fails if any fleet size fails to initialize or the 8-sandbox sharing savings
# drop below 60%.
"$BUILD_DIR/bench/mem_sharing"

echo
echo "== churn (fleet-churn: warm clones, promotions, quarantine-and-replace) =="
# Fails if the clone-launch rate misses 10k/sec, dormant clones pin confined
# frames, a promotion/quarantine-replacement fails, the pool-mode fleet loses
# containment, or any invariant family is violated.
"$BUILD_DIR/bench/churn"

echo
for name in fig8 fig9 tab3 tab6 emc_scaling channel batched_mmu serving tab7_platforms warm_start mem_sharing churn; do
  f="$OUT_DIR/BENCH_$name.json"
  if [[ ! -s "$f" ]]; then
    echo "bench.sh: missing or empty $f" >&2
    exit 1
  fi
  # Structural sanity: the file must be well-formed JSON naming its bench. Fall back
  # to a grep when no python3 is installed.
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys
doc = json.load(open(sys.argv[1]))
assert "bench" in doc, "missing bench key"' "$f" || {
      echo "bench.sh: malformed $f" >&2
      exit 1
    }
  else
    grep -q '"bench"' "$f" || { echo "bench.sh: malformed $f" >&2; exit 1; }
  fi
done
# Serving bench carries its own pass/fail verdicts in the JSON; re-check them
# here so a stale or hand-edited file cannot masquerade as a clean run.
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json,sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "serving", "wrong bench name"
assert doc["pass"] is True, "serving bench did not pass"
assert doc["hostile"]["containment"] is True, "hostile run not contained"
assert doc["tail_ratio"] <= doc["tail_budget"], "benign p99 blew the tail budget"
for run in ("baseline", "hostile"):
    for key in ("served", "benign_p50_ns", "benign_p99_ns", "ops_per_sec"):
        assert key in doc[run], f"missing {run}.{key}"' \
    "$OUT_DIR/BENCH_serving.json" || {
      echo "bench.sh: BENCH_serving.json failed validation" >&2
      exit 1
    }
else
  grep -q '"containment": true' "$OUT_DIR/BENCH_serving.json" || {
    echo "bench.sh: BENCH_serving.json failed validation" >&2
    exit 1
  }
fi
# tab7 carries the backend-ablation verdicts: all three backend rows present,
# the TME-MK scaling series sealed every target with clean invariants, and the
# PKS exhaustion probe behaved.
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json,sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "tab7_platforms", "wrong bench name"
assert doc["pass"] is True, "tab7_platforms did not pass"
names = [row["name"] for row in doc["backends"]]
assert names == ["pks", "tme-mk", "cet-only"], f"unexpected backend rows {names}"
for row in doc["backends"]:
    assert row["measured_ok"], "measurement failed for " + row["name"]
    assert row["measured_gated_pte_write"] == row["pte_total"], \
        "measured PTE write diverged from the cost model for " + row["name"]
targets = [cell["live_sandboxes"] for cell in doc["tme_mk_scaling"]]
assert targets == [16, 64, 256], f"unexpected scaling series {targets}"
for cell in doc["tme_mk_scaling"]:
    assert cell["sealed"] == cell["live_sandboxes"], "scaling level fell short"
    assert cell["domains_in_use"] == cell["live_sandboxes"], "domain accounting drifted"
    assert cell["invariants_ok"], "invariant violation in the scaling sweep"
ex = doc["pks_exhaustion"]
assert ex["overflow_unavailable"] is True, "overflow was not a clean kUnavailable"
assert ex["domain_exhausted_delta"] == 1, "fleet.domain_exhausted not counted"' \
    "$OUT_DIR/BENCH_tab7_platforms.json" || {
      echo "bench.sh: BENCH_tab7_platforms.json failed validation" >&2
      exit 1
    }
else
  grep -q '"pass": true' "$OUT_DIR/BENCH_tab7_platforms.json" || {
    echo "bench.sh: BENCH_tab7_platforms.json failed validation" >&2
    exit 1
  }
fi
# churn carries the fleet-scale warm-start verdicts: launch rate over target,
# 1k+ live sandboxes with zero dormant confined frames, every promotion and
# quarantine-replacement served, and a clean invariant record.
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json,sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "churn", "wrong bench name"
assert doc["pass"] is True, "churn bench did not pass"
assert doc["launches_per_sec"] >= doc["launch_target"], "clone-launch rate under target"
assert doc["live_sandboxes"] >= 1000, "fewer than 1k live sandboxes"
assert doc["dormant_confined_frames"] == 0, "dormant clones pinned confined frames"
assert doc["invariant_violations"] == 0, "invariant violation during churn"
assert doc["promotions"] >= 1 and doc["quarantine_replacements"] >= 1, \
    "promotion/quarantine churn did not run"
assert doc["fleet_pool_promotions"] >= 1, "fleet pool never promoted a clone"' \
    "$OUT_DIR/BENCH_churn.json" || {
      echo "bench.sh: BENCH_churn.json failed validation" >&2
      exit 1
    }
else
  grep -q '"pass": true' "$OUT_DIR/BENCH_churn.json" || {
    echo "bench.sh: BENCH_churn.json failed validation" >&2
    exit 1
  }
fi
echo "bench.sh: JSON results in $OUT_DIR/:"
ls -l "$OUT_DIR"/BENCH_*.json
