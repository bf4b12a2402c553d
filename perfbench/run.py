#!/usr/bin/env python3
"""End-to-end benchmark of the Erebor simulator: builds the driver, runs one
workload and prints every metric by name and unit.

    python3 perfbench/run.py --workload rpc_steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the repository root. The driver (perfbench_e2e) is built from source
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
With --trace 0 the last line of output is the run's end-to-end metrics, with
--trace 1 its per-layer metrics (BENCHMARK.json lists both); spans of a traced
run are written to .bench_out/. `--workload all` runs the three workloads in
turn and prints the metrics under the names the benchmark's notes use
(req_p50_us, session_p50_ms, jobs_per_s, ...).

Seed 9001 is held out: keep it for confirming a claim made on other seeds.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rpc_steady", "session_churn", "table5_jobs"]
RUN_TIMEOUT_S = 170
GHZ = 2.1

# Names the benchmark's notes use for each workload's figures:
# (name, unit, clock, workload, source metric, scale).
NAMED = [
    ("req_p50_us", "us", "host", "rpc_steady", "op_p50_ms", 1000.0),
    ("req_p99_us", "us", "host", "rpc_steady", "op_tail_ms", 1000.0),
    ("req_per_s", "req/s", "host", "rpc_steady", "ops_per_s", 1.0),
    ("sim_req_p50_us", "us", "sim", "rpc_steady", "sim_op_p50_kcycles", 1.0 / GHZ),
    ("sim_req_p99_us", "us", "sim", "rpc_steady", "sim_op_tail_kcycles", 1.0 / GHZ),
    ("session_p50_ms", "ms", "host", "session_churn", "op_p50_ms", 1.0),
    ("session_p90_ms", "ms", "host", "session_churn", "op_tail_ms", 1.0),
    ("sessions_per_s", "1/s", "host", "session_churn", "ops_per_s", 1.0),
    ("sim_session_us", "us", "sim", "session_churn", "sim_op_p50_kcycles", 1.0 / GHZ),
    ("frames_retained_per_session", "frames", "sim", "session_churn",
     "kernel.frames_retained_per_op", 1.0),
    ("jobs_per_s", "1/s", "host", "table5_jobs", "ops_per_s", 1.0),
    # Mcycles per pass of the five jobs.
    ("sim_job_mcycles", "Mcycles", "sim", "table5_jobs", "sim_kcycles_per_op", 5 / 1000.0),
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds perfbench_e2e; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step = ["cmake", "-S", HERE, "-B", build_dir] + generator
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", "perfbench_e2e", "-j", jobs]
    done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-20000:])
        fail("build failed")
    return os.path.join(build_dir, "perfbench_e2e")


def check_replay(binary, workload, seed, fingerprint):
    """Cross-process determinism: a seed seen before by this build must give the
    same simulated fingerprint. Returns an error string or None."""
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "fingerprints.json")
    build_id = str(os.stat(binary).st_mtime_ns)
    known = {}
    if os.path.isfile(path):
        with open(path) as f:
            known = json.load(f)
    if known.get("build") != build_id:
        known = {"build": build_id, "runs": {}}
    key = "%s:%d" % (workload, seed)
    previous = known["runs"].get(key)
    known["runs"][key] = fingerprint
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    if previous is not None and previous != fingerprint:
        return "simulated fingerprint %s differs from an earlier run of seed %d (%s)" % (
            fingerprint, seed, previous)
    return None


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the parsed RESULT object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--spans", os.path.join(".bench_out", "spans-%s-seed%d.tsv" % (workload, seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr.decode(errors="replace"))
    lines = done.stdout.decode(errors="replace").splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if done.returncode != 0 or result is None:
        fail("%s exited with code %d" % (workload, done.returncode))
    error = check_replay(binary, workload, seed, result["fingerprint"])
    if error is not None:
        result["correct"] = False
        result["errors"].append(error)
        print("CHECK FAILED: " + error)
    return result


def clock_of(name):
    if name.startswith("sim_") or name.endswith("_kcycles") or name.endswith("_mcycles"):
        return "sim"
    return "host" if name.endswith(("_us", "_ms", "_s", "per_s", "_pct")) else "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec = load_spec()
    binary = build()

    if args.workload == "all":
        results = {w: run_workload(binary, w, args.seed, args.seconds, False)
                   for w in WORKLOADS}
        metrics = {}
        print("%-28s %16s %-8s %-5s %s" % ("metric", "value", "unit", "clock", "workload"))
        for name, unit, clock, workload, source, scale in NAMED:
            r = results[workload]
            value = r["end_to_end"].get(source, r["per_layer"].get(source))
            metrics[name] = {"value": value * scale, "unit": unit}
            print("%-28s %16.6f %-8s %-5s %s" % (name, value * scale, unit, clock, workload))
        for workload in WORKLOADS:
            print("%-28s %16.6f %-8s %-5s %s" % (
                "setup_s", results[workload]["end_to_end"]["setup_s"], "s", "host", workload))
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        metrics["setup_s"] = {"value": sum(r["end_to_end"]["setup_s"] for r in results.values()),
                              "unit": "s"}
        metrics["fail_ratio"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
        print("%-28s %16.6f %-8s %-5s %s" % ("fail_ratio", failed / max(attempted, 1),
                                             "ratio", "-", "all"))
        correct = all(r["correct"] for r in results.values())
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return

    result = run_workload(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    figures = result[section]
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        if name not in figures:
            fail("driver did not report %s" % name)
        metrics[name] = {"value": figures[name], "unit": metric["unit"]}
    print("%s, seed %d, %s:" % (args.workload, args.seed, section.replace("_", "-")))
    for name, m in metrics.items():
        print("  %-34s %20.6f %-8s %s" % (name, m["value"], m["unit"], clock_of(name)))
    if not args.trace:
        for name, unit, clock, workload, source, scale in NAMED:
            if workload == args.workload:
                value = result["end_to_end"].get(source, result["per_layer"].get(source))
                print("  %-34s %20.6f %-8s %s" % (name, value * scale, unit, clock))
        print("  %-34s %20.6f %-8s %s" % (
            "fail_ratio", result["failed"] / max(result["attempted"], 1), "ratio", "-"))
    for error in result["errors"]:
        print("CHECK FAILED: " + error)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
