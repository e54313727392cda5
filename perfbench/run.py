#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/mmbench, then runs one workload.

    python3 perfbench/run.py --workload kmeans_ooc --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR, relative to the root). Standard output ends with one JSON
object: {"correct", "attempted", "failed", "metrics"}, where "metrics" holds
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The lines before it are a readable table of everything measured and the
binary's full report (run context, every round, sample counts, kv_zipf
latencies, error rate).

Exit codes: 0 correct result; 1 a correctness or self-check failure (the
result is still printed); 2 bad arguments, missing sources or a failed
build; 3 the benchmark binary crashed or timed out.
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("kmeans_ooc", "grayscott_ckpt", "kv_zipf")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY_TIMEOUT_S = 170


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures and builds mmbench (a no-op when up to date)."""
    for need in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(2, "library sources missing: no %s in %s" % (need, ROOT))
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "cmake")
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "mmbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(2, "build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "mmbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die(2, "--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    run_dir = os.path.join(out, "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(3, "mmbench timed out after %d s" % BINARY_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(3, "mmbench exited with %d and no report" % proc.returncode)

    # The table shows everything the report measured; the result line
    # carries the metrics BENCHMARK.json declares for this mode.
    table = dict(report["per_layer" if args.trace else "end_to_end"])
    if not args.trace:
        table.update(report["detail"])
    for name, m in table.items():
        print("%-40s %20.6f %s" % (name, m["value"], m["unit"]))
    metrics = report["per_layer" if args.trace else "end_to_end"]
    declared = declared_metrics(args.trace)
    if declared is not None:
        missing = [m for m in declared if m not in metrics]
        if missing:
            die(3, "report lacks declared metrics: " + ", ".join(missing))
        metrics = {m: metrics[m] for m in declared}
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            die(3, "metric %s is not a finite number" % name)
    for err in report["errors"]:
        print("error: " + err)
    print("report: " + json.dumps(report))
    correct = bool(report["correct"]) and report["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
