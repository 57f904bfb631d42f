#!/usr/bin/env python3
"""Build and run the GPUfs repo benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload scan --seed 1 --seconds 35 --trace 0
  python3 perfbench/run.py --workload all            # every workload once
  python3 perfbench/run.py --check 10 --workload lookup  # steadiness check

The driver binary is built from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). One run
is one driver process under a deadline; a run killed by the deadline
counts every call it issued as failed and exits non-zero. The last
line of stdout is one JSON object: correct, attempted, failed, metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "lookup", "etl_2gpu")
# A run is killed after its measuring time plus this slack (its last
# round, checks and teardown), so a stuck run ends within three minutes.
DEADLINE_SLACK_S = 120
ROUND_RE = re.compile(r"^# round \d+.*?, (\d+) calls, (\d+) failed$")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build the driver; exit 1 with the log on failure."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                sys.exit(1)
    return os.path.join(bdir, "perfbench_driver")


def run_once(binary, workload, seed, seconds, trace):
    """Run the driver once. Returns (lines, result dict or None, rc)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-seed%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            stdin=subprocess.DEVNULL, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + DEADLINE_SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        lines = out.splitlines()
        # Every call of the killed run fails: the finished rounds', plus
        # the round in flight (sized like the last finished one).
        calls = [int(m.group(1)) for m in map(ROUND_RE.match, lines) if m]
        attempted = sum(calls) + (calls[-1] if calls else 1)
        sys.stderr.write("perfbench: %s seed %d killed after %d s\n"
                         % (workload, seed, seconds + DEADLINE_SLACK_S))
        return lines, {"correct": False, "attempted": attempted,
                       "failed": attempted, "metrics": {}}, 1
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return lines, result, proc.returncode


def load_bounds():
    """Metric name -> bound from BENCHMARK.json (end-to-end metrics)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def check(binary, workloads, runs, first_seed, seconds):
    """Run each workload `runs` times with distinct seeds; print median,
    quartiles and spread (IQR / median) of every end-to-end metric and
    flag spreads above the metric's bound. Returns True when none is
    flagged and every run was correct."""
    bounds = load_bounds()
    steady = True
    for w in workloads:
        values = {}
        for i in range(runs):
            seed = first_seed + i
            _, res, rc = run_once(binary, w, seed, seconds, 0)
            if rc != 0 or not res or not res.get("correct") or res["failed"]:
                print("%s seed %d: FAILED run (rc %d)" % (w, seed, rc))
                steady = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join("%s=%.6g" % (name, m["value"])
                             for name, m in res["metrics"].items())
            print("%s seed %d: %s" % (w, seed, shown), flush=True)
        print("\n%s: %d runs, seeds %d..%d" % (w, runs, first_seed,
                                               first_seed + runs - 1))
        print("  %-18s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                if name != "setup_s":
                    steady = False
            elif bound is not None and spread > bound / 3:
                flag = "  over bound/3"
            print("  %-18s %14.6g %14.6g %14.6g %7.2f%% %5s%s" % (
                name, med, q1, q3, 100 * spread,
                "-" if bound is None else "%.0f%%" % (100 * bound), flag))
        print(flush=True)
    return steady


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, metavar="N", default=0,
                    help="steadiness check: N runs per workload, seeds "
                         "SEED..SEED+N-1")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    if args.check:
        ok = check(binary, workloads, args.check, args.seed, args.seconds)
        sys.exit(0 if ok else 1)

    if len(workloads) == 1:
        lines, res, rc = run_once(binary, workloads[0], args.seed,
                                  args.seconds, args.trace)
        for line in lines[:-1] if res and rc == 0 else lines:
            print(line)
        if res is None:
            sys.stderr.write("perfbench: no result from the driver\n")
            sys.exit(rc or 1)
        print(json.dumps(res))
        sys.exit(rc)

    # Every workload once: per-workload reports, then one combined line.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc_all = 0
    for w in workloads:
        lines, res, rc = run_once(binary, w, args.seed, args.seconds,
                                  args.trace)
        for line in lines[:-1] if res and rc == 0 else lines:
            print(line)
        if res is None or rc != 0:
            rc_all = rc or 1
            total["correct"] = False
            if res is None:
                continue
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(total))
    sys.exit(rc_all)


if __name__ == "__main__":
    main()
