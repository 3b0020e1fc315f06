#!/usr/bin/env python3
"""Build and run the setsync benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --steadiness 5 [--workload W ...] [--seconds S] [--trace 0|1]

The first form builds perfbench/setbench.exe with dune (into
.bench_build) and runs one measurement; the last line of standard
output is the JSON result. --seconds defaults to run_seconds in
BENCHMARK.json. --selftest runs the benchmark's own tests.
--steadiness N runs each named workload (default: all) N times with
seeds 1..N and prints the median, quartiles and spread (IQR / median)
of every metric next to its bound in BENCHMARK.json.

Build output goes to standard error. The script exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/setbench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "setbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    if shutil.which("dune") is None:
        print("setbench: dune is not on PATH", file=sys.stderr)
        return False
    # no shared dune cache: the build reads and writes only the checkout
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache=disabled", TARGET]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("setbench: build timed out", file=sys.stderr)
        return False
    if r.returncode != 0 or not os.path.exists(EXE):
        print("setbench: build failed", file=sys.stderr)
        return False
    return True


def run(args, capture=False):
    try:
        r = subprocess.run([EXE] + args, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("setbench: run timed out", file=sys.stderr)
        return 1, ""
    out = r.stdout.decode() if capture else ""
    return r.returncode, out


def benchmark_spec():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(n, names, seconds, trace):
    spec = benchmark_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = names or [w["name"] for w in spec["workloads"]]
    seconds = seconds if seconds is not None else spec["run_seconds"]
    ok = True
    for name in names:
        values = {}
        for seed in range(1, n + 1):
            code, out = run(["--workload", name, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)],
                            capture=True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print(f"{name} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} jobs failed")
                ok = False
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append((v["value"], v["unit"]))
        print(f"{name}: {n} runs, seeds 1..{n}, {seconds} s each")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for metric, vs in values.items():
            xs = [v for v, _ in vs]
            unit = vs[0][1]
            med = statistics.median(xs)
            q1, _, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                         else (xs[0], xs[0], xs[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric) if trace == 0 else None
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  above bound/3"
            print(f"  {metric:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.3f} {bound if bound is not None else '-':>6} "
                  f"{unit}{flag}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--steadiness", type=int, metavar="N")
    a = p.parse_args()
    if not build():
        return 1
    if a.selftest:
        return run(["--selftest"])[0]
    if a.steadiness:
        return 0 if steadiness(a.steadiness, a.workload, a.seconds, a.trace) else 1
    if not a.workload or len(a.workload) != 1:
        print("setbench: give exactly one --workload", file=sys.stderr)
        return 2
    args = ["--workload", a.workload[0], "--seed", str(a.seed),
            "--seconds", str(a.seconds if a.seconds is not None
                             else benchmark_spec()["run_seconds"]),
            "--trace", str(a.trace)]
    return run(args)[0]


if __name__ == "__main__":
    sys.exit(main())
