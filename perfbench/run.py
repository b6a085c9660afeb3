#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result line.

    python3 perfbench/run.py --workload gemm|bert_train|llm_infer|serve \
        --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
plt library from ../src) into .bench_build/perfbench under the repository
root, then runs it. Untraced runs also start SETUP_REPEATS set-up-only processes and report
setup_s as the median over all set-ups of the run. The last line of stdout
is the result object; the exit code is non-zero on any failure.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD, "plt_perfbench")
WORKLOADS = ("gemm", "bert_train", "llm_infer", "serve")
SETUP_REPEATS = 6  # extra set-up-only processes per untraced run
RUN_TIMEOUT_S = 150


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "common", "thread_pool.hpp")):
        fail("no plt sources next to the benchmark (expected ../src)")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "plt_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if any(k.startswith("PLT_") for k in os.environ):
        fail("PLT_* variables are set; they change the program being measured")
    build()
    os.makedirs(OUT, exist_ok=True)

    base = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace, "--out", OUT]
    setups = []
    if args.trace == "0":
        for _ in range(SETUP_REPEATS):
            p = run(base + ["--setup-only"])
            if p.returncode != 0 or not p.stdout.strip():
                sys.stdout.write(p.stdout)
                fail("set-up-only run failed", 1)
            setups.append(float(p.stdout.split()[-1]))

    p = run(base)
    lines = p.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(p.stdout)
        fail("the benchmark printed no result (exit code %d)" % p.returncode, 1)
    for line in lines[:-1]:
        print(line)
    if args.trace == "0":
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s samples: " + " ".join("%.6f" % s for s in setups))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
