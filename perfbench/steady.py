#!/usr/bin/env python3
"""Steadiness tool: runs workloads repeatedly and reports each metric's
median, quartiles and spread against its bound in BENCHMARK.json.

    # one set: N runs per workload, seeds SEED0..SEED0+N-1
    python3 perfbench/steady.py --workloads gemm,serve --runs 10 --out set1.json
    # two sets of the same commit (or a parent and a change) agree?
    python3 perfbench/steady.py --compare set1.json set2.json

Spread is (Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4).
A metric is steady when its spread is below a third of its bound. In a
comparison, a metric fails when the second median is worse than the first by
more than the bound, and the sets disagree when their failed shares differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace="0"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    last = p.stdout.rstrip("\n").split("\n")[-1]
    try:
        res = json.loads(last)
    except ValueError:
        res = None
    if p.returncode != 0 or res is None:
        sys.stdout.write(p.stdout)
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed, p.returncode))
    return res


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def collect(args, spec):
    out = {}
    for w in args.workloads.split(","):
        rows = {"metrics": {}, "attempted": 0, "failed": 0}
        for i in range(args.runs):
            res = run_once(w, args.seed0 + i, spec["run_seconds"])
            rows["attempted"] += res["attempted"]
            rows["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                rows["metrics"].setdefault(name, []).append(m["value"])
            print("%s seed %d done" % (w, args.seed0 + i), file=sys.stderr)
        out[w] = rows
    return out


def report(sets, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w, rows in sets.items():
        share = rows["failed"] / max(1, rows["attempted"])
        print("%s: failed share %d/%d = %.6f" % (w, rows["failed"], rows["attempted"], share))
        print("  %-18s %14s %14s %14s %8s %6s  %s" %
              ("metric", "Q1", "median", "Q3", "spread", "bound", "verdict"))
        for name, vals in rows["metrics"].items():
            q1, med, q3, sp = spread(vals)
            b = bounds[name]["bound"]
            verdict = "steady" if sp < b / 3 else ("within" if sp <= b else "TOO WIDE")
            if name != "setup_s" and sp > b:
                ok = False
            print("  %-18s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%  %s" %
                  (name, q1, med, q3, 100 * sp, 100 * b, verdict))
    return ok


def compare(a, b, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w in a:
        sa = a[w]["failed"] / max(1, a[w]["attempted"])
        sb = b[w]["failed"] / max(1, b[w]["attempted"])
        same = sa == sb
        ok &= same
        print("%s: failed share %.6f vs %.6f %s" % (w, sa, sb, "same" if same else "DIFFER"))
        for name, va in a[w]["metrics"].items():
            ma, mb = statistics.median(va), statistics.median(b[w]["metrics"][name])
            m = metrics[name]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            good = worse <= m["bound"]
            ok &= good
            print("  %-18s %14.6g %14.6g  worse by %+7.2f%% (bound %3.0f%%) %s" %
                  (name, ma, mb, 100 * worse, 100 * m["bound"], "ok" if good else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="gemm,bert_train,llm_infer,serve")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as f:
            a = json.load(f)
        with open(args.compare[1]) as f:
            b = json.load(f)
        sys.exit(0 if compare(a, b, spec) else 1)
    sets = collect(args, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets, f, indent=1)
    sys.exit(0 if report(sets, spec) else 1)


if __name__ == "__main__":
    main()
