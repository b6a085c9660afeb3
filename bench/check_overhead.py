#!/usr/bin/env python3
"""CI perf gates over the BENCH_*.json reporter output.

Default mode — pool dispatch overhead:
    check_overhead.py BENCH_micro_tpp.json [min_ratio]
  The persistent-pool runtime must keep its small-nest dispatch advantage
  over the per-call OpenMP region path (>= min_ratio, default 1.3).

Serving mode — micro-batching scheduler throughput:
    check_overhead.py --serving BENCH_serving.json [min_ratio]
  The scheduler (batched, persistent pool) must beat naive per-request
  dispatch by >= min_ratio (default 1.5) on the mixed-model workload.

Partitioned mode — sharded serving on the partitioned pool:
    check_overhead.py --partitioned BENCH_serving.json [min_ratio]
  The sharded scheduler (one queue + dispatcher per pool partition, pinned
  sessions, idle-shard stealing) must beat the single-shard scheduler by
  >= min_ratio (default 1.3). Run with PLT_POOL_PARTITIONS=2; the gate is
  skipped when the bench recorded fewer than 2 shards (nothing to compare).

Decode-tail mode — priority classes + continuous LLM-decode batching:
    check_overhead.py --decode-tail BENCH_serving.json [min_ratio]
  Latency-class LLM decode p95 on the mixed llm/bert tape must improve by
  >= min_ratio (default 1.3) with continuous batching on (priority classes +
  token-granular decode) vs the FIFO baseline.

Overload mode — delay-gradient brownout + gradient shedding:
    check_overhead.py --overload BENCH_serving.json [min_ratio]
  Latency-class p95 under ~2x saturation (standing stepped-decode backlog)
  must improve by >= min_ratio (default 1.2) with the delay-gradient
  controller on (PLT_SERVE_TARGET_DELAY_USECS > 0: throughput brownout +
  halved decode windows + gradient shed) vs the fixed queue-cap baseline.
  Both sides run priority classes and continuous batching, so the gain is
  attributable to overload control alone.

Tuner mode — the tuned spec reproduces its rate:
    check_overhead.py --tuner BENCH_fig4_tvm_compare.json [min_ratio]
  Re-running the tuner's winning spec standalone (median of repeated
  trials) must reach >= min_ratio (default 0.5) of the GFLOPS the tuner
  recorded for it, at every size the bench tuned.
"""
import json
import sys


def check_dispatch(path: str, min_ratio: float) -> int:
    with open(path) as f:
        data = json.load(f)
    ns = {r["name"]: r["ns_per_invocation"] for r in data["records"]}
    omp = ns.get("overhead_small_nest_omp")
    pool = ns.get("overhead_small_nest_pool")
    if not pool:
        print(f"missing pool overhead record in {path}: {sorted(ns)}")
        return 1
    if not omp:
        # No-OpenMP build: there is no per-call region-spawn baseline to
        # gate against (the bench skips the row rather than mislabel the
        # serial fallback as omp).
        print(f"no omp record in {path} (OpenMP not built); gate skipped")
        return 0
    ratio = omp / pool
    print(f"omp={omp:.1f}ns pool={pool:.1f}ns ratio={ratio:.2f}x "
          f"(required >= {min_ratio}x)")
    if ratio < min_ratio:
        print("FAIL: pool runtime lost its dispatch-overhead advantage")
        return 1
    return 0


def check_serving(path: str, min_ratio: float) -> int:
    with open(path) as f:
        data = json.load(f)
    values = {r["name"]: r.get("value") for r in data["records"]}
    speedup = values.get("serving_speedup")
    naive = values.get("serving_naive_req_per_sec")
    sched = values.get("serving_scheduler_req_per_sec")
    if speedup is None or naive is None or sched is None:
        print(f"missing serving records in {path}: {sorted(values)}")
        return 1
    print(f"naive={naive:.1f} req/s scheduler={sched:.1f} req/s "
          f"speedup={speedup:.2f}x (required >= {min_ratio}x)")
    if speedup < min_ratio:
        print("FAIL: scheduler lost its advantage over naive per-request "
              "dispatch")
        return 1
    return 0


def check_partitioned(path: str, min_ratio: float) -> int:
    with open(path) as f:
        data = json.load(f)
    values = {r["name"]: r.get("value") for r in data["records"]}
    shards = values.get("serving_sharded_shards")
    ratio = values.get("serving_sharded_vs_single")
    single = values.get("serving_scheduler_req_per_sec")
    sharded = values.get("serving_sharded_req_per_sec")
    if shards is None or ratio is None:
        print(f"missing sharded-serving records in {path}: {sorted(values)}")
        return 1
    if shards < 2:
        print(f"pool ran with {int(shards)} shard(s); sharded == single "
              "layout, gate skipped (set PLT_POOL_PARTITIONS=2)")
        return 0
    print(f"single-shard={single:.1f} req/s sharded={sharded:.1f} req/s "
          f"({int(shards)} shards) ratio={ratio:.2f}x "
          f"(required >= {min_ratio}x)")
    if ratio < min_ratio:
        print("FAIL: per-partition sharding lost its advantage over the "
              "single-shard scheduler")
        return 1
    return 0


def check_decode_tail(path: str, min_ratio: float) -> int:
    with open(path) as f:
        data = json.load(f)
    values = {r["name"]: r.get("value") for r in data["records"]}
    fifo = values.get("serving_decode_p95_fifo_us")
    cont = values.get("serving_decode_p95_cont_us")
    ratio = values.get("serving_decode_tail_speedup")
    if fifo is None or cont is None or ratio is None:
        print(f"missing decode-tail records in {path}: {sorted(values)}")
        return 1
    print(f"decode p95: fifo={fifo:.1f}us continuous={cont:.1f}us "
          f"speedup={ratio:.2f}x (required >= {min_ratio}x)")
    if ratio < min_ratio:
        print("FAIL: continuous batching lost its decode tail-latency "
              "advantage over the FIFO baseline")
        return 1
    return 0


def check_overload(path: str, min_ratio: float) -> int:
    with open(path) as f:
        data = json.load(f)
    values = {r["name"]: r.get("value") for r in data["records"]}
    fixed = values.get("serving_overload_p95_fixed_us")
    adaptive = values.get("serving_overload_p95_adaptive_us")
    ratio = values.get("serving_overload_latency_p95_gain")
    brownouts = values.get("serving_overload_brownouts")
    if fixed is None or adaptive is None or ratio is None:
        print(f"missing overload records in {path}: {sorted(values)}")
        return 1
    print(f"overload p95: fixed-cap={fixed:.1f}us "
          f"delay-gradient={adaptive:.1f}us gain={ratio:.2f}x "
          f"({int(brownouts or 0)} brownouts, required >= {min_ratio}x)")
    if brownouts is not None and brownouts < 1:
        print("FAIL: the delay-gradient controller never engaged (no "
              "brownout transitions) — the scenario is not saturating")
        return 1
    if ratio < min_ratio:
        print("FAIL: delay-gradient overload control lost its latency-class "
              "p95 advantage over the fixed queue-cap baseline")
        return 1
    return 0


def check_tuner(path: str, min_ratio: float) -> int:
    with open(path) as f:
        data = json.load(f)
    rows = {r["name"]: r.get("value") for r in data["records"]
            if r["name"].startswith("tuner_rerun_over_tuned_")}
    if not rows:
        print(f"missing tuner_rerun_over_tuned_* records in {path}")
        return 1
    bad = 0
    for name, ratio in sorted(rows.items()):
        print(f"{name}={ratio:.2f} (required >= {min_ratio})")
        if ratio < min_ratio:
            bad += 1
    if bad:
        print("FAIL: a standalone re-run of the tuned spec lost its rate")
        return 1
    return 0


def main() -> int:
    args = sys.argv[1:]
    serving = "--serving" in args
    if serving:
        args.remove("--serving")
    partitioned = "--partitioned" in args
    if partitioned:
        args.remove("--partitioned")
    decode_tail = "--decode-tail" in args
    if decode_tail:
        args.remove("--decode-tail")
    overload = "--overload" in args
    if overload:
        args.remove("--overload")
    tuner = "--tuner" in args
    if tuner:
        args.remove("--tuner")
    if serving:
        path = args[0] if args else "BENCH_serving.json"
        min_ratio = float(args[1]) if len(args) > 1 else 1.5
        return check_serving(path, min_ratio)
    if partitioned:
        path = args[0] if args else "BENCH_serving.json"
        min_ratio = float(args[1]) if len(args) > 1 else 1.3
        return check_partitioned(path, min_ratio)
    if decode_tail:
        path = args[0] if args else "BENCH_serving.json"
        min_ratio = float(args[1]) if len(args) > 1 else 1.3
        return check_decode_tail(path, min_ratio)
    if overload:
        path = args[0] if args else "BENCH_serving.json"
        min_ratio = float(args[1]) if len(args) > 1 else 1.2
        return check_overload(path, min_ratio)
    if tuner:
        path = args[0] if args else "BENCH_fig4_tvm_compare.json"
        min_ratio = float(args[1]) if len(args) > 1 else 0.5
        return check_tuner(path, min_ratio)
    path = args[0] if args else "BENCH_micro_tpp.json"
    min_ratio = float(args[1]) if len(args) > 1 else 1.3
    return check_dispatch(path, min_ratio)


if __name__ == "__main__":
    sys.exit(main())
