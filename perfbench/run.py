"""Run one benchmark workload on the tiler sources of this checkout.

    python3 perfbench/run.py --workload square-large --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from the seed, then starts fresh
worker interpreters one after another; each imports tiler, sets up and
runs whole passes of the workload for its share of ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` one
traced worker gives the per-layer metrics.  Times are scaled to a
reference machine speed measured in each worker (see worker.py); the
wall-clock figures are printed beside them.  Every operation's result is
checked.  The last line of output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the wall-clock figures and the workers' speed factors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Several fresh workers per run average out what differs between
# processes, and each contributes one set-up sample.
WORKERS = 5
# Enough operations that ten samples lie beyond the reported p90.
MIN_OPS = 110
DEADLINE_S = 170
# tiler makes no BLAS calls, but importing numpy starts OpenBLAS's thread
# pool, and how long that takes depends on the other core's load: it moved
# set-up by up to 70 ms between otherwise equal runs.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _worker(job: dict, deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("no time left for another worker")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=left, env=WORKER_ENV)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _quantile(sorted_ns, q: float) -> float:
    """Quantile of a sorted sample, interpolated as statistics.quantiles
    does with its default method."""
    pos = (len(sorted_ns) + 1) * q - 1
    lo = min(max(int(math.floor(pos)), 0), len(sorted_ns) - 1)
    hi = min(lo + 1, len(sorted_ns) - 1)
    return sorted_ns[lo] + (sorted_ns[hi] - sorted_ns[lo]) * (pos - lo)


def _end_to_end(wl: dict, outs: list, say) -> dict:
    """Metrics from the workers' samples.  Times are scaled by each
    worker's speed factor; the wall-clock figures are printed beside
    them."""
    oracle = wl["work"] is None
    passes = sum(out["passes"] for out in outs)
    work = len(wl["ops"]) if oracle else sum(wl["work"])
    stats = {}
    for label, scale in (("", lambda out: out["speed_factor"]), ("wall", lambda out: 1.0)):
        lat = sorted(x * scale(out) for out in outs for x in out["lat_ns"])
        setup = statistics.median(out["setup_s"] * scale(out) for out in outs)
        stats[label] = (lat, _quantile(lat, 0.5), _quantile(lat, 0.9), _quantile(lat, 0.99),
                        passes * work / (sum(lat) / 1e9), setup)
    lat, p50, p90, p99, throughput, setup = stats[""]
    wall = stats["wall"]
    rss_mb = statistics.median(out["maxrss_kb"] for out in outs) / 1024
    setup_rss_mb = statistics.median(out["setup_maxrss_kb"] for out in outs) / 1024

    # Each workload prints the nine names; the operation kind it lacks
    # has no numbers.
    none = "n/a (no such operations in this workload)"
    if oracle:
        tail_name, tail, wall_tail, beyond = "query_us.p99", p99, wall[3], sum(1 for x in lat if x > p99)
        lines = [("query_us.p50", p50 / 1e3, wall[1] / 1e3, "us"),
                 (tail_name, tail / 1e3, wall_tail / 1e3, "us"),
                 ("queries_per_s", throughput, wall[4], "1/s")]
        missing = ("decide_ms.p50", "decide_ms.p90", "decide_edges_per_s")
    else:
        tail_name, tail, wall_tail, beyond = "decide_ms.p90", p90, wall[2], sum(1 for x in lat if x > p90)
        lines = [("decide_ms.p50", p50 / 1e6, wall[1] / 1e6, "ms"),
                 (tail_name, tail / 1e6, wall_tail / 1e6, "ms"),
                 ("decide_edges_per_s", throughput, wall[4], "1/s")]
        missing = ("query_us.p50", "query_us.p99", "queries_per_s")
    for name, value, wall_value, unit in lines:
        count = f"n={len(lat)}" + (f", {beyond} beyond" if name == tail_name else "")
        say(f"{name} = {value:.4f} {unit}  ({count}; wall clock {wall_value:.4f})")
    for name in missing:
        say(f"{name} = {none}")
    say(f"setup_s = {setup:.4f} s  (median of {len(outs)} workers; wall clock {wall[5]:.4f})")
    say(f"peak_rss_mb = {rss_mb:.2f} MB  (median of {len(outs)} workers; "
        f"{setup_rss_mb:.2f} MB after set-up)")
    metrics = {
        "latency_ms.p50": (p50 / 1e6, "ms"),
        "latency_ms.p90": (p90 / 1e6, "ms"),
        "throughput": (throughput, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "wall.latency_ms.p50": (wall[1] / 1e6, "ms"),
        "wall.latency_ms.p90": (wall[2] / 1e6, "ms"),
        "wall.throughput": (wall[4], "1/s"),
        "wall.setup_s": (wall[5], "s"),
        "setup_rss_mb": (setup_rss_mb, "MB"),
    }
    return metrics, detail


def _speed(outs: list, say) -> dict:
    """Print each worker's speed factor; their median as a detail figure."""
    factors = [out["speed_factor"] for out in outs]
    say("speed factor of the workers: " + ", ".join(f"{f:.3f}" for f in factors)
        + f"  ({sum(out['calibrations'] for out in outs)} calibrations)")
    return {"speed_factor": (statistics.median(factors), "ratio")}


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    if not (src / "tiler" / "__init__.py").is_file():
        print(f"perfbench: no tiler sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tiler
    import tracing
    import workloads
    if Path(tiler.__file__).resolve().parent != src / "tiler":
        print(f"perfbench: imported tiler from {tiler.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    def say(line: str) -> None:
        print(f"[{args.workload} seed={args.seed}] {line}")

    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed)
    per_pass = len(wl["ops"])
    say(f"{per_pass} operations per pass, inputs and references built in "
        f"{time.perf_counter() - t0:.1f} s")
    for label in wl["labels"]:
        say(f"  {label}")
    families = {}
    for family, size, agrees in wl["families"]:
        families.setdefault(family, []).append((size, agrees))
    for family, sizes in families.items():
        bad = [s for s, agrees in sizes if not agrees]
        say(f"reference check of {family}: sizes {sizes[0][0]}..{sizes[-1][0]} "
            f"({len(sizes)} sizes) " + (f"DISAGREE at {bad}" if bad else "agree"))

    job = {"root": str(ROOT), "regions": wl.get("regions"), "ops": wl["ops"],
           "expected": wl["expected"], "trace": bool(args.trace),
           "spans_out": str(HERE / "out" / f"{args.workload}.spans.jsonl")}
    workers = 1 if args.trace else WORKERS
    job["seconds"] = args.seconds / workers
    job["min_passes"] = max(2 if args.trace else 1, math.ceil(MIN_OPS / (workers * per_pass)))
    try:
        outs = [_worker(job, deadline) for _ in range(workers)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted = sum(out["attempted"] for out in outs)
    failed = sum(out["failed"] for out in outs)
    for out in outs:
        if out["first_failure"]:
            say("first failure:\n" + out["first_failure"])
    say(f"failed_frac = {failed / attempted:.6f}  ({failed} of {attempted} operations)")

    detail = _speed(outs, say)
    if args.trace:
        metrics = tracing.layer_metrics(outs[0])
        units = tracing.per_layer_units()
        for name in outs[0]["absent"]:
            say(f"layer absent: {name}")
        for name, value in metrics.items():
            say(f"{name} = {value:.6g} {units[name]}")
        metrics = {name: (value, units[name]) for name, value in metrics.items()}
    else:
        metrics, wall = _end_to_end(wl, outs, say)
        detail.update(wall)

    # The line before the result: figures that explain the metrics (the
    # wall-clock values and the speed factors), kept by sweep.py.
    print(json.dumps({"detail": _as_json(detail),
                      "speed_factors": [out["speed_factor"] for out in outs]}))
    correct = failed == 0 and all(agrees for _, _, agrees in wl["families"])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": _as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
