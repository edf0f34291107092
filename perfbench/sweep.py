"""Make a set of benchmark runs, or paired sets for two checkouts.

    python3 perfbench/sweep.py --out runs/base --seeds 1-10
    python3 perfbench/sweep.py --out runs/ab --seeds 1-10 --checkout ../parent --checkout .

Each run is ``perfbench/run.py`` with ``run_seconds`` from BENCHMARK.json,
started in the checkout it measures; its result line, with the
``detail`` and ``speed_factors`` of the line before it, goes to
``<out>/<workload>.<seed>.json`` and the whole output next to it as
``.log``.  With two checkouts the runs go to ``<out>/a`` and ``<out>/b``,
seed by seed, and the side that runs first alternates.  Both checkouts
must hold the same benchmark files, so both sides are measured with the
same benchmark code.  Read the sets with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _bench_files(checkout: Path):
    return {p.name: p.read_bytes() for p in sorted((checkout / "perfbench").glob("*.py"))}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checkout", type=Path, action="append",
                    help="checkout to measure (default: this one); give two for pairs")
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in (args.checkout or [HERE.parent])]
    if len(checkouts) > 2:
        ap.error("at most two checkouts")
    if len(checkouts) == 2 and _bench_files(checkouts[0]) != _bench_files(checkouts[1]):
        ap.error("the two checkouts hold different benchmark files")
    sides = ["a", "b"] if len(checkouts) == 2 else [""]

    failures = 0
    for seed in _seeds(args.seeds):
        for workload in (w["name"] for w in spec["workloads"]):
            order = list(zip(sides, checkouts))
            if seed % 2:
                order.reverse()
            for side, checkout in order:
                out_dir = args.out / side
                out_dir.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
                stem = f"{workload}.{seed}"
                (out_dir / f"{stem}.log").write_text(proc.stdout + proc.stderr)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{side or '-'} {workload} seed {seed}: exit {proc.returncode}",
                          file=sys.stderr)
                    failures += 1
                    continue
                result = json.loads(lines[-1])
                if len(lines) > 1 and lines[-2].startswith('{"detail"'):
                    result.update(json.loads(lines[-2]))
                (out_dir / f"{stem}.json").write_text(json.dumps(result) + "\n")
                print(f"{side or '-'} {workload} seed {seed}: {lines[-1][:120]}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
