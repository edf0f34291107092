"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py runs/base                # spread of each metric
    python3 perfbench/compare.py runs/ab/a runs/ab/b      # parent (a) against change (b)

A set is a directory of ``<workload>.<seed>.json`` files, each the result
of one run (``perfbench/sweep.py`` writes them).  For every workload and
metric the table gives the median and quartiles of each set and the
spread, (q3 - q1) / median.  The run's detail figures (wall-clock values,
speed factor) follow the metrics, with no verdict.  With two sets it
also gives the gap, (median b - median a) / median a, counts the seeds on
which b beat a, and gives a verdict against the bounds in BENCHMARK.json:

* ``improved``: b wins at least 9 in 10 pairs, ties counting for neither,
  and the medians differ by more than a's quartile distance;
* ``worse``: b's median is worse than a's by more than the bound;
* ``unresolved``: a's spread is wider than the bound, unless every run of
  b is better than every run of a;
* ``unchanged``: otherwise.

Per-layer metrics have no bound, so they get no verdict; for count
metrics the table says whether each seed gave the same count in both
sets.  The exit code is 1 when a run was incorrect or a verdict is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: Path):
    """{workload: {seed: result}}"""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        workload, seed = path.stem.rsplit(".", 1)
        runs.setdefault(workload, {})[int(seed)] = json.loads(path.read_text())
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def gap(a, b) -> float:
    """(median of b - median of a) / median of a; a and b map seed to value."""
    med_a = summary(list(a.values()))[1]
    return (summary(list(b.values()))[1] - med_a) / abs(med_a) if med_a else 0.0


def verdict(a, b, bound: float, lower_is_better: bool):
    """(verdict, pairs b won, pairs) for one metric; a and b map seed to
    value."""
    def better(x, y):
        return x < y if lower_is_better else x > y

    q1a, med_a, q3a = summary(list(a.values()))
    med_b = summary(list(b.values()))[1]
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if better(b[s], a[s]))
    worse_by = (med_b - med_a) if lower_is_better else (med_a - med_b)
    if seeds and wins >= 0.9 * len(seeds) and -worse_by > q3a - q1a:
        return "improved", wins, len(seeds)
    if worse_by > bound * abs(med_a):
        return "worse", wins, len(seeds)
    if spread(list(a.values())) > bound and not all(
            better(y, x) for y in b.values() for x in a.values()):
        return "unresolved", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    sets = [load(Path(p)) for p in argv]
    status = 0

    for workload in sorted(set().union(*sets)):
        print(f"\n== {workload}")
        for i, runs in enumerate(sets):
            bad = [s for s, r in runs.get(workload, {}).items()
                   if not r["correct"] or r["failed"]]
            if bad:
                print(f"   set {'ab'[i]}: incorrect runs at seeds {bad}")
                status = 1
        first = next(iter(sets[0][workload].values()))
        names = list(first["metrics"]) + list(first.get("detail", {}))
        for name in names:
            per_set = [{s: {**r["metrics"], **r.get("detail", {})}[name]["value"]
                        for s, r in runs.get(workload, {}).items()
                        if name in r["metrics"] or name in r.get("detail", {})}
                       for runs in sets]
            if not all(per_set):
                continue
            cols = []
            for values in per_set:
                q1, med, q3 = summary(list(values.values()))
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread(list(values.values())):.3f}")
            line = f"   {name:28s} " + "  |  ".join(cols)
            if name in bounds:
                m = bounds[name]
                line += f"  bound {m['bound']}"
                if len(sets) == 2:
                    v, wins, pairs = verdict(*per_set, m["bound"], m["better"] == "lower")
                    line += f"  gap {gap(*per_set):+.3f}  b won {wins}/{pairs}  {v}"
                    status = 1 if v == "worse" else status
                elif name != "setup_s":
                    line += "  steady" if spread(list(per_set[0].values())) < m["bound"] / 3 else "  WIDE"
            elif name in layers and layers[name]["unit"] == "count" and len(sets) == 2:
                a, b = per_set
                same = all(a[s] == b[s] for s in set(a) & set(b))
                line += "  counts repeat" if same else "  COUNTS DIFFER"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
