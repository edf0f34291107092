"""One benchmark worker: a fresh interpreter that imports tiler, builds
what its timed loop reuses, and runs closed-loop passes over the
operations it reads as JSON on standard input.

Every operation goes through the public API with a string or a cell:
``decide_tileable`` or ``decide_lozenge`` on a boundary word, or
``domino_at`` on a ``TilingOracle`` built in set-up.  Each call starts
when the previous one has returned.  Passes are whole, so every run times
the same mix of operations, and each pass of oracle queries starts from
reset oracles.  The garbage collector stays on.  Results are compared
with the expected codes only after the timed loop.  The answer is one
JSON object on standard output.

The host's speed drifts by tens of per cent over seconds and minutes,
and every wall-clock figure drifts with it.  Between operations, at most
every half second, the worker times a fixed pure-Python kernel that does
not touch tiler; the median of those times is this worker's speed, and
``speed_factor`` scales its times to the speed at which the kernel takes
CALIBRATION_REF_NS.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import random
import statistics
import resource
import sys
import time
import traceback
from array import array

REASONS = ("ok", "unbalanced-boundary", "bad-pair")  # decide codes 0, 1, 2
STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # domino partner offsets, codes 0..3
FAILED = 9
CALIBRATION_REF_NS = 25_000_000
CALIBRATE_EVERY_NS = 500_000_000


def _kernel(n: int = 8000) -> int:
    """Dict, tuple and heap work of the kind tiler does, of fixed size."""
    rnd = random.Random(7)
    d = {}
    for i in range(n):
        d[(rnd.randrange(1000), rnd.randrange(1000))] = i
    h = []
    for k, v in d.items():
        heapq.heappush(h, (v ^ 0x5555, k))
    total = 0
    while h:
        total += heapq.heappop(h)[0]
    return total + sorted(d)[len(d) // 2][0]


class Calibration:
    def __init__(self) -> None:
        _kernel()  # the first run also grows the heap
        self.samples = []
        self.tick()

    def tick(self) -> None:
        """Time the kernel now, with the garbage collector off so that the
        program's live objects do not change the result."""
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            _kernel()
            t1 = time.perf_counter_ns()
        finally:
            gc.enable()
        self.samples.append(t1 - t0)
        self.due = t1 + CALIBRATE_EVERY_NS

    def speed_factor(self) -> float:
        return CALIBRATION_REF_NS / statistics.median(self.samples)


def _call(fn, word):
    return fn(word)


def _decide_pass(ops, lat, res, n, failures, cal, tracer=None):
    clock = time.perf_counter_ns
    call = _call if tracer is None else tracer.span("api", _call)
    for i, (fn, word) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            v = call(fn, word)
        except Exception:
            v = None
            if not failures:
                failures.append(traceback.format_exc())
        t1 = clock()
        lat.append(t1 - t0)
        res.append(REASONS.index(v.reason) if v is not None and v.reason in REASONS else FAILED)
        n += 1
        if t1 >= cal.due:
            cal.tick()
    return n


def _query_pass(ops, lat, res, n, failures, cal, tracer=None):
    clock = time.perf_counter_ns
    for i, (oracle, cell) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            d = oracle.domino_at(cell)
        except Exception:
            d = None
            if not failures:
                failures.append(traceback.format_exc())
        t1 = clock()
        lat.append(t1 - t0)
        off = None if d is None else (d.partner[0] - cell[0], d.partner[1] - cell[1])
        res.append(STEPS.index(off) if off in STEPS else FAILED)
        n += 1
        if t1 >= cal.due:
            cal.tick()
    return n


def _oracle_totals(oracles):
    return {k: sum(o.stats[k] for o in oracles)
            for k in ("valuations", "points_added", "boxes_split")}


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import tiler

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.collect = True

    oracles = []
    if job["regions"] is not None:
        for i, word in enumerate(job["regions"]):
            if tracer is not None:
                tracer.op = -1 - i
            oracles.append(tiler.TilingOracle(word))
        ops = [(oracles[r], (x, y)) for r, x, y in job["ops"]]
        run_pass = _query_pass
    else:
        decide = {"sq": tiler.decide_tileable, "tri": tiler.decide_lozenge}
        ops = [(decide[lattice], word) for lattice, word in job["ops"]]
        run_pass = _decide_pass
    setup_s = time.perf_counter() - t0

    cal = Calibration()
    per_pass = len(ops)
    setup_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = array("q")
    res = bytearray()
    failures = []
    out = {"setup_s": setup_s, "traced_pass_ns": [], "plain_pass_ns": [], "times": {}}
    n = passes = 0
    end = time.perf_counter() + job["seconds"]
    while True:
        # A traced run alternates traced and plain passes; their times
        # give the tracing overhead.
        traced = tracer is not None and passes % 2 == 0
        for o in oracles:
            o.reset()
        start = n
        if traced:
            before = _oracle_totals(oracles)
            n = run_pass(ops, lat, res, n, failures, cal, tracer)
            if tracer.collect:
                spans = list(tracer.spans)
                counts = tracer.take_counts()
                after = _oracle_totals(oracles)
                counts.update({k: after[k] - before[k] for k in after})
                counts.update(cold=tracer.cold_queries, queries=len(ops) if oracles else 0)
                counts["oracle.max_rounds"] = tracer.max_rounds
                out["counts"] = counts
                tracer.collect = False
            for (in_setup, name), acc in tracer.take_times().items():
                key = f"{'setup' if in_setup else 'pass'}|{name}"
                tot = out["times"].setdefault(key, [0, 0, 0])
                for j in range(3):
                    tot[j] += acc[j]
        else:
            if tracer is not None:
                tracer.uninstall()
            n = run_pass(ops, lat, res, n, failures, cal)
            if tracer is not None:
                tracer.install()
        out["traced_pass_ns" if traced else "plain_pass_ns"].append(sum(lat[start:n]))
        passes += 1
        if passes == 1 and oracles:
            # Set-up plus one pass: later passes of queries repeat the same
            # work from reset oracles and would only add the allocator's
            # fragmentation, which grows with the number of passes.
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() >= end and passes >= job["min_passes"]:
            break
    if not oracles:
        # Decisions keep nothing between calls, so memory that grows over
        # the run is tiler's.
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        os.makedirs(os.path.dirname(job["spans_out"]), exist_ok=True)
        tracer.write(job["spans_out"], spans)
        out["absent"] = tracer.absent

    expected = job["expected"]
    out.update({
        "passes": passes,
        "attempted": n,
        "failed": sum(1 for i in range(n) if res[i] != expected[i % per_pass]),
        "first_failure": failures[0] if failures else None,
        "lat_ns": list(lat[:n]) if tracer is None else [],
        "speed_factor": cal.speed_factor(),
        "calibrations": len(cal.samples),
        "maxrss_kb": maxrss_kb,
        "setup_maxrss_kb": setup_maxrss_kb,
    })
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
