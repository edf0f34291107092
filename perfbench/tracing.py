"""Spans around the layer functions of tiler, for the traced run.

Each layer function is wrapped at the name its caller looks it up by
(``decide_tileable`` finds ``build_subdivision`` in ``tiler.solver``, the
oracle in ``tiler.oracle``, and so on), so nothing inside the program
changes.  A span is (name, start ns, end ns, parent span index, operation
id) and stays in memory until the worker writes the spans out.  A name
that no longer exists after a refactor marks its layer absent; its
metrics read 0 and ``trace.absent_layers`` counts it.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name).  Span names are "<module>" or
# "<module>.<stage>" after the tiler module the work belongs to.
WRAPPED = (
    ("tiler.solver", "parse_boundary", "region.parse"),
    ("tiler.solver", "boundary_height", "region.height"),
    ("tiler.solver", "build_subdivision", "subdivision"),
    ("tiler.solver", "build_graph", "approxgraph"),
    ("tiler.solver", "compute_gmax", "solver"),
    ("tiler.oracle", "parse_boundary", "region.parse"),
    ("tiler.oracle", "boundary_height", "region.height"),
    ("tiler.oracle", "build_subdivision", "subdivision"),
    ("tiler.oracle", "build_graph", "approxgraph"),
    ("tiler.oracle", "compute_gmax", "solver"),
    ("tiler.lozenge", "parse_lozenge", "lozenge.parse"),
    ("tiler.lozenge", "lozenge_boundary_height", "lozenge.height"),
    ("tiler.lozenge", "build_tri_subdivision", "lozenge.subdivision"),
    ("tiler.lozenge", "build_tri_graph", "lozenge.graph"),
    ("tiler.lozenge", "compute_gmax", "solver"),
    ("tiler.oracle", "TilingOracle.__init__", "oracle.init"),
    ("tiler.oracle", "TilingOracle.domino_at", "oracle.domino_at"),
    ("tiler.oracle", "TilingOracle.height_at", "oracle.height_at"),
)
API = "api"  # the benchmark's own span around each decide_* call

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_units() -> Dict[str, str]:
    """{metric: unit} of the per-layer metrics, in BENCHMARK.json's order."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}


# Self time (ms) of these spans gives the "<layer>_ms" metrics.
SELF_MS = {
    "region.parse_ms": "region.parse",
    "region.height_ms": "region.height",
    "subdivision.ms": "subdivision",
    "approxgraph.ms": "approxgraph",
    "solver.ms": "solver",
    "lozenge.parse_ms": "lozenge.parse",
    "lozenge.height_ms": "lozenge.height",
    "lozenge.subdivision_ms": "lozenge.subdivision",
    "lozenge.graph_ms": "lozenge.graph",
    "api.self_ms": API,
}


COUNTED = {"region.parse", "subdivision", "approxgraph", "solver", "lozenge.subdivision"}


def _counts_of(name: str, args: tuple, result, c: Dict[str, float]) -> None:
    """Add the structure counters one layer call produced."""
    if name == "region.parse":
        c["region.edges"] += result.p
    elif name == "subdivision":
        c["subdivision.crossed_squares"] += sum(result.si_census)
        c["subdivision.inside_squares"] += len(result.inside_squares())
        c["subdivision.triangles"] += len(result.triangles)
    elif name == "approxgraph":
        c["approxgraph.sites"] += len(result.sites)
        c["approxgraph.edges"] += result.edge_count
        degree = max((len(n) for n in result.adj.values()), default=0)
        c["approxgraph.max_degree"] = max(c["approxgraph.max_degree"], degree)
    elif name == "solver":
        c["solver.settled_sites"] += len(result[0])
        c["solver.sites"] += len(args[0].sites)
    elif name == "lozenge.subdivision":
        c["lozenge.pieces"] += len(result.pieces)


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value), or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Records spans while installed; ``collect`` also keeps each layer
    call's arguments and result so counters can be read off afterwards,
    outside every span."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, int, int, int, int]]] = []
        self.stack: List[int] = []
        self.op = -1
        self.collect = False
        self.calls: List[Tuple[str, tuple, object]] = []
        self.max_rounds = 0
        self.cold_queries = 0
        self.absent = sorted({name for module, path, name in WRAPPED
                              if _resolve(module, path) is None})
        self._saved: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, tracer = self.spans, self.stack, self
        counted = name in COUNTED

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if counted and tracer.collect:
                tracer.calls.append((name, args, result))
            return result
        return traced

    def _oracle_counters(self, name: str, fn: Callable) -> Callable:
        """Count, around a query span, the queries that refined the oracle
        and the most refinement rounds one height query took."""
        tracer = self

        def query(oracle, arg):
            before = oracle.stats["valuations"]
            out = fn(oracle, arg)
            if tracer.collect and oracle.stats["valuations"] != before:
                if name == "oracle.domino_at":
                    tracer.cold_queries += 1
                else:
                    tracer.max_rounds = max(tracer.max_rounds, oracle.stats["last_rounds"])
            return out
        return query

    def install(self) -> None:
        for module, path, name in WRAPPED:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, fn = found
            self._saved.append((owner, attr, fn))
            wrapped = self.span(name, fn)
            if name in ("oracle.domino_at", "oracle.height_at"):
                wrapped = self._oracle_counters(name, wrapped)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def take_counts(self) -> Dict[str, float]:
        """Counters of the calls collected so far; clears them."""
        c: Dict[str, float] = {name: 0 for name, unit in per_layer_units().items()
                               if unit == "count"}
        c["solver.sites"] = 0
        for name, args, result in self.calls:
            try:
                _counts_of(name, args, result, c)
            except (AttributeError, TypeError, IndexError, KeyError):
                if name not in self.absent:
                    self.absent.append(name)
        self.calls.clear()
        return c

    def take_times(self) -> Dict[Tuple[bool, str], List[int]]:
        """Per (set-up span?, span name): [self ns, total ns, span count]
        of the spans recorded so far; clears them.  Set-up operations have
        negative ids."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: Dict[Tuple[bool, str], List[int]] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            dur = span[2] - span[1]
            acc = out.setdefault((span[4] < 0, span[0]), [0, 0, 0])
            acc[0] += dur - child_ns[i]
            acc[1] += dur
            acc[2] += 1
        self.spans.clear()
        return out

    def write(self, path: str, spans: List[Tuple[str, int, int, int, int]]) -> None:
        with open(path, "w") as f:
            for span in spans:
                if span is not None:
                    f.write(json.dumps(span) + "\n")


def layer_metrics(out: Dict) -> Dict[str, float]:
    """Per-layer metrics from a traced worker's answer.  Times of work done
    in set-up (oracle construction) count once; times of the timed loop
    are per traced pass; both are scaled by the worker's speed factor.
    Counts come from set-up plus the first traced pass, so they repeat
    exactly for a given seed."""
    passes = len(out["traced_pass_ns"])
    times = out["times"]
    speed = out["speed_factor"]

    def ms(name: str, col: int = 0) -> float:
        setup = times.get(f"setup|{name}", (0, 0, 0))[col]
        per_pass = times.get(f"pass|{name}", (0, 0, 0))[col] / passes
        return (setup + per_pass) * speed / 1e6

    c = out["counts"]
    units = per_layer_units()
    m: Dict[str, float] = {metric: ms(name) for metric, name in SELF_MS.items()}
    for name, unit in units.items():
        if unit == "count" and name in c:
            m[name] = c[name]
    m["solver.settled_frac"] = c["solver.settled_sites"] / c["solver.sites"] if c["solver.sites"] else 0.0
    m["oracle.init_ms"] = ms("oracle.init", col=1)
    queries = c["queries"]
    query = times.get("pass|oracle.domino_at", (0, 0, 0))
    m["oracle.query_us"] = query[1] * speed / query[2] / 1e3 if query[2] else 0.0
    m["oracle.points_added"] = c["points_added"]
    m["oracle.boxes_split"] = c["boxes_split"]
    m["oracle.valuations_per_query"] = c["valuations"] / queries if queries else 0.0
    m["oracle.cold_query_frac"] = c["cold"] / queries if queries else 0.0
    traced = sum(out["traced_pass_ns"]) / passes
    plain = sum(out["plain_pass_ns"]) / len(out["plain_pass_ns"])
    m["trace.overhead_frac"] = traced / plain - 1.0
    m["trace.absent_layers"] = len(out["absent"])
    return {name: m[name] for name in units}
