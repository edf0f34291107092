"""Boundary-only tileability decision.

On a tileable region every tiling induces a height function on the
lattice vertices, and the pointwise maximum of these is itself a height
function.  Its restriction to the sites of the sleeve graph satisfies

    g(y) = min over graph neighbours x of  g(x) + alpha(x, y)

with g fixed to the boundary height on boundary sites, because along any
edge of the graph the height can increase by at most alpha.  So g is the
multi-source shortest-path length from the boundary sites, with arcs
into boundary sites dropped.  Every edge but the links joins two
consecutive sites on a lattice line, so g is relaxed in sweeps along the
lines, as Rosenfeld and Pfaltz's two-pass distance transform runs along
rows: per family a forward and a backward segmented min-plus scan, and
one pass over the links.  A check of every edge follows each sweep.  If
an arc into a non-boundary site fails the labels sweep again; otherwise
all such arcs hold, so the labels, each a real path length, are the
shortest path lengths whatever the sweep count, and the failing arcs
are the violated constraints

    -alpha(y, x) <= g(y) - g(x) <= alpha(x, y).

The region is untileable exactly when one fails.  A heap loop finishes
past a cap on sweeps.  ``run_pipeline`` decides for both lattices and
the oracle: an unbalanced boundary (closure defect in the height walk)
exits before any graph is built.  The site graph carries each edge's
two bounds, so no stage evaluates a metric.

Importing this module sets two of glibc's malloc parameters once, through
``mallopt``, for the whole process: the mmap threshold to 32 MiB and the
trim threshold to 64 MiB, the ceilings that glibc's own dynamic rule
reaches once a 32 MiB block is freed.  Under the defaults glibc trims the
heap top when a large decision frees its arrays, and the next decision
faults the same pages in again: 2-6 thousand minor faults per pass of a
large benchmark workload, up to a fifth of its time.  With the
thresholds fixed, arrays under 32 MiB come from the heap and up to
64 MiB of freed heap stays mapped between calls; peak RSS does not rise.
Where the C library has no ``mallopt`` (macOS, Windows) nothing is set.
"""

from __future__ import annotations

import ctypes
import heapq
import json
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from tiler.approxgraph import _NO_BOUND, ApproxGraph, build_graph
from tiler.errors import InternalInconsistency
from tiler.lattice import Point
from tiler.region import RegionBoundary, boundary_height, lazy, parse_boundary
from tiler.subdivision import build_subdivision

_UNREACHED = 1 << 62

# glibc's mallopt parameters, set at import (see above).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_heap() -> bool:
    """Keep freed heap mapped between decisions, where ``mallopt``
    exists.  Whether both thresholds were set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no CDLL(None)
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return mmap_set == trim_set == 1


_HEAP_KEPT = _keep_heap()


class ViolatedPair(NamedTuple):
    """An edge of the site graph whose height gap exceeds the bound."""

    x: Point
    y: Point
    gx: int
    gy: int
    alpha_xy: int
    alpha_yx: int


@dataclass
class TileabilityVerdict:
    """The answer of a decision.  A tileable verdict carries the site
    coordinate rows and the maximal heights as arrays, ``site_heights``;
    ``heights``, the dict from site tuple to height, is built from them on
    first read, and is None on an untileable verdict."""

    tileable: bool
    reason: str  # "ok" | "unbalanced-boundary" | "bad-pair"
    witness: Optional[ViolatedPair]
    p: int
    n: int
    sites: int
    edges: int
    site_heights: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False)

    @lazy
    def heights(self) -> Optional[Dict[Tuple[int, ...], int]]:
        if self.site_heights is None:
            return None
        coords, g = self.site_heights
        return dict(zip(zip(*coords.T.tolist()), g.tolist()))

    def to_json(self) -> str:
        w = None
        if self.reason == "unbalanced-boundary":
            w = {"kind": "unbalanced-boundary"}
        elif self.witness is not None:
            w = {
                "kind": "bad-pair",
                "x": list(self.witness.x),
                "y": list(self.witness.y),
                "gx": self.witness.gx,
                "gy": self.witness.gy,
                "alpha_xy": self.witness.alpha_xy,
                "alpha_yx": self.witness.alpha_yx,
            }
        return json.dumps({
            "tileable": self.tileable,
            "witness": w,
            "p": self.p,
            "n": self.n,
            "sites": self.sites,
            "edges": self.edges,
        })


def _round_cap(n: int) -> int:
    """Sweeps before the heap finish takes over, for n sites.  The
    benchmark's large graphs settle in one sweep, random regions of up to
    3,000 cells in one to three."""
    return 2 * (n.bit_length() + 1)


def compute_gmax(graph: ApproxGraph, bh) -> Tuple[np.ndarray, Optional[ViolatedPair]]:
    """Relax the maximal height over the site graph.

    Returns the int64 array of heights by site id and the violated edge
    whose endpoints come first in sorted site order, if any, with its
    bounds read from the smaller id.  ``bh.heights`` is in the order of
    ``graph.boundary_ids``.  A scan carries a label across a pair with no
    arc only with ``graph.jump`` added, more than the spread of the
    boundary heights plus any path, so such a label never undercuts a
    real one, and a site is unreached when its label is a jump or more
    above the least boundary height.  Heights spread past the int32
    ``_NO_BOUND`` would make pairs with no edge fail, so they raise.
    """
    n = len(graph.coords)
    heights = bh.heights
    low = int(np.minimum.reduce(heights))
    if int(np.maximum.reduce(heights)) - low > graph.jump // 2:
        raise InternalInconsistency("the boundary heights spread past the site graph's jump")
    g = np.empty(n, dtype=np.int64)
    g.fill(_UNREACHED)
    g[graph.boundary_ids] = heights
    fell = graph.boundary_ids
    for _ in range(_round_cap(n)):
        _sweep(graph, g)
        tails, heads, ahead, back = _violated(graph, g)
        fell = tails[graph.interior[heads]]
        if not len(fell):
            break
    if len(fell):
        g = _finish(graph, g, fell)
        tails, heads, ahead, back = _violated(graph, g)

    unreached = (g >= low + graph.jump).nonzero()[0]
    if len(unreached):
        raise InternalInconsistency("site graph left %d sites unreached" % len(unreached))
    if int(np.maximum.reduce(g)) - low >= _NO_BOUND:
        raise InternalInconsistency("the heights spread past the int32 line limits")
    if not len(tails):
        return g, None
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    k = (lo * n + hi).argmin()
    x, y = int(lo[k]), int(hi[k])
    bounds = (ahead[k], back[k]) if tails[k] == x else (back[k], ahead[k])
    return g, ViolatedPair(graph.site(x), graph.site(y), int(g[x]), int(g[y]),
                           *map(int, bounds))


def _sweep(graph: ApproxGraph, g: np.ndarray) -> None:
    """Lower the labels ``g`` in place along every arc once: the link arcs,
    then each line family in turn, on its rows of the stacked arrays, by
    segmented min-plus scans forward and back.  With A and B the sums of
    the arc weights along the order and against it, g[j] becomes the least
    g[i] + A[j] - A[i] over i <= j, then the least g[i] + B[i] - B[j] over
    i >= j; a jump in A or B stops every path that no arc carries."""
    tails, heads, weights = graph.link_arcs
    if len(heads):
        np.minimum.at(g, heads, g[tails] + weights)
    n = len(g)
    for order, ahead, back in zip(graph.order.reshape(-1, n), *graph.sums.reshape(2, -1, n)):
        vals = g[order]
        vals -= ahead
        np.minimum.accumulate(vals, out=vals)
        vals += ahead
        vals += back
        rev = vals[::-1]
        np.minimum.accumulate(rev, out=rev)
        vals -= back
        g[order] = vals


def _violated(graph: ApproxGraph, g: np.ndarray):
    """The arcs whose bound the labels ``g`` break, as the arrays (tails,
    heads, bound along, bound back), each violated edge once; no seam fails."""
    (first, second), (rise, drop), order = graph.links, graph.link_limits, graph.order
    vals = g[order]
    pairs = ((first, second, g[second] - g[first], rise, drop),
             (order[:-1], order[1:], vals[1:] - vals[:-1], *graph.limits))
    found = [[], [], [], []]
    for first, second, gap, rise, drop in pairs:
        up, down = (gap > rise).nonzero()[0], (gap < drop).nonzero()[0]
        if len(up) or len(down):
            for part, a, b in zip(found, (first, second, rise, -drop), (second, first, -drop, rise)):
                part += a[up], b[down]
    if not found[0]:
        return _NONE_VIOLATED
    return [np.concatenate(part) for part in found]


_NONE_VIOLATED = (np.empty(0, dtype=np.int64),) * 4


def _finish(graph: ApproxGraph, g: np.ndarray, fell: np.ndarray) -> np.ndarray:
    """Label-correcting heap loop from the labels ``g``, seeded with the
    sites ``fell`` whose out-arcs may fail, over the only tail-grouped
    arc index, built from the edge list view.  Each pop relaxes the
    site's out-arcs and pushes the heads that fall, so every arc holds
    when the heap empties."""
    tail, head = graph.ends.ravel(), graph.ends[::-1].ravel()
    arcs = graph.interior[head].nonzero()[0]
    arcs = arcs[tail[arcs].argsort(kind="stable")]
    start = np.zeros(len(g) + 1, dtype=np.int64)
    np.bincount(tail[arcs], minlength=len(g)).cumsum(out=start[1:])
    heads, weights = head[arcs].tolist(), graph.bounds.ravel()[arcs].tolist()
    start, labels = start.tolist(), g.tolist()
    heap = [(labels[u], u) for u in fell.tolist()]
    heapq.heapify(heap)
    while heap:
        h, u = heapq.heappop(heap)
        if h > labels[u]:
            continue
        for k in range(start[u], start[u + 1]):
            v, hv = heads[k], h + weights[k]
            if hv < labels[v]:
                labels[v] = hv
                heapq.heappush(heap, (hv, v))
    return np.array(labels, dtype=np.int64)


def run_pipeline(b, area: int, bh, subdivide, build, relax):
    """Decide from a parsed boundary ``b`` with ``area`` faces and its
    boundary heights ``bh`` through the stages ``subdivide(b)``,
    ``build(b, sub)`` and ``relax(graph, bh)``.  Returns the
    verdict and the subdivision, None on an unbalanced boundary.  Entry
    points pass the stages under their own module-level names."""
    if not bh.valid:
        return TileabilityVerdict(False, "unbalanced-boundary", None, b.p, area, 0, 0), None
    sub = subdivide(b)
    graph = build(b, sub)
    g, bad = relax(graph, bh)
    size = (b.p, area, len(graph.coords), graph.edge_count)
    if bad is not None:
        return TileabilityVerdict(False, "bad-pair", bad, *size), sub
    return TileabilityVerdict(True, "ok", None, *size, site_heights=(graph.coords, g)), sub


def decide_tileable(source: Union[str, RegionBoundary]) -> TileabilityVerdict:
    b = parse_boundary(source) if isinstance(source, str) else source
    return run_pipeline(b, b.area, boundary_height(b), build_subdivision, build_graph,
                        compute_gmax)[0]
