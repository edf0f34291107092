"""Boundary-only tileability decision.

On a tileable region every tiling induces a height function on the
lattice vertices, and the pointwise maximum of these is itself a height
function.  Its restriction to the sites of the sleeve graph satisfies

    g(y) = min over graph neighbours x of  g(x) + alpha(x, y)

with g fixed to the boundary height on boundary sites, because along any
edge of the graph the height can increase by at most alpha.  So g is the
multi-source shortest-path length from the boundary sites over integer
site ids, with arcs into boundary sites dropped.  It is computed in
vector rounds of label correction, driven by the frontier as in Meyer
and Sanders' delta-stepping: each round gathers, in a few numpy kernels,
only the arcs out of the sites whose label fell in the round before.
The rounds needed grow with the quadtree depth, not with p.  A heap
loop remains only as a capped finish for a graph that needs more rounds
than the cap.  Then every edge constraint

    -alpha(y, x) <= g(y) - g(x) <= alpha(x, y)

is checked in one vector pass, and the region is untileable exactly when
one fails.  ``run_pipeline`` decides for both lattices and the oracle:
an unbalanced boundary (closure defect in the height walk) exits before
any graph is built, and each lattice passes its stages.  The site graph
carries each edge's two bounds, read off the walk and the line families,
so no stage evaluates a metric.

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
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from tiler.approxgraph import ApproxGraph, build_graph
from tiler.errors import InternalInconsistency
from tiler.lattice import Point
from tiler.region import RegionBoundary, boundary_height, parse_boundary
from tiler.subdivision import build_subdivision

# A heap entry packs (height, site id) into one int: height above the
# low 32 bits, so entries order by height first.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1
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

    @cached_property
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
    """Vector rounds before the heap finish takes over, for n sites.  The
    rounds needed grow with the quadtree depth, about log2 n."""
    return 2 * (n.bit_length() + 1)


def compute_gmax(graph: ApproxGraph, bh) -> Tuple[np.ndarray, Optional[ViolatedPair]]:
    """Relax the maximal height over the site graph.

    Returns the int64 array of heights indexed by site id and the
    violated edge constraint whose endpoints come first in sorted site
    order, if any: the least (min id, max id) among the violated edges,
    with its bounds read from the smaller id.
    ``bh.heights`` is the int64 array of the boundary heights in walk
    order, the order of ``graph.boundary_ids``.  The per-edge height
    bounds are the graph's own, ``graph.bounds``, which the join made
    with the lattice's metric: no coordinate row is gathered here.

    The arcs into non-boundary sites are sorted by tail once, with one
    in-place sort of the keys ``tail << b | arc``, so site u's out-arcs are
    the slice ``start[u]:start[u + 1]``.  Round k gathers the out-arcs of
    the sites whose label fell in round k - 1 (the boundary sites for
    k = 1), takes ``g(tail) + w`` at the labels of round k - 1 and the
    least per head with ``np.minimum.at`` into a copy of the labels; the
    sites whose label dropped are the next frontier.  No round scans all
    arcs: on the benchmark regions the arcs gathered over all 7-16 rounds
    add up to 1.0-1.6 times the kept arcs.  When no label falls every arc
    holds, so the labels are the shortest path lengths.  After
    ``_round_cap(n)`` rounds without that fixed point, ``_finish`` runs
    the heap loop from the labels as they are, seeded with the sites that
    fell in the last round.  The finish is exact: every label is the
    length of a real path from the boundary, and every arc out of a
    reached site not seeded was relaxed at the site's current label and
    still holds, since labels only fall.  Arcs out of unreached sites are
    never relaxed, so the ``_UNREACHED`` label stands for infinity.
    """
    (first, second), (rise, fall) = graph.ends, graph.bounds  # on g(second) - g(first), back
    n = len(graph.coords)

    # Arc k < E runs along edge k, arc E + k against it: the rows of
    # ``ends`` and ``bounds`` read in order.
    tail, head = graph.ends.ravel(), graph.ends[::-1].ravel()
    fixed = np.zeros(n, dtype=bool)
    fixed[graph.boundary_ids] = True
    keep = (~fixed[head]).nonzero()[0]
    b = len(tail).bit_length()
    if (n - 1).bit_length() + b > 63:
        raise InternalInconsistency(f"{n} sites and {len(tail)} arcs overflow the arc keys")
    # In place, so that at most three 2E-sized arrays are live at once.
    keys = tail[keep]
    keys <<= b
    keys |= keep
    del keep
    keys.sort()
    deg = np.bincount(keys >> b, minlength=n)
    keys &= (1 << b) - 1  # the arcs, sorted by tail
    head, weight = head[keys], graph.bounds.ravel()[keys]
    del keys
    start = np.zeros(n + 1, dtype=np.int64)
    deg.cumsum(out=start[1:])

    g = np.empty(n, dtype=np.int64)
    g.fill(_UNREACHED)
    g[graph.boundary_ids] = bh.heights
    fell = graph.boundary_ids
    for _ in range(_round_cap(n)):
        if not len(fell):
            break
        out = deg[fell]
        ends = out.cumsum()
        arcs = (start[fell] - ends + out).repeat(out) + np.arange(ends[-1])
        lowered = g.copy()
        np.minimum.at(lowered, head[arcs], g[fell].repeat(out) + weight[arcs])
        fell = (lowered < g).nonzero()[0]
        g = lowered
    if len(fell):
        g = _finish(g, fell, start, head, weight)

    unreached = (g == _UNREACHED).nonzero()[0]
    if len(unreached):
        raise InternalInconsistency("site graph left %d sites unreached" % len(unreached))

    gap = g[second] - g[first]
    bad = ((gap > rise) | (-gap > fall)).nonzero()[0]
    if not len(bad):
        return g, None
    lo, hi = np.minimum(first[bad], second[bad]), np.maximum(first[bad], second[bad])
    k = (lo * n + hi).argmin()
    e, x, y = bad[k], int(lo[k]), int(hi[k])
    bounds = (rise[e], fall[e]) if first[e] == x else (fall[e], rise[e])
    return g, ViolatedPair(graph.site(x), graph.site(y), int(g[x]), int(g[y]),
                           *map(int, bounds))


def _finish(g: np.ndarray, fell: np.ndarray, start: np.ndarray, head: np.ndarray,
            weight: np.ndarray) -> np.ndarray:
    """Label-correcting heap loop from the labels ``g``, seeded with the
    sites ``fell`` whose out-arcs may not hold, over the arcs sorted by
    tail (``start`` as in ``compute_gmax``).  Each pop relaxes the site's
    out-arcs and pushes the heads that fall, so every arc holds when the
    heap empties."""
    heads = head.tolist()
    weights = weight.tolist()
    start = start.tolist()
    labels = g.tolist()

    heap = [(labels[i] << _ID_BITS) | i for i in fell.tolist()]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        entry = pop(heap)
        h = entry >> _ID_BITS
        u = entry & _ID_MASK
        if h > labels[u]:
            continue
        for k in range(start[u], start[u + 1]):
            v = heads[k]
            hv = h + weights[k]
            if hv < labels[v]:
                labels[v] = hv
                push(heap, (hv << _ID_BITS) | v)
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
    size = (b.p, area, graph.site_count, graph.edge_count)
    if bad is not None:
        return TileabilityVerdict(False, "bad-pair", bad, *size), sub
    return TileabilityVerdict(True, "ok", None, *size, site_heights=(graph.coords, g)), sub


def decide_tileable(source: Union[str, RegionBoundary]) -> TileabilityVerdict:
    b = parse_boundary(source) if isinstance(source, str) else source
    return run_pipeline(b, b.area, boundary_height(b), build_subdivision, build_graph,
                        compute_gmax)[0]
