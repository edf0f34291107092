"""Boundary-only tileability decision.

On a tileable region every tiling induces a height function on the
lattice vertices, and the pointwise maximum of these is itself a height
function.  Its restriction to the sites of the sleeve graph satisfies

    g(y) = min over graph neighbours x of  g(x) + alpha(x, y)

with g fixed to the boundary height on boundary sites, because along any
edge of the graph the height can increase by at most alpha.  We compute g
by a multi-source shortest-path relaxation over integer site ids (one
heap, all boundary sites seeded at once, arcs into boundary sites
dropped), then check every edge constraint

    -alpha(y, x) <= g(y) - g(x) <= alpha(x, y)

in one vector pass, and report the region untileable exactly when one
fails.  An unbalanced boundary word (closure defect in the height walk)
is rejected before any graph is built.  Both lattices use this solver;
each passes the array form of its metric.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from tiler.approxgraph import ApproxGraph, build_graph
from tiler.errors import InternalInconsistency
from tiler.lattice import Point, alpha_array
from tiler.region import RegionBoundary, boundary_height, parse_boundary
from tiler.subdivision import build_subdivision

# A heap entry packs (height, site id) into one int: height above the
# low 32 bits, so entries order by height first.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1
_UNREACHED = 1 << 62


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
    tileable: bool
    reason: str  # "ok" | "unbalanced-boundary" | "bad-pair"
    witness: Optional[ViolatedPair]
    p: int
    n: int
    sites: int
    edges: int
    heights: Optional[Dict[Point, int]] = None

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


def compute_gmax(graph: ApproxGraph, bh, metric=alpha_array,
                 ) -> Tuple[List[int], Optional[ViolatedPair]]:
    """Relax the maximal height over the site graph.

    Returns the heights indexed by site id and the violated edge
    constraint whose endpoints come first in sorted site order, if any.
    ``bh.heights`` lists the boundary vertices in walk order, as
    ``graph.boundary_ids`` does.  ``metric(x, y)`` is the array form of
    the directed per-pair height bound over (m, d) coordinate arrays; the
    default is the square-lattice one, the lozenge pipeline passes its
    own.
    """
    coords, src, dst = graph.coords, graph.src, graph.dst
    n = len(coords)
    rise = metric(coords[src], coords[dst])  # bound on g(dst) - g(src)
    fall = metric(coords[dst], coords[src])  # bound on g(src) - g(dst)

    fixed = np.zeros(n, dtype=bool)
    fixed[graph.boundary_ids] = True
    tail = np.concatenate([src, dst])
    head = np.concatenate([dst, src])
    weight = np.concatenate([rise, fall])
    keep = ~fixed[head]
    tail, head, weight = tail[keep], head[keep], weight[keep]
    order = np.argsort(tail)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=start[1:])
    heads = head[order].tolist()
    weights = weight[order].tolist()
    start = start.tolist()

    g = [_UNREACHED] * n
    heap = []
    for i, h in zip(graph.boundary_ids.tolist(), bh.heights.values()):
        g[i] = h
        heap.append((h << _ID_BITS) | i)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        entry = pop(heap)
        h = entry >> _ID_BITS
        u = entry & _ID_MASK
        if h > g[u]:
            continue
        for k in range(start[u], start[u + 1]):
            v = heads[k]
            hv = h + weights[k]
            if hv < g[v]:
                g[v] = hv
                push(heap, (hv << _ID_BITS) | v)

    unreached = g.count(_UNREACHED)
    if unreached:
        raise InternalInconsistency("site graph left %d sites unreached" % unreached)

    ga = np.array(g, dtype=np.int64)
    gap = ga[dst] - ga[src]
    bad = np.flatnonzero((gap > rise) | (-gap > fall))
    if not len(bad):
        return g, None
    e = bad[0]
    x, y = int(src[e]), int(dst[e])
    return g, ViolatedPair(graph.site(x), graph.site(y), g[x], g[y],
                           int(rise[e]), int(fall[e]))


def decide_tileable(source: Union[str, RegionBoundary]) -> TileabilityVerdict:
    b = parse_boundary(source) if isinstance(source, str) else source
    bh = boundary_height(b)
    if not bh.valid:
        return TileabilityVerdict(False, "unbalanced-boundary", None,
                                  b.p, b.area, 0, 0)
    sub = build_subdivision(b)
    graph = build_graph(b, sub)
    g, bad = compute_gmax(graph, bh)
    if bad is not None:
        return TileabilityVerdict(False, "bad-pair", bad,
                                  b.p, b.area, graph.site_count, graph.edge_count)
    return TileabilityVerdict(True, "ok", None,
                              b.p, b.area, graph.site_count, graph.edge_count,
                              heights=dict(zip(graph.sites, g)))
