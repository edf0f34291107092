"""Sparse graph of sites over the region subdivision.

Sites are the boundary vertices, the vertices of the kept triangles, and
the corners of the maximal inside squares.  Edges join sites that see
each other along a straight king path staying strongly inside the region
with no other site in between:

* the three sides of every kept triangle (two axis legs and a diagonal
  hypotenuse), which are inside the region by construction, and
* consecutive sites along each diagonal lattice line, when the cell that
  the first unit step of the open segment between them cuts is a region
  cell.  Every boundary vertex is a site and a diagonal line meets the
  boundary only at lattice vertices, so the open segment lies wholly on
  one side of the boundary, and that cell tells which.

The maximal height difference ``alpha`` between the endpoints is what the
solver relaxes over; it comes from the closed form, so edges store no
weights.  Degrees are bounded by construction: at most two neighbours per
diagonal line plus at most four axis legs, and one diagonal is always
missing at a boundary vertex.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from tiler.errors import InternalInconsistency
from tiler.lattice import Point
from tiler.region import RegionBoundary
from tiler.subdivision import Subdivision


class ApproxGraph:
    __slots__ = ("sites", "adj", "edge_count", "boundary")

    def __init__(self, sites: List[Point], adj: Dict[Point, Tuple[Point, ...]],
                 edge_count: int, boundary: Set[Point]):
        self.sites = sites
        self.adj = adj
        self.edge_count = edge_count
        self.boundary = boundary


def collect_sites(b: RegionBoundary, sub: Subdivision) -> List[Point]:
    sites = set(b.vertex_set)
    for tri in sub.triangles:
        sites.update(tri.verts)
    for level, key in sub.inside_squares():
        sites.update(sub.corners_xy(level, key))
    return sorted(sites)


def build_graph(b: RegionBoundary, sub: Subdivision) -> ApproxGraph:
    sites = collect_sites(b, sub)
    neighbors: Dict[Point, Set[Point]] = {s: set() for s in sites}

    def connect(x: Point, y: Point) -> None:
        neighbors[x].add(y)
        neighbors[y].add(x)

    for tri in sub.triangles:
        apex, c1, c2 = tri.verts
        connect(apex, c1)
        connect(apex, c2)
        connect(c1, c2)

    lines_v: Dict[int, List[Point]] = {}
    lines_u: Dict[int, List[Point]] = {}
    for s in sites:
        lines_v.setdefault(s[0] - s[1], []).append(s)
        lines_u.setdefault(s[0] + s[1], []).append(s)
    # Sorted by x, sites run along (1, 1) on lines_v and along (1, -1) on
    # lines_u; the first step from (x, y) cuts cell (x, y) or (x, y - 1).
    contains = b.contains_cell
    for line, dy in ((lines_v, 0), (lines_u, -1)):
        for pts in line.values():
            pts.sort()
            for w1, w2 in zip(pts, pts[1:]):
                if contains((w1[0], w1[1] + dy)):
                    connect(w1, w2)

    edge_count = 0
    adj: Dict[Point, Tuple[Point, ...]] = {}
    for s in sites:
        nbrs = neighbors[s]
        if len(nbrs) > 8 or (s in b.vertex_set and len(nbrs) > 7):
            raise InternalInconsistency(f"site {s} has degree {len(nbrs)}")
        adj[s] = tuple(sorted(nbrs))
        edge_count += len(nbrs)
    return ApproxGraph(sites, adj, edge_count // 2, set(b.vertex_set))
