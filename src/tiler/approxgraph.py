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

The graph is held in arrays: site ids are the rows of the sorted
coordinate array, and each edge is one (src, dst) pair of ids with
src < dst.  Sites come from one ``np.unique`` over packed coordinate
keys, each diagonal family from one sort of packed (line, x) keys, and
every gap test from one vector lookup in the region's edge index.  The maximal
height difference ``alpha`` between the endpoints is what the solver
relaxes over; it comes from the closed form, so edges store no weights.
Degrees are bounded by construction: at most two neighbours per diagonal
line plus at most four axis legs, and one diagonal is always missing at a
boundary vertex.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from tiler.errors import InternalInconsistency
from tiler.region import RegionBoundary, pack, sorted_unique, unpack
from tiler.subdivision import Subdivision

Site = Tuple[int, ...]


class ApproxGraph:
    """Site graph over integer ids, shared by both lattices.

    ``coords`` is the (n, d) int64 array of site coordinates in sorted
    order; ``src`` and ``dst`` list each edge once, sorted, with
    ``src < dst``; ``boundary_ids`` are the ids of the boundary vertices
    in walk order.  ``sites`` and ``adj`` are tuple-keyed views built on
    first access.
    """

    def __init__(self, coords: np.ndarray, src: np.ndarray, dst: np.ndarray,
                 boundary_ids: np.ndarray):
        self.coords = coords
        self.src = src
        self.dst = dst
        self.boundary_ids = boundary_ids

    @property
    def site_count(self) -> int:
        return len(self.coords)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    def site(self, i: int) -> Site:
        return tuple(self.coords[i].tolist())

    def degrees(self) -> np.ndarray:
        n = len(self.coords)
        return np.bincount(self.src, minlength=n) + np.bincount(self.dst, minlength=n)

    @cached_property
    def sites(self) -> List[Site]:
        return list(zip(*self.coords.T.tolist()))

    @cached_property
    def adj(self) -> Dict[Site, Tuple[Site, ...]]:
        """Each site's neighbours, in sorted order."""
        nbrs: List[List[int]] = [[] for _ in range(len(self.coords))]
        for i, j in zip(self.src.tolist(), self.dst.tolist()):
            nbrs[i].append(j)
            nbrs[j].append(i)
        sites = self.sites
        return {sites[i]: tuple(sites[j] for j in sorted(nb))
                for i, nb in enumerate(nbrs)}


def make_graph(coords: np.ndarray, i: np.ndarray, j: np.ndarray,
               boundary_ids: np.ndarray) -> ApproxGraph:
    """The graph over sorted ``coords`` with edges i--j, each kept once."""
    n = len(coords)
    keys = sorted_unique(np.minimum(i, j) * n + np.maximum(i, j))
    return ApproxGraph(coords, keys // n, keys % n, boundary_ids)


def build_graph(b: RegionBoundary, sub: Subdivision) -> ApproxGraph:
    bx, by = b.xy
    cx, cy = sub.inside_corners()
    keys = pack(np.concatenate([bx, sub.tri_x.ravel(), cx.ravel()]),
                np.concatenate([by, sub.tri_y.ravel(), cy.ravel()]))
    site_keys, ids = np.unique(keys, return_inverse=True)
    xs, ys = unpack(site_keys)
    p = len(bx)
    tri = ids[p:p + sub.tri_x.size].reshape(-1, 3)

    i = [tri[:, 0], tri[:, 0], tri[:, 1]]
    j = [tri[:, 1], tri[:, 2], tri[:, 2]]
    # Sorted by (line, x), sites run along (1, 1) on x - y lines and
    # along (1, -1) on x + y lines.  The first step from (x, y) cuts cell
    # (x, y) or (x, y - 1).
    for line, dy in ((xs - ys, 0), (xs + ys, -1)):
        order = np.argsort(pack(line, xs))
        a, c = order[:-1], order[1:]
        same = line[a] == line[c]
        a, c = a[same], c[same]
        joined = b.contains_cells(xs[a], ys[a] + dy)
        i.append(a[joined])
        j.append(c[joined])

    boundary_ids = ids[:p]
    graph = make_graph(np.stack([xs, ys], axis=1), np.concatenate(i),
                       np.concatenate(j), boundary_ids)
    deg = graph.degrees()
    limit = np.full(len(deg), 8)
    limit[boundary_ids] = 7
    over = np.flatnonzero(deg > limit)
    if len(over):
        s = over[0]
        raise InternalInconsistency(f"site {graph.site(s)} has degree {deg[s]}")
    return graph
