"""Sparse graph of sites over the region subdivision, for both lattices.

On the square lattice, sites are the boundary vertices, the vertices of
the kept triangles, and the corners of the maximal inside squares.
Edges join sites that see each other along a straight king path staying
strongly inside the region with no other site in between:

* the two axis legs of every kept triangle, inside the region by
  construction, every boundary edge among them, and
* consecutive sites along each diagonal lattice line whose open segment
  is inside, every triangle hypotenuse among them.  A diagonal line
  meets the boundary only at boundary vertices, all sites, so the open
  segment lies on one side: inside when either end is interior (not a
  boundary vertex), and otherwise when the cell that its first unit step
  cuts is a region cell.

``join_sites`` builds the graph of either lattice in arrays and makes
each edge once, so no sort removes duplicates: site ids are the ranks of
the sorted distinct packed coordinate keys, and one ``np.searchsorted``
gives those of the boundary vertices and of the pairs joined outright.
Each line family comes from one sort of packed (line, position) keys;
only its gaps between two boundary vertices get a membership search, a
vector lookup of one flank of the first step in the region's index.
Edges store no weights: the solver takes the bound on the height
difference from the closed form.  Degrees are bounded by construction,
on squares by two neighbours per diagonal line plus four axis legs, with
one diagonal always missing at a boundary vertex.
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
    order; ``src`` and ``dst`` list each edge once, with ``src < dst``,
    in construction order; ``boundary_ids`` are the ids of the boundary
    vertices in walk order.  ``sites`` and ``adj`` are tuple-keyed views
    built on first access.
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


def join_sites(keys: np.ndarray, p: int, links: np.ndarray, decode, families, inside,
               bounds: Tuple[int, int]) -> ApproxGraph:
    """The site graph of either lattice over the packed candidate keys,
    the p boundary vertices in walk order first.  ``decode`` maps the
    sorted distinct keys to the site coordinates and their plane
    coordinates (u, v).  ``links`` is a (2, L) array of the positions in
    ``keys`` of the pairs joined outright.  Each family is a direction
    (du, dv) along which u grows, or v when du = 0, and one flank of its
    unit step: an offset (fu, fv) plus any further arguments of the
    membership test ``inside(u, v, ...)``.  Consecutive sites on a line
    are joined when either is not a boundary vertex, or else when that
    flank of the first step is inside.
    Degrees are at most ``bounds[0]``, ``bounds[1]`` on the boundary."""
    site_keys = sorted_unique(keys)
    coords, u, v = decode(site_keys)
    ids = np.searchsorted(site_keys, keys[:max(p, links.max(initial=-1) + 1)])
    on_boundary = np.zeros(len(coords), dtype=bool)
    on_boundary[ids[:p]] = True
    i, j = [ids[links[0]]], [ids[links[1]]]
    for (du, dv), (fu, fv, *rest) in families:
        line = dv * u - du * v
        order = np.argsort(pack(line, u if du else v))
        a, c = order[:-1], order[1:]
        same = line[a] == line[c]
        a, c = a[same], c[same]
        both = on_boundary[a] & on_boundary[c]
        joined = ~both
        joined[both] = inside(u[a[both]] + fu, v[a[both]] + fv, *rest)
        i.append(a[joined])
        j.append(c[joined])

    i, j = np.concatenate(i), np.concatenate(j)
    graph = ApproxGraph(coords, np.minimum(i, j), np.maximum(i, j), ids[:p])
    deg = graph.degrees()
    limit = np.full(len(deg), bounds[0])
    limit[on_boundary] = bounds[1]
    over = np.flatnonzero(deg > limit)
    if len(over):
        s = over[0]
        raise InternalInconsistency(f"site {graph.site(s)} has degree {deg[s]}, "
                                    f"bound is {limit[s]}")
    return graph


def _decode_xy(site_keys: np.ndarray):
    xs, ys = unpack(site_keys)
    return np.stack([xs, ys], axis=1), xs, ys


# The diagonal line families: the first step from (x, y) along (1, 1)
# cuts cell (x, y), and along (1, -1) cell (x, y - 1).
_DIAGONALS = (((1, 1), (0, 0)), ((1, -1), (0, -1)))


def build_graph(b: RegionBoundary, sub: Subdivision) -> ApproxGraph:
    bx, by = b.xy
    tx, ty, lone = sub.tri_x, sub.tri_y, ~sub.next_kept
    cx, cy = sub.inside_corners()
    keys = pack(np.concatenate([bx, tx[:, 0], tx[:, 1], tx[lone, 2], cx.ravel()]),
                np.concatenate([by, ty[:, 0], ty[:, 1], ty[lone, 2], cy.ravel()]))
    p, t = len(bx), len(tx)
    apex = p + np.concatenate([np.arange(t), np.flatnonzero(lone)])
    links = np.stack([apex, np.arange(p + t, p + t + len(apex))])
    return join_sites(keys, p, links, _decode_xy, _DIAGONALS, b.contains_cells, (8, 7))
