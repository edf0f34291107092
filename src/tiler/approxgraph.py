"""Sparse graph of sites over the region subdivision, for both lattices.

On the square lattice, sites are the boundary vertices, the vertices of
the kept triangles, and the corners of the maximal inside squares.
Edges join sites that see each other along a straight king path staying
strongly inside the region with no other site in between:

* the two axis legs of every kept triangle, inside the region by
  construction: the boundary edges, and the inner legs that
  ``Subdivision.inner_legs`` reads off the corner masks, and
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
Each line family comes from one sort of packed (line, position) keys.
Its gaps between two boundary vertices test one flank of the first step,
a cell or face around the first end: one bit of that vertex's corner
mask, which the walk's turn there gives.  So the graph build makes no
membership search.  Each edge stores its two bounds on the height
difference, so neither the join nor the solver gathers coordinate rows:
a pair joined outright gets them from its caller, who reads them off the
walk, and a line join its length times the family's unit-step bounds,
since both metrics are linear along a lattice line.  Degrees are bounded
by construction, on squares by two neighbours per diagonal line plus
four axis legs, with one diagonal always missing at a boundary vertex.
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
    order; ``ends`` is the (2, E) int64 array whose rows (first, second)
    list each edge once, oriented as built; ``bounds`` is the (2, E) int64
    array whose rows (rise, fall) are each edge's bounds on
    g(second) - g(first) and on g(first) - g(second); ``boundary_ids`` are
    the ids of the boundary vertices in walk order.
    ``src`` and ``dst`` (each edge as src < dst), ``sites`` and ``adj`` are
    views built on first access, for the tests and the benchmark's
    counters; the decision never builds them.
    """

    def __init__(self, coords: np.ndarray, ends: np.ndarray, bounds: np.ndarray,
                 boundary_ids: np.ndarray):
        self.coords = coords
        self.ends = ends
        self.bounds = bounds
        self.boundary_ids = boundary_ids

    @property
    def site_count(self) -> int:
        return len(self.coords)

    @property
    def edge_count(self) -> int:
        return self.ends.shape[1]

    def site(self, i: int) -> Site:
        return tuple(self.coords[i].tolist())

    def degrees(self) -> np.ndarray:
        return np.bincount(self.ends.ravel(), minlength=len(self.coords))

    @cached_property
    def src(self) -> np.ndarray:
        return np.minimum(*self.ends)

    @cached_property
    def dst(self) -> np.ndarray:
        return np.maximum(*self.ends)

    @cached_property
    def sites(self) -> List[Site]:
        return list(zip(*self.coords.T.tolist()))

    @cached_property
    def adj(self) -> Dict[Site, Tuple[Site, ...]]:
        """Each site's neighbours, in sorted order."""
        nbrs: List[List[int]] = [[] for _ in range(len(self.coords))]
        for i, j in zip(*self.ends.tolist()):
            nbrs[i].append(j)
            nbrs[j].append(i)
        sites = self.sites
        return {sites[i]: tuple(sites[j] for j in sorted(nb))
                for i, nb in enumerate(nbrs)}


def join_sites(keys: np.ndarray, p: int, links: np.ndarray, link_bounds: np.ndarray, decode,
               families, masks: np.ndarray, max_degree: Tuple[int, int]) -> ApproxGraph:
    """The site graph of either lattice over the packed candidate keys,
    the p boundary vertices in walk order first, with their corner masks
    ``masks``.  ``decode`` maps the sorted distinct keys to the site
    coordinates and their plane coordinates (u, v).  ``links`` is a (2, L)
    array of the positions in ``keys`` of the pairs joined outright, and
    ``link_bounds`` the (2, L) array of their bounds, forward and back.  Each
    family is a direction (du, dv) along which u grows, or v when du = 0,
    the bit of the corner mask that holds one flank of its unit step, and
    the pair of bounds of that step, forward and back.
    Consecutive sites on a line are joined when either is not a boundary
    vertex, or else when that flank of the first step is inside: a bit of
    the first site's mask, read with no membership search.  Interior sites
    have every bit set, so the bit test also passes when the first site is
    interior.
    Each edge carries its two bounds.  A link's are ``link_bounds``.  A
    family join k unit steps long gets k times the family's unit-step
    bounds, with no rows gathered.  That is exact because both metrics are
    linear along a lattice line.  On squares k diagonal steps have bound 2k both ways:
    ``alpha`` is twice the Chebyshev distance when the two parts of the
    displacement have one parity.  On the triangular lattice ``tri_alpha``
    is the coordinate sum of the displacement in canonical form.  k steps
    along v1 are (k, 0, 0) forward and (0, k, k) back, so bound k and 2k,
    and likewise along v2; k steps along -v3 are (k, k, 0) and (0, 0, k),
    so 2k and k.
    Degrees are at most ``max_degree[0]``, ``max_degree[1]`` on the
    boundary."""
    site_keys = sorted_unique(keys)
    coords, u, v = decode(site_keys)
    ids = site_keys.searchsorted(keys[:max(p, links.max(initial=-1) + 1)])
    site_mask = np.empty(len(coords), dtype=np.int8)
    site_mask.fill(-1)
    site_mask[ids[:p]] = masks
    interior = site_mask < 0
    i, j, steps = [ids[links[0]]], [ids[links[1]]], []
    for (du, dv), bit, _ in families:
        line = dv * u - du * v
        position = u if du else v
        order = pack(line, position).argsort()
        line, position = line[order], position[order]
        a, c = order[:-1], order[1:]
        joined = site_mask[a] & 1 << bit != 0
        joined |= interior[c]
        joined &= line[1:] == line[:-1]
        steps.append((position[1:] - position[:-1])[joined])
        i.append(a[joined])
        j.append(c[joined])
    ends = np.concatenate(i + j).reshape(2, -1)
    del i, j
    # The bounds go straight into one (2, E) array, in the edges' order.
    bounds = np.empty_like(ends)
    at = links.shape[1]
    bounds[:, :at] = link_bounds
    for k, (_, _, unit) in zip(steps, families):
        end = at + len(k)
        for row, factor in zip(bounds, unit):
            np.multiply(k, factor, out=row[at:end])
        at = end

    graph = ApproxGraph(coords, ends, bounds, ids[:p])
    deg = graph.degrees()
    limit = np.where(interior, *max_degree)
    over = (deg > limit).nonzero()[0]
    if len(over):
        s = over[0]
        raise InternalInconsistency(f"site {graph.site(s)} has degree {deg[s]}, "
                                    f"bound is {limit[s]}")
    return graph


def _decode_xy(site_keys: np.ndarray):
    xs, ys = unpack(site_keys)
    return np.concatenate([xs, ys]).reshape(2, -1).T, xs, ys


# The diagonal line families: the first step from (x, y) along (1, 1)
# cuts cell (x, y), the corner mask's bit 0, and along (1, -1) cell
# (x, y - 1), its bit 3.  A diagonal unit step has bound 2 both ways.
_DIAGONALS = (((1, 1), 0, (2, 2)), ((1, -1), 3, (2, 2)))
# An axis leg's bounds, rise over fall, when tail x + y + dx is even, and
# what an odd sum adds: 1 and 3, or 3 and 1.
_LEG_BOUNDS = np.array([[1], [3]], dtype=np.int64)
_LEG_BOUNDS_ODD = np.array([[2], [-2]], dtype=np.int64)


def build_graph(b: RegionBoundary, sub: Subdivision) -> ApproxGraph:
    """The legs of the kept triangles are the p boundary edges, each with
    one end at a crossed square's centre, and the inner legs; both are
    joined outright, with no triangle built.  Each is a unit axis step,
    with rise 2 - s and fall 2 + s, where s, the boundary height's step
    along it, is +1 when tail x + y + dx is even; for an inner leg from the
    centre c to (lx, ly) that sum is lx + y[c]."""
    bx, by = b.xy
    p = len(bx)
    c, lx, ly = sub.inner_legs()
    odd = np.concatenate([bx + by + b.steps[0], lx + by[c]]) & 1
    cx, cy = sub.inside_corners()
    keys = pack(np.concatenate([bx, lx, cx.ravel()]), np.concatenate([by, ly, cy.ravel()]))
    walk = np.arange(p)
    links = np.concatenate([walk, c, walk[1:], walk[:1], np.arange(p, p + len(c))]).reshape(2, -1)
    return join_sites(keys, p, links, _LEG_BOUNDS + _LEG_BOUNDS_ODD * odd, _decode_xy,
                      _DIAGONALS, b.corner_masks, (8, 7))
