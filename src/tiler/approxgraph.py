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

``join_sites`` builds the graph of either lattice as its lines: the F
line families' site orders by (line, position), end to end in one flat
array, with each consecutive pair's bounds (a seam between two families
joins nothing), plus the pairs joined outright, the links; the edge list
is a view.  Site ids are the ranks of the sorted distinct packed keys.
A gap between two boundary vertices tests one flank of the first step,
a bit of that vertex's corner mask, so the build makes no membership
search.  A line join's bounds are its length times the family's
unit-step bounds, both metrics being linear along a lattice line; a
link's are read off the walk by the caller.  Degrees are bounded by
construction, on squares by two neighbours per diagonal line plus four
axis legs, with one diagonal always missing at a boundary vertex.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from tiler.errors import InternalInconsistency
from tiler.region import RegionBoundary, lazy, pack, sorted_unique, unpack
from tiler.subdivision import Subdivision

Site = Tuple[int, ...]


# The limits on the height step of a pair of consecutive sites that no
# edge joins: none; a line join's are under 2^31.
_NO_BOUND = np.iinfo(np.int32).max


class ApproxGraph:
    """Site graph over integer ids, shared by both lattices, held as its
    lines and links.

    ``coords`` is the (n, d) int64 array of site coordinates in sorted
    order, ``boundary_ids`` the boundary vertices' ids in walk order.
    ``lines`` is ``(order, joined, steps, units)``: F families of n site
    ids end to end, each by line and position; whether an edge joins
    ``order[i]`` to ``order[i + 1]`` and its length in unit steps; and the
    (2, F, 1) unit-step bounds, forward and back.  ``links`` is the (2, L)
    array of the other edges, with bounds ``link_bounds`` on
    g(second) - g(first) and back.  The int32 rows of ``limits`` bound
    g(order[i + 1]) - g(order[i]) above and below (+-``_NO_BOUND`` for no
    edge).  The rows of ``sums`` add up the arc weights along ``order``
    and against it, ``jump`` (over twice all bounds) where no arc runs:
    into a boundary site, or at a pair with no edge, every seam among
    them.  The edge list (``ends``, ``bounds``; links first) and its views
    are built on first read.
    """

    def __init__(self, coords: np.ndarray, boundary_ids: np.ndarray, lines,
                 links: np.ndarray, link_bounds: np.ndarray):
        n = len(coords)
        self.coords, self.boundary_ids = coords, boundary_ids
        self.links, self.link_bounds = links, link_bounds
        self.interior = interior = np.empty(n, dtype=bool)
        interior.fill(True)
        interior[boundary_ids] = False
        self.order, joined, steps, units = lines
        bounds = units * steps.reshape(units.shape[1], -1)
        total = int(np.add.reduce(link_bounds.ravel())) + int(np.add.reduce(bounds, axis=None))
        self.jump = jump = 2 * total + 1
        if jump * (len(steps) + 1) >= 1 << 61:
            raise InternalInconsistency(f"{n} sites and bounds {total} overflow the line scans")
        self.edge_count = links.shape[1] + int(np.add.reduce(joined))
        joined, bounds = joined[:-1], bounds.reshape(2, -1)[:, :-1]
        inner = interior[self.order]
        heads = np.concatenate([inner[1:], inner[:-1]]).reshape(2, -1)
        heads &= joined
        self.sums = np.zeros((2, len(steps)), dtype=np.int64)
        np.where(heads, bounds, np.int64(jump)).cumsum(axis=1, out=self.sums[:, 1:])
        self.limits = np.where(joined, bounds, _NO_BOUND)
        np.negative(self.limits[1], out=self.limits[1])
        heads = links[::-1].ravel()
        keep = interior[heads].nonzero()[0]
        self.link_arcs = links.ravel()[keep], heads[keep], link_bounds.ravel()[keep]
        self.link_limits = link_bounds[0], -link_bounds[1]

    def site(self, i: int) -> Site:
        return tuple(self.coords[i].tolist())

    def degrees(self) -> np.ndarray:
        return np.bincount(self.ends.ravel(), minlength=len(self.coords))

    @lazy
    def _edges(self) -> Tuple[np.ndarray, np.ndarray]:
        (first, second), (up, down) = self.links, self.link_bounds
        (rise, drop), order = self.limits, self.order
        joined = (rise != _NO_BOUND).nonzero()[0]
        return (np.concatenate([first, order[joined], second, order[joined + 1]]).reshape(2, -1),
                np.concatenate([up, rise[joined], down, -drop[joined]]).reshape(2, -1))

    @property
    def ends(self) -> np.ndarray:
        return self._edges[0]

    @property
    def bounds(self) -> np.ndarray:
        return self._edges[1]

    @lazy
    def src(self) -> np.ndarray:
        return np.minimum(*self.ends)

    @lazy
    def dst(self) -> np.ndarray:
        return np.maximum(*self.ends)

    @lazy
    def sites(self) -> List[Site]:
        return list(zip(*self.coords.T.tolist()))

    @lazy
    def adj(self) -> Dict[Site, Tuple[Site, ...]]:
        """Each site's neighbours, in sorted order."""
        nbrs: List[List[int]] = [[] for _ in range(len(self.coords))]
        for i, j in zip(*self.ends.tolist()):
            nbrs[i].append(j)
            nbrs[j].append(i)
        sites = self.sites
        return {sites[i]: tuple(sites[j] for j in sorted(nb))
                for i, nb in enumerate(nbrs)}


def line_families(families):
    """The stacked form of F line families, built once per lattice.  Each
    is a direction (du, dv) along which u grows, or v when du = 0, the bit
    of the corner mask that holds one flank of its unit step, and the pair
    of bounds of that step, forward and back.  Returns (F, 2) rows and
    (F, 1) offsets taking (u, v) to the key (f, line dv * u - du * v,
    position), the flank bits and the unit bounds."""
    directions, bits, units = zip(*families)
    du, dv = np.array(directions).T
    return (np.array([dv << 32 | (du != 0), (du == 0) - (du << 32)]).T,
            pack(np.arange(len(bits))[:, None] << 28, 0), (1 << np.array(bits, np.int8))[:, None],
            np.array(units, dtype=np.int32).T[:, :, None])


def join_sites(keys: np.ndarray, p: int, links: np.ndarray, link_bounds: np.ndarray, decode,
               families, masks: np.ndarray, max_degree: Tuple[int, int]) -> ApproxGraph:
    """The site graph of either lattice over the packed candidate keys,
    the p boundary vertices in walk order first, with their corner masks
    ``masks``.  ``decode`` maps the sorted distinct keys to the site
    coordinates and their (2, n) plane coordinates (u, v).  ``links`` is a
    (2, L) array of the positions in ``keys`` of the pairs joined outright,
    and ``link_bounds`` the (2, L) array of their bounds, forward and back.
    ``families`` is from ``line_families``.  Consecutive sites on a line
    are joined when either is not a boundary vertex, or else when that
    flank of the first step is inside: a bit of the first site's mask.
    Interior sites have every bit set, so the bit test also passes when
    the first site is interior; the keys of a seam differ in the family.
    Degrees, counted from the lines and links, are at most
    ``max_degree[0]``, ``max_degree[1]`` on the boundary."""
    site_keys = sorted_unique(keys)
    coords, uv = decode(site_keys)
    n = len(coords)
    ids = site_keys.searchsorted(keys[:max(p, links.max(initial=-1) + 1)])
    links = ids[links]
    site_mask = np.empty(n, dtype=np.int8)
    site_mask.fill(-1)
    site_mask[ids[:p]] = masks
    interior = site_mask < 0
    forms, offsets, bits, units = families
    line_keys = np.matmul(forms, uv)
    line_keys += offsets
    order = line_keys.argsort(axis=1)
    line_keys = line_keys.ravel()[(order + np.arange(0, order.size, n)[:, None]).ravel()]
    joined = (site_mask[order] & bits).ravel() != 0
    order = order.ravel()
    joined[-1] = False
    pairs = joined[:-1]
    pairs |= interior[order[1:]]
    pairs &= line_keys[1:] >> 32 == line_keys[:-1] >> 32
    steps = np.empty(len(order), dtype=np.int32)
    np.subtract(line_keys[1:], line_keys[:-1], out=steps[:-1])
    del line_keys
    steps *= joined

    deg = np.bincount(np.concatenate([links.ravel(), order[joined], order[1:][pairs]]),
                      minlength=n)
    limit = np.where(interior, *max_degree)
    over = (deg > limit).nonzero()[0]
    if len(over):
        s = over[0]
        raise InternalInconsistency(f"site {tuple(coords[s].tolist())} has degree {deg[s]}, "
                                    f"bound is {limit[s]}")
    return ApproxGraph(coords, ids[:p], (order, joined, steps, units), links, link_bounds)


def _decode_xy(site_keys: np.ndarray):
    xy = np.concatenate(unpack(site_keys)).reshape(2, -1)
    return xy.T, xy


# The diagonal line families: the first step from (x, y) along (1, 1)
# cuts cell (x, y), the corner mask's bit 0, and along (1, -1) cell
# (x, y - 1), its bit 3.  A diagonal unit step has bound 2 both ways.
_DIAGONALS = line_families((((1, 1), 0, (2, 2)), ((1, -1), 3, (2, 2))))
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
