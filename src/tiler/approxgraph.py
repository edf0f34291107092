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
membership search.  Edges store no weights: the solver takes the bound
on the height difference from the closed form.  Degrees are bounded by
construction, on squares by two neighbours per diagonal line plus four
axis legs, with one diagonal always missing at a boundary vertex.
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


def join_sites(keys: np.ndarray, p: int, links: np.ndarray, decode, families,
               masks: np.ndarray, bounds: Tuple[int, int]) -> ApproxGraph:
    """The site graph of either lattice over the packed candidate keys,
    the p boundary vertices in walk order first, with their corner masks
    ``masks``.  ``decode`` maps the sorted distinct keys to the site
    coordinates and their plane coordinates (u, v).  ``links`` is a (2, L)
    array of the positions in ``keys`` of the pairs joined outright.  Each
    family is a direction (du, dv) along which u grows, or v when du = 0,
    and the bit of the corner mask that holds one flank of its unit step.
    Consecutive sites on a line are joined when either is not a boundary
    vertex, or else when that flank of the first step is inside: a bit of
    the first site's mask, read with no membership search.  Interior sites
    have every bit set, so the bit test also passes when the first site is
    interior.
    Degrees are at most ``bounds[0]``, ``bounds[1]`` on the boundary."""
    site_keys = sorted_unique(keys)
    coords, u, v = decode(site_keys)
    ids = np.searchsorted(site_keys, keys[:max(p, links.max(initial=-1) + 1)])
    site_mask = np.full(len(coords), -1, dtype=np.int8)
    site_mask[ids[:p]] = masks
    interior = site_mask < 0
    i, j = [ids[links[0]]], [ids[links[1]]]
    for (du, dv), bit in families:
        line = dv * u - du * v
        order = pack(line, u if du else v).argsort()
        a, c = order[:-1], order[1:]
        same = line[a] == line[c]
        a, c = a[same], c[same]
        joined = site_mask[a] & 1 << bit != 0
        joined |= interior[c]
        i.append(a[joined])
        j.append(c[joined])

    i, j = np.concatenate(i), np.concatenate(j)
    graph = ApproxGraph(coords, np.minimum(i, j), np.maximum(i, j), ids[:p])
    deg = graph.degrees()
    limit = np.full(len(deg), bounds[0])
    limit[~interior] = bounds[1]
    over = (deg > limit).nonzero()[0]
    if len(over):
        s = over[0]
        raise InternalInconsistency(f"site {graph.site(s)} has degree {deg[s]}, "
                                    f"bound is {limit[s]}")
    return graph


def _decode_xy(site_keys: np.ndarray):
    xs, ys = unpack(site_keys)
    return np.stack([xs, ys], axis=1), xs, ys


# The diagonal line families: the first step from (x, y) along (1, 1)
# cuts cell (x, y), the corner mask's bit 0, and along (1, -1) cell
# (x, y - 1), its bit 3.
_DIAGONALS = (((1, 1), 0), ((1, -1), 3))


def build_graph(b: RegionBoundary, sub: Subdivision) -> ApproxGraph:
    """The legs of the kept triangles are the p boundary edges, each with
    one end at a crossed square's centre, and the inner legs; both are
    joined outright, with no triangle built."""
    bx, by = b.xy
    p = len(bx)
    c, lx, ly = sub.inner_legs()
    cx, cy = sub.inside_corners()
    keys = pack(np.concatenate([bx, lx, cx.ravel()]), np.concatenate([by, ly, cy.ravel()]))
    walk = np.arange(p)
    links = np.stack([np.concatenate([walk, c]),
                      np.concatenate([walk[1:], walk[:1], np.arange(p, p + len(c))])])
    return join_sites(keys, p, links, _decode_xy, _DIAGONALS, b.corner_masks, (8, 7))
