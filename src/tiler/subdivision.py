"""Perimeter-sized subdivision of the plane around a region boundary.

Everything happens in the rotated coordinates ``u = x + y``, ``v = x - y``,
where the natural diagonal squares of the lattice become axis-aligned.  A
quadtree is grown from a root square comfortably containing the region;
at each level only the squares actually met by the boundary walk (the
*crossed* squares) are subdivided further.  An uncrossed child of a
crossed square is inside the region exactly when the cell north-east of
its centre is a region cell, so the whole structure costs O(p log p) for
a boundary of length p.

One cell decides the whole square because an open boundary edge has both
rotated coordinates strictly between consecutive integers, so it lies in
the closed square of its midpoint at every level.  An uncrossed square
therefore holds no boundary edge, its interior lies wholly on one side,
and the cell north-east of its centre meets that interior.

At the last level the crossed squares have unit half-diagonal.  Each one is
cut into at most four lattice triangles, of which the ones lying in cells
of the region are kept; these triangles tile a thin sleeve along the
boundary and their vertices become the sites of the sparse tileability
graph.

All levels are built in one batch of array operations.  A square is an
int64 key holding its level in the high bits above its two indices, so
the crossed squares of every level come from one sort of the edge
midpoint keys, the uncrossed children from one ``np.searchsorted``
against them, and each membership test is one vector lookup in the
region's edge index.  The tuple-keyed views (``inside``,
``inside_squares()``, ``triangles``) are derived on first access for
rendering, the oracle and the tests; the decision never builds them.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, NamedTuple, Set, Tuple

import numpy as np

from tiler.errors import InternalInconsistency
from tiler.lattice import Point
from tiler.region import RegionBoundary, sorted_unique

Key = Tuple[int, int]

# Offsets from the centre c of a last-level square: the cell of candidate
# triangle k, and its corner after c in counterclockwise order.  The next
# corner of triangle k is the first of triangle k + 1.
_CELL = np.array([(0, 0), (-1, 0), (-1, -1), (0, -1)], dtype=np.int64)
_LEG = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], dtype=np.int64)


class Triangle(NamedTuple):
    """Half-cell triangle kept at the last level: apex at a square centre,
    two corners on the surrounding diamond, all inside ``cell``."""

    cell: Point
    verts: Tuple[Point, Point, Point]


class Subdivision:
    """Quadtree of crossed squares plus the inside squares among the rest.

    Array form, used by the site graph:

    * ``keys``: sorted packed keys (level, iu, iv) of the crossed squares;
    * ``inside_keys``: packed keys of the uncrossed children of crossed
      squares that lie inside the region;
    * ``tri_x``, ``tri_y``: (T, 3) coordinates of the kept triangles'
      apex and two corners.

    ``si_census[i]`` counts the crossed squares of level i.
    """

    def __init__(self, b: RegionBoundary):
        self.b = b
        p = b.p
        n0 = 1
        while n0 < 2 * p:
            n0 *= 2
        self.n0 = n0
        self.t = n0.bit_length() - 1
        self._bits = self.t + 1
        x0, y0, x1, y1 = b.bbox
        cx, cy = (x0 + x1) // 2, (y0 + y1) // 2
        self.U0 = (cx + cy) - n0
        self.V0 = (cx - cy) - n0
        self._build()

    # -- square geometry ----------------------------------------------------

    def side(self, level: int) -> int:
        return (2 * self.n0) >> level

    def uv_min(self, level: int, key: Key) -> Tuple[int, int]:
        s = self.side(level)
        return self.U0 + key[0] * s, self.V0 + key[1] * s

    def corners_xy(self, level: int, key: Key) -> Tuple[Point, Point, Point, Point]:
        """Lattice corners of a square, in (x, y)."""
        umin, vmin = self.uv_min(level, key)
        s = self.side(level)
        return tuple(((u + v) // 2, (u - v) // 2)
                     for u, v in ((umin, vmin), (umin + s, vmin),
                                  (umin + s, vmin + s), (umin, vmin + s)))

    # -- packed keys --------------------------------------------------------

    def _unpack(self, keys: np.ndarray):
        """Level, iu and iv arrays of packed square keys."""
        bits = self._bits
        mask = (1 << bits) - 1
        return keys >> (2 * bits), (keys >> bits) & mask, keys & mask

    def _uv_corner(self, keys: np.ndarray):
        """Side and (u, v) of the low corner of each square, as arrays."""
        level, iu, iv = self._unpack(keys)
        s = (2 * self.n0) >> level
        return s, self.U0 + iu * s, self.V0 + iv * s

    def inside_corners(self) -> Tuple[np.ndarray, np.ndarray]:
        """(I, 4) arrays x and y of the corners of the inside squares."""
        s, umin, vmin = self._uv_corner(self.inside_keys)
        u = umin[:, None] + s[:, None] * np.array([0, 1, 1, 0])
        v = vmin[:, None] + s[:, None] * np.array([0, 0, 1, 1])
        return (u + v) // 2, (u - v) // 2

    # -- tuple-keyed views --------------------------------------------------

    def _by_level(self, keys: np.ndarray) -> List[Set[Key]]:
        out: List[Set[Key]] = [set() for _ in range(self.t + 1)]
        for level, iu, iv in zip(*(a.tolist() for a in self._unpack(keys))):
            out[level].add((iu, iv))
        return out

    @cached_property
    def inside(self) -> List[Set[Key]]:
        """``inside[i]``: the uncrossed level-i children of crossed squares
        that lie inside the region."""
        return self._by_level(self.inside_keys)

    def inside_squares(self) -> List[Tuple[int, Key]]:
        """The maximal squares wholly inside the region, as (level, key).
        Together with the kept triangles they cover the region exactly."""
        return sorted((level, key) for level in range(1, self.t + 1)
                      for key in self.inside[level])

    @cached_property
    def triangles(self) -> List[Triangle]:
        """The kept half-cells, by square key and then counterclockwise.
        A triangle's cell is the low corner of its bounding box."""
        return [Triangle((min(xs), min(ys)), tuple(zip(xs, ys)))
                for xs, ys in zip(self.tri_x.tolist(), self.tri_y.tolist())]

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        b, t, bits = self.b, self.t, self._bits
        xs, ys = b.xy
        us, vs = xs + ys, xs - ys
        # Doubled midpoints of the p boundary edges (edge j runs from
        # vertex j to vertex j+1, cyclically), from the root's low corner.
        # A level-i square has side 2 * n0 >> i, so the midpoint's level-i
        # index is mu2 >> (t + 2 - i).
        mu2 = us + np.roll(us, -1) - 2 * self.U0
        mv2 = vs + np.roll(vs, -1) - 2 * self.V0
        levels = np.arange(t + 1, dtype=np.int64)[:, None]
        shift = t + 2 - levels
        self.keys = keys = sorted_unique(
            (levels << 2 * bits) | ((mu2 >> shift) << bits) | (mv2 >> shift))

        census = np.bincount(keys >> 2 * bits, minlength=t + 1)
        bound = 9 << np.arange(t, dtype=np.int64)  # 9 * 2**(i-1), i = 1..t
        over = np.flatnonzero(census[1:] >= bound)
        if len(over):
            level = int(over[0]) + 1
            raise InternalInconsistency(
                f"{census[level]} crossed squares at level {level}, "
                f"bound is {9 * 2 ** (level - 1)}")
        self.si_census: List[int] = census.tolist()

        # Children of the crossed squares above the last level; the ones
        # not crossed themselves are classified by the cell north-east of
        # their centre.
        last = int(np.searchsorted(keys, t << 2 * bits))
        level, iu, iv = self._unpack(keys[:last])
        first = ((level + 1) << 2 * bits) | ((2 * iu) << bits) | (2 * iv)
        kids = (first[:, None] + np.array([0, 1, 1 << bits, (1 << bits) + 1])).ravel()
        pos = np.minimum(np.searchsorted(keys, kids), len(keys) - 1)
        free = kids[keys[pos] != kids]
        s, umin, vmin = self._uv_corner(free)
        uc, vc = umin + s // 2, vmin + s // 2
        self.inside_keys = free[b.contains_cells((uc + vc) // 2, (uc - vc) // 2)]

        # Last level: four candidate triangles around each square's centre.
        _, iu, iv = self._unpack(keys[last:])
        uc, vc = self.U0 + 2 * iu + 1, self.V0 + 2 * iv + 1
        cx, cy = (uc + vc) // 2, (uc - vc) // 2
        kept = b.contains_cells(cx[:, None] + _CELL[:, 0], cy[:, None] + _CELL[:, 1])
        count = kept.sum(axis=1)
        wrong = np.flatnonzero((count < 1) | (count > 3))
        if len(wrong):
            j = wrong[0]
            raise InternalInconsistency(
                f"square {(int(iu[j]), int(iv[j]))} keeps {count[j]} triangles")
        row, k = np.nonzero(kept)
        ax, ay = cx[row], cy[row]
        k2 = (k + 1) & 3
        self.tri_x = np.stack([ax, ax + _LEG[k, 0], ax + _LEG[k2, 0]], axis=1)
        self.tri_y = np.stack([ay, ay + _LEG[k, 1], ay + _LEG[k2, 1]], axis=1)


def build_subdivision(b: RegionBoundary) -> Subdivision:
    return Subdivision(b)
