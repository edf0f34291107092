"""Perimeter-sized subdivision of the plane around a region boundary.

Everything happens in the rotated coordinates ``u = x + y``, ``v = x - y``,
where the natural diagonal squares of the lattice become axis-aligned.  A
quadtree is grown from a root square comfortably containing the region;
at each level only the squares actually met by the boundary walk (the
*crossed* squares) are subdivided further.  An uncrossed child of a
crossed square is inside the region exactly when the cell north-east of
its centre is a region cell, which costs one bisect, so the whole
structure costs O(p log p) for a boundary of length p.

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
"""

from __future__ import annotations

from typing import List, NamedTuple, Set, Tuple

import numpy as np

from tiler.errors import InternalInconsistency
from tiler.lattice import Point
from tiler.region import RegionBoundary

Key = Tuple[int, int]


class Triangle(NamedTuple):
    """Half-cell triangle kept at the last level: apex at a square centre,
    two corners on the surrounding diamond, all inside ``cell``."""

    cell: Point
    verts: Tuple[Point, Point, Point]


class Subdivision:
    """Quadtree of crossed squares plus the inside squares among the rest.

    ``crossed[i]`` is the set of level-i keys of squares holding a
    boundary edge; ``inside[i]`` is the set of uncrossed level-i keys
    (children of crossed parents) whose squares lie inside the region.
    ``triangles`` are the kept half-cells of the last level.
    """

    def __init__(self, b: RegionBoundary):
        self.b = b
        p = b.p
        n0 = 1
        while n0 < 2 * p:
            n0 *= 2
        self.n0 = n0
        self.t = n0.bit_length() - 1
        x0, y0, x1, y1 = b.bbox
        cx, cy = (x0 + x1) // 2, (y0 + y1) // 2
        self.U0 = (cx + cy) - n0
        self.V0 = (cx - cy) - n0
        self.crossed: List[Set[Key]] = []
        self.inside: List[Set[Key]] = []
        self.si_census: List[int] = []
        self.triangles: List[Triangle] = []
        self._build()

    # -- square geometry ----------------------------------------------------

    def side(self, level: int) -> int:
        return (2 * self.n0) >> level

    def uv_min(self, level: int, key: Key) -> Tuple[int, int]:
        s = self.side(level)
        return self.U0 + key[0] * s, self.V0 + key[1] * s

    def center_xy(self, level: int, key: Key) -> Point:
        umin, vmin = self.uv_min(level, key)
        s = self.side(level)
        uc, vc = umin + s // 2, vmin + s // 2
        return ((uc + vc) // 2, (uc - vc) // 2)

    def corners_xy(self, level: int, key: Key) -> Tuple[Point, Point, Point, Point]:
        """Lattice corners of a square, in (x, y)."""
        umin, vmin = self.uv_min(level, key)
        s = self.side(level)
        return tuple(((u + v) // 2, (u - v) // 2)
                     for u, v in ((umin, vmin), (umin + s, vmin),
                                  (umin + s, vmin + s), (umin, vmin + s)))

    def inside_squares(self) -> List[Tuple[int, Key]]:
        """The maximal squares wholly inside the region, as (level, key).
        Together with the kept triangles they cover the region exactly."""
        return sorted((level, key) for level in range(1, self.t + 1)
                      for key in self.inside[level])

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        b = self.b
        xs = np.array([v[0] for v in b.vertices], dtype=np.int64)
        ys = np.array([v[1] for v in b.vertices], dtype=np.int64)
        us, vs = xs + ys, xs - ys
        # Doubled midpoints of the p boundary edges (edge j runs from
        # vertex j to vertex j+1, cyclically).
        mu2 = us + np.roll(us, -1)
        mv2 = vs + np.roll(vs, -1)

        for level in range(self.t + 1):
            s = self.side(level)
            iu = (mu2 - 2 * self.U0) // (2 * s)
            iv = (mv2 - 2 * self.V0) // (2 * s)
            squares = set(zip(iu.tolist(), iv.tolist()))
            self.crossed.append(squares)
            self.si_census.append(len(squares))
            if level >= 1 and len(squares) >= 9 * 2 ** (level - 1):
                raise InternalInconsistency(
                    f"{len(squares)} crossed squares at level {level}, bound is {9 * 2 ** (level - 1)}"
                )

        contains = b.contains_cell
        self.inside.append(set())
        for level in range(1, self.t + 1):
            crossed = self.crossed[level]
            inside = set()
            for piu, piv in self.crossed[level - 1]:
                for key in ((2 * piu, 2 * piv), (2 * piu + 1, 2 * piv),
                            (2 * piu, 2 * piv + 1), (2 * piu + 1, 2 * piv + 1)):
                    if key not in crossed and contains(self.center_xy(level, key)):
                        inside.add(key)
            self.inside.append(inside)
        self._build_triangles()

    # -- last level: triangles ----------------------------------------------

    def _build_triangles(self) -> None:
        contains = self.b.contains_cell
        for key in sorted(self.crossed[self.t]):
            c = self.center_xy(self.t, key)
            x, y = c
            kept = 0
            for cell, v1, v2 in (
                ((x, y), (x + 1, y), (x, y + 1)),
                ((x - 1, y), (x, y + 1), (x - 1, y)),
                ((x - 1, y - 1), (x - 1, y), (x, y - 1)),
                ((x, y - 1), (x, y - 1), (x + 1, y)),
            ):
                if contains(cell):
                    self.triangles.append(Triangle(cell, (c, v1, v2)))
                    kept += 1
            if not 1 <= kept <= 3:
                raise InternalInconsistency(f"square {key} keeps {kept} triangles")


def build_subdivision(b: RegionBoundary) -> Subdivision:
    return Subdivision(b)
