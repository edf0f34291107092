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

At the last level the crossed squares have side 2 in (u, v), unit
half-diagonal, and each is centred on a boundary vertex.  The centres
have u - U0 odd.  Every boundary edge joins a vertex with u - U0 odd to
one with it even, since u changes by 1 along an edge, and its midpoint
is 1/2 from both in u and in v; so the square of the midpoint is the one
centred on the odd end.  Vertex i of the walk has u = i mod 2, so the
crossed squares are centred on every other vertex, p/2 of them, each met
by exactly its two edges.  A square is cut into four lattice triangles
around its centre, one in each cell there, and the ones in region cells
are kept: the bits of the centre's corner mask, which the turn of the
walk there gives (``RegionBoundary.corner_masks``).  These triangles
tile a thin sleeve along the boundary and their vertices become the
sites of the sparse tileability graph.  The decision builds none of
them: the graph reads their legs off the masks (``inner_legs``).

The quadtree is built bottom-up by ``climb``, which the triangle
quadtree of ``tiler.lozenge`` shares.  Cells are keyed by their Z-order
(Morton) code, so one sort of the last-level keys of those p/2 vertices
gives every level: shifting sorted codes right by two gives the parent
cells still sorted, and a few array operations per level group them and
find the uncrossed children.  One membership search over those
classifies them, the only one of the build.  The tuple views
``inside_squares()`` and ``triangles`` are derived on demand for the
tests, the benchmark's counters and (``triangles``) rendering; the
decision and the oracle read the arrays.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from tiler.errors import InternalInconsistency
from tiler.lattice import Point
from tiler.region import RegionBoundary, lazy

Key = Tuple[int, int]

# Z-order codes: the code of cell (i, j) holds the bits of i on the even
# places and those of j on the odd ones.  Both directions take 8 bits of
# i and of j per pass: _SPREAD[b] puts the bits of the byte b on the even
# places of 16, and _EVEN[c] gathers the bits on the even places of the
# 16-bit c, those of its high byte over those of its low one.  _EVEN is
# built in uint8, so it adds 64 KiB at import and no int64 temporary.
_SPREAD = sum((np.arange(256) >> k & 1) << 2 * k for k in range(8))
_EVEN_OF_BYTE = sum((np.arange(256, dtype=np.uint8) >> 2 * k & 1) << k for k in range(4))
_EVEN = (_EVEN_OF_BYTE[:, None] << 4 | _EVEN_OF_BYTE).ravel()


def spread(i: np.ndarray, t: int) -> np.ndarray:
    """The bits of each value of an int64 array in [0, 2**t), t <= 31,
    moved to the even places: one table pass per byte."""
    code = _SPREAD[i & 255]
    for s in range(8, t, 8):
        code |= _SPREAD[i >> s & 255] << 2 * s
    return code


def zorder(i: np.ndarray, j: np.ndarray, t: int) -> np.ndarray:
    """Z-order codes of the cells (i, j), over int64 arrays of values in
    [0, 2**t), t <= 31."""
    return spread(i, t) | spread(j, t) << 1


def unzorder(code: np.ndarray, t: int) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of ``zorder``: the arrays i and j, one table pass per byte
    of each."""
    low = code & 0xFFFF
    i, j = _EVEN[low].astype(np.int64), _EVEN[low >> 1].astype(np.int64)
    for s in range(8, t, 8):
        low = code >> 2 * s & 0xFFFF
        i |= np.left_shift(_EVEN[low], s, dtype=np.int64)
        j |= np.left_shift(_EVEN[low >> 1], s, dtype=np.int64)
    return i, j


def groups(keys: np.ndarray, shift: int):
    """The distinct values of ``keys >> shift`` over sorted keys, and the
    index of the first key with each."""
    c = np.empty(len(keys) + 1, dtype=np.int64)
    c[0] = -1
    code = np.right_shift(keys, shift, out=c[1:])
    first = (code != c[:-1]).nonzero()[0]
    return code[first], first


def climb(keys: np.ndarray, t: int, parent: np.ndarray, child_slots: np.ndarray):
    """The crossed cells of every level of a quadtree and its candidate
    pieces, climbed from the sorted keys of its level-t crossed cells.

    A cell holds up to two quadtree pieces, in slots 0 and 1, and its key
    is ``code << 2 | flags``: its Z-order code and the bits of its crossed
    slots.  The level-t codes are distinct.  The parent cell's code
    is the code shifted right by two, so shifted sorted codes stay
    sorted, and the low four bits of a key are the cell's quadrant in its
    parent above its flags; a child's slot in its parent is
    2 * quadrant + slot.  ``parent[key & 15]`` gives the flags a cell's
    crossed pieces set on its parent, with their slot bits above them,
    and ``child_slots[flags]`` the slots of the children of a cell's
    crossed pieces.  So each level up is one grouping of the keys by
    parent code and one ``np.bitwise_or.reduceat``.

    Returns the keys of each level's crossed cells, ``crossed[L]`` for
    level L, and the candidate pieces as arrays (level, i, j, slot): the
    uncrossed children of crossed pieces, level by level from level t up
    to level 1.  The crossed pieces of level t are not among them; each
    caller reads those that are kept off its corner masks.
    """
    crossed, entries = [keys], []
    for _ in range(t):
        code, first = groups(keys, 4)
        entry = np.bitwise_or.reduceat(parent[keys & 15], first)
        keys = code << 2 | entry & 3
        crossed.append(keys)
        entries.append(entry)
    # The slot bits of each crossed parent's uncrossed children, over the
    # code of its quadrant-0 child: its own key without its flags.  Each
    # array goes as soon as it is read, which keeps the peak low at large p.
    entry = np.concatenate(entries)
    del entries
    row = np.unpackbits((child_slots[entry & 3] ^ entry >> 2).astype(np.uint8),
                        bitorder="little").nonzero()[0]
    del entry
    slot = row & 7
    row >>= 3
    level = np.arange(t, 0, -1).repeat([len(k) for k in crossed[1:]])[row]
    code = np.concatenate(crossed[1:])[row]
    del row
    code &= ~3
    code |= slot >> 1
    slot &= 1
    return crossed[::-1], (level, *unzorder(code, t), slot)


# A square cell holds one piece, in slot 0, so every square key has flag
# 1.  Indexed by a key's quadrant and flags: its slot bit over its
# parent's flag.
_PARENT = np.array([1 << 2 * (k >> 2) + 2 | 1 for k in range(16)], dtype=np.int64)
_CHILD_SLOTS = np.array([0, 0b01010101], dtype=np.int64)

# Triangle k around the centre c of a last-level square lies in the cell
# of bit k of c's corner mask, between the legs from c along directions k
# and k + 1 (R, U, L, D): _LEG[k] is the unit step of direction k.
# _BITS[mask] is the row of a 4-bit mask's bits.
_BITS = np.arange(16)[:, None] >> np.arange(4) & 1 == 1
_LEG = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], dtype=np.int64)


class Triangle(NamedTuple):
    """Half-cell triangle kept at the last level: apex at a square centre,
    two corners on the surrounding diamond, all inside ``cell``."""

    cell: Point
    verts: Tuple[Point, Point, Point]


class Subdivision:
    """Quadtree of crossed squares plus the inside squares among the rest.

    Square (iu, iv) of level i has side ``side(i)`` and its low corner at
    (U0 + iu * side, V0 + iv * side) in (u, v).  Array form, used by the
    site graph:

    * ``keys[i]``: the sorted keys ``code << 2 | 1`` of the crossed
      squares of level i, by Z-order code (see ``climb``);
    * ``inside_at``: (level, iu, iv) arrays of the uncrossed children of
      crossed squares that lie inside the region;
    * ``centres``: the walk index of the boundary vertex at the centre
      of each crossed square of level t, in key order.

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
        x0, y0, x1, y1 = b.bbox
        cx, cy = (x0 + x1) // 2, (y0 + y1) // 2
        self.U0 = (cx + cy) - n0
        self.V0 = (cx - cy) - n0
        self._build()

    # -- square geometry ----------------------------------------------------

    def side(self, level: int) -> int:
        return (2 * self.n0) >> level

    def _uv_corner(self, level: np.ndarray, iu: np.ndarray, iv: np.ndarray):
        """Side and (u, v) of the low corner of each square, as arrays."""
        s = (2 * self.n0) >> level
        return s, self.U0 + iu * s, self.V0 + iv * s

    def inside_corners(self) -> Tuple[np.ndarray, np.ndarray]:
        """(I, 4) arrays x and y of the corners of the inside squares."""
        s, umin, vmin = self._uv_corner(*self.inside_at)
        u = umin[:, None] + s[:, None] * np.array([0, 1, 1, 0])
        v = vmin[:, None] + s[:, None] * np.array([0, 0, 1, 1])
        return (u + v) // 2, (u - v) // 2

    # -- tuple-keyed views --------------------------------------------------

    def inside_squares(self) -> List[Tuple[int, Key]]:
        """The maximal squares wholly inside the region, as sorted
        (level, (iu, iv)).  Together with the kept triangles they cover the
        region exactly."""
        level, iu, iv = (a.tolist() for a in self.inside_at)
        return sorted(zip(level, zip(iu, iv)))

    @lazy
    def triangles(self) -> List[Triangle]:
        """The kept half-cells, by the Z-order code of their square and
        then counterclockwise: around each centre vertex, one in each cell
        of its corner mask.  A triangle's cell is the low corner of its
        bounding box."""
        bx, by = self.b.xy
        row, k = _BITS[self.b.corner_masks[self.centres]].nonzero()
        ax, ay = bx[self.centres[row]], by[self.centres[row]]
        k2 = (k + 1) & 3
        tx = np.stack([ax, ax + _LEG[k, 0], ax + _LEG[k2, 0]], axis=1)
        ty = np.stack([ay, ay + _LEG[k, 1], ay + _LEG[k2, 1]], axis=1)
        return [Triangle((min(xs), min(ys)), tuple(zip(xs, ys)))
                for xs, ys in zip(tx.tolist(), ty.tolist())]

    def inner_legs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The legs of the kept triangles that are not boundary edges, as
        the walk index of their centre vertex c and the x and y of their
        other end.  Around c the legs run along the directions from the
        walk's outgoing one to its reversed incoming one, counterclockwise:
        the first and the last are the boundary edges at c, and the others
        lie between two region cells, bits d - 1 and d of c's mask."""
        bx, by = self.b.xy
        m = self.b.corner_masks[self.centres]
        row, d = _BITS[m & (m << 1 | m >> 3)].nonzero()
        c = self.centres[row]
        return c, bx[c] + _LEG[d, 0], by[c] + _LEG[d, 1]

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        b, t = self.b, self.t
        # A level-t square has side 2 and its centre at u = U0 + 2 iu + 1,
        # v = V0 + 2 iv + 1 (U0 and V0 have one parity).  An open boundary
        # edge lies in the square of its midpoint, 1/2 in u and in v from
        # its end with u - U0 odd: the square centred there.  Vertex i has
        # u = i mod 2, so the crossed squares are centred on the vertices
        # i0, i0 + 2, ...: p/2 distinct codes.
        i0 = (self.U0 + 1) & 1
        xs, ys = b.xy
        x, y = xs[i0::2], ys[i0::2]
        code = zorder((x + y - self.U0) >> 1, (x - y - self.V0) >> 1, t)
        order = code.argsort()
        self.centres = i0 + 2 * order
        self.keys, (level, iu, iv, _) = climb(code[order] << 2 | 1, t, _PARENT, _CHILD_SLOTS)
        del code, order, _  # a square's slot is always 0

        census = [len(k) for k in self.keys]
        for i in range(1, t + 1):
            if census[i] >= 9 << (i - 1):
                raise InternalInconsistency(
                    f"{census[i]} crossed squares at level {i}, bound is {9 << (i - 1)}")
        self.si_census: List[int] = census

        # The uncrossed children of crossed squares are classified by the
        # cell north-east of their centre, with the one membership search.
        # A centre is (U0 + (2 iu + 1) h, V0 + (2 iv + 1) h) in (u, v), with
        # h = n0 >> level half the side, so that cell has x = (U0 + V0) / 2
        # + (iu + iv + 1) h and y = (U0 - V0) / 2 + (iu - iv) h.
        half = self.n0 >> level
        x = (iu + iv + 1) * half + ((self.U0 + self.V0) >> 1)
        y = (iu - iv) * half + ((self.U0 - self.V0) >> 1)
        del half
        inside = b.contains_cells(x, y)
        self.inside_at = level[inside], iu[inside], iv[inside]


def build_subdivision(b: RegionBoundary) -> Subdivision:
    return Subdivision(b)
