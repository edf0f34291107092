"""Boundary words, region geometry, and boundary height functions.

A region is described by a single closed walk over the moves ``R``, ``U``,
``L``, ``D``.  Parsing validates that the walk closes, never revisits a
vertex (this also rejects pinch points), and encloses a nonzero area.  The
walk is then normalised: counterclockwise orientation, first vertex at the
origin.

Both lattices check their walks on int64 arrays with ``closed_walk``.
Boundary heights are an int64 array in walk order: the ``cumsum`` of
one forced step per edge.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from tiler.errors import EmptyInterior, NotClosed, SelfIntersecting
from tiler.lattice import Point

MOVES: Dict[str, Point] = {"R": (1, 0), "U": (0, 1), "L": (-1, 0), "D": (0, -1)}
INVERSE = {"R": "L", "L": "R", "U": "D", "D": "U"}
_INVERSE = str.maketrans(INVERSE)

# Unit steps indexed by the ASCII code of a move; _BAD marks the codes
# that are no move.
_STEP_X = np.zeros(128, dtype=np.int64)
_STEP_Y = np.zeros(128, dtype=np.int64)
_BAD = np.ones(128, dtype=bool)
for _m, (_dx, _dy) in MOVES.items():
    _STEP_X[ord(_m)], _STEP_Y[ord(_m)] = _dx, _dy
    _BAD[ord(_m)] = False

# Packed int64 key of a lattice pair (a, b): sorting keys sorts the pairs
# lexicographically.  Coordinates must lie in [-2**31, 2**31).
_HALF = 1 << 31
_LOW = (1 << 32) - 1


def pack(a, b):
    """Key of the pair (a, b); ints or int64 arrays."""
    return (a << 32) + (b + _HALF)


def unpack(key):
    """Inverse of ``pack``: the arrays (a, b)."""
    return key >> 32, (key & _LOW) - _HALF


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 array, in increasing order.

    ``np.unique`` without ``return_inverse`` imports ``numpy.ma`` on its
    first call (1.7 MB of resident memory), and its hash table is slower
    than a sort on these mostly ordered keys.  ``np.sort`` is 3-4 times
    faster than gathering through ``np.argsort`` on 150k keys."""
    keys = np.sort(keys, axis=None)
    first = np.ones(len(keys), dtype=bool)
    np.greater(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def first_repeat(items):
    """The first item of a sequence that equals an earlier one, or None."""
    seen = set()
    for v in items:
        if v in seen:
            return v
        seen.add(v)
    return None


def odd_at_or_left(keys: np.ndarray, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Whether an odd number of the sorted ``pack(row, x)`` keys share the
    row and sit at or left of the position, for int64 arrays of rows and
    positions.

    The keys are the crossings of a closed walk with the rows, and a
    closed walk crosses every row an even number of times.  So the keys
    of the rows below always number an even count, and the parity of all
    keys at or below ``pack(row, pos)`` is the answer: one
    ``np.searchsorted`` call and a parity test."""
    return np.searchsorted(keys, pack(rows, pos), "right") & 1 == 1


def row_lists(keys: np.ndarray) -> Dict[int, List[int]]:
    """Sorted ``pack(row, x)`` keys as sorted per-row lists of x."""
    rows: Dict[int, List[int]] = {}
    row_of, x_of = unpack(keys)
    for row, x in zip(row_of.tolist(), x_of.tolist()):
        rows.setdefault(row, []).append(x)
    return rows


class RegionBoundary:
    """A validated, counterclockwise boundary walk anchored at the origin.

    Attributes:
      moves: the normalised move word, one character per edge.
      xy: the p boundary vertices in walk order, starting at (0, 0), as
        two int64 arrays x and y.
      vertices: the same as (x, y) tuples, built on first access; the
        decision never builds them.
      area: number of cells enclosed.
      name: optional label carried through from the input.
    """

    def __init__(self, moves: str, xy: Tuple[np.ndarray, np.ndarray], area: int,
                 name: Optional[str] = None):
        self.moves = moves
        self.xy = xy
        self.area = area
        self.name = name

    @property
    def p(self) -> int:
        return len(self.moves)

    @cached_property
    def vertices(self) -> List[Point]:
        xs, ys = self.xy
        return list(zip(xs.tolist(), ys.tolist()))

    @cached_property
    def bbox(self) -> Tuple[int, int, int, int]:
        """(min x, min y, max x, max y) over the vertices."""
        xs, ys = self.xy
        return int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        """Sorted ``pack(row, x)`` keys of the vertical boundary edges.

        Passing them left to right along a row alternates outside/inside,
        so a cell is inside iff an odd number of them sit at or left of it.
        """
        codes = np.frombuffer(self.moves.encode("ascii"), dtype=np.uint8)
        xs, ys = self.xy
        down = codes == ord("D")
        vertical = down | (codes == ord("U"))
        rows = ys[vertical] - down[vertical]
        return np.sort(pack(rows, xs[vertical]))

    @cached_property
    def _rows(self) -> Dict[int, List[int]]:
        """The same edges as sorted per-row lists, for scalar lookups."""
        return row_lists(self._edge_keys)

    def contains_cell(self, cell: Point) -> bool:
        xs = self._rows.get(cell[1])
        if not xs:
            return False
        return bisect_right(xs, cell[0]) % 2 == 1

    def contains_cells(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``contains_cell`` over int64 coordinate arrays, as a bool array."""
        return odd_at_or_left(self._edge_keys, ys, xs)

    def vertex_in_closure(self, v: Point) -> bool:
        x, y = v
        return (
            self.contains_cell((x, y))
            or self.contains_cell((x - 1, y))
            or self.contains_cell((x, y - 1))
            or self.contains_cell((x - 1, y - 1))
        )

    def cells(self) -> Iterator[Point]:
        """All cells of the region, row by row.  Costs O(area)."""
        for row, xs in sorted(self._rows.items()):
            for k in range(0, len(xs), 2):
                for x in range(xs[k], xs[k + 1]):
                    yield (x, row)

    def to_json(self) -> str:
        payload = {"moves": self.moves}
        if self.name is not None:
            payload["name"] = self.name
        return json.dumps(payload)

    def __repr__(self) -> str:
        label = self.name or self.moves[:16] + ("..." if len(self.moves) > 16 else "")
        return f"RegionBoundary({label!r}, p={self.p}, n={self.area})"


def closed_walk(dx: np.ndarray, dy: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """The vertices of the walk from the origin along the int64 unit steps
    (dx, dy), as two arrays in walk order, and its shoelace sum.

    The sum is twice the signed area on the square lattice and the signed
    triangle count in axial coordinates.  Raises ``NotClosed`` when the
    walk is empty or does not return to the origin, ``EmptyInterior`` when
    the sum is 0 and ``SelfIntersecting``, naming the first repeat, when a
    vertex is visited twice.  Coordinates must lie in [-2**31, 2**31)."""
    if not len(dx):
        raise NotClosed("empty boundary word")
    xs, ys = np.cumsum(dx), np.cumsum(dy)
    end = (int(xs[-1]), int(ys[-1]))
    if end != (0, 0):
        raise NotClosed(f"walk ends at {end}, not at the origin")
    xs -= dx
    ys -= dy
    twice = int((xs * dy - ys * dx).sum())
    if twice == 0:
        raise EmptyInterior("boundary encloses no area")
    if len(sorted_unique(pack(xs, ys))) < len(xs):
        repeat = first_repeat(zip(xs.tolist(), ys.tolist()))
        raise SelfIntersecting(f"vertex {repeat} visited twice")
    return xs, ys, twice


def walk_back(xs: np.ndarray) -> np.ndarray:
    """One coordinate of the vertices of a closed walk, for the reversed
    walk from the same first vertex."""
    return np.concatenate((xs[:1], xs[:0:-1]))


def parse_boundary(text: str) -> RegionBoundary:
    """Parse a boundary word (or a JSON wrapper around one) into a region.

    Whitespace is ignored and case does not matter.  Unknown characters
    raise ``ValueError`` whose ``args[1]`` is the offending index in the
    cleaned-up word; so does a JSON wrapper without a ``"moves"`` string.
    """
    name = None
    stripped = text.strip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
        word = payload.get("moves")
        if not isinstance(word, str):
            raise ValueError('JSON input needs a "moves" string')
        name = payload.get("name")
    else:
        word = stripped
    cleaned = "".join(word.split()).upper()
    # "replace" keeps one byte per character, so indices carry over.
    codes = np.frombuffer(cleaned.encode("ascii", "replace"), dtype=np.uint8)
    bad = _BAD[codes]
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"invalid move {cleaned[i]!r} at index {i}", i)

    xs, ys, twice = closed_walk(_STEP_X[codes], _STEP_Y[codes])
    if twice < 0:
        cleaned = cleaned[::-1].translate(_INVERSE)
        xs, ys, twice = walk_back(xs), walk_back(ys), -twice
    return RegionBoundary(cleaned, (xs, ys), twice // 2, name)


class BoundaryHeight:
    """Heights along a boundary walk of either lattice, anchored at 0 on
    its first vertex: an int64 array in walk order.

    ``valid`` is False when the walk's forced increments fail to close up,
    which happens exactly when the region's two kinds of face (cell
    colours, or upward and downward triangles) are unbalanced.  Invalidity
    is a value, not an exception: callers turn it into an untileability
    verdict.
    """

    __slots__ = ("heights", "valid")

    def __init__(self, heights: np.ndarray, valid: bool):
        self.heights = heights
        self.valid = valid

    @classmethod
    def of_steps(cls, step: np.ndarray) -> "BoundaryHeight":
        """The heights of the walk whose edge i changes the height by
        ``step[i]``."""
        total = np.cumsum(step)
        return cls(total - step, bool(total[-1] == 0))


def boundary_height(b: RegionBoundary) -> BoundaryHeight:
    """The step along an edge is +1 when the cell on its left is black,
    that is when tail x + y + dx is even, else -1."""
    xs, ys = b.xy
    dx = _STEP_X[np.frombuffer(b.moves.encode("ascii"), dtype=np.uint8)]
    return BoundaryHeight.of_steps(1 - 2 * ((xs + ys + dx) & 1))
