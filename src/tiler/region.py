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
    """The distinct values of an int64 array, in increasing order: the
    packed vertices of ``closed_walk``'s revisit check and the site keys
    of the site graph.

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


def turn_table(n: int) -> np.ndarray:
    """Corner masks of a simple counterclockwise walk on a lattice with n
    unit directions, numbered counterclockwise, by incoming direction i and
    outgoing direction o.  Sector k around a vertex lies between directions
    k and k + 1.  A vertex meets exactly two boundary edges and the region
    lies on the walk's left, so its sectors there are those swept
    counterclockwise from o to the reversed incoming direction i + n/2."""
    table = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for o in range(n):
            for k in range((i + n // 2 - o) % n):
                table[i, o] |= 1 << (o + k) % n
    return table


def corner_masks(dirs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each vertex's corner mask from the directions of a closed walk's
    edges (edge i leaves vertex i) and ``turn_table``'s table."""
    return table[np.concatenate((dirs[-1:], dirs[:-1])), dirs]


_SQUARE_TURNS = turn_table(4)


def crossing_keys(xy: Tuple[np.ndarray, np.ndarray], steps: Tuple[np.ndarray, np.ndarray],
                  scale: int) -> np.ndarray:
    """Sorted ``pack(row, pos)`` keys of the edges of a closed walk that
    cross a row, from its vertices (x, y) and unit steps (dx, dy): the
    edge from (x, y) with dy != 0 cuts row y, or y - 1 when it runs down,
    at position scale * x + dx.  Squares use scale 1 (a vertical edge sits
    at its x); lozenges use scale 2 (two faces per anchor in a strip)."""
    x, y = xy
    dx, dy = steps
    cut = dy != 0
    return np.sort(pack(y[cut] - (dy[cut] < 0), scale * x[cut] + dx[cut]))


def rows_of(keys: np.ndarray) -> Dict[int, List[int]]:
    """A dict from row to its sorted xs, from nonempty sorted
    ``pack(row, x)`` keys: one Python list per row, for ``bisect``."""
    rows, xs = unpack(keys)
    cut = (np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()
    xs = xs.tolist()
    return {row: xs[lo:hi] for row, lo, hi in
            zip(rows[[0] + cut].tolist(), [0] + cut, cut + [len(xs)])}


def spans(keys: np.ndarray) -> Iterator[Tuple[int, int, int]]:
    """The inside runs (row, start, stop) of the sorted ``pack(row, x)``
    crossing keys of a closed walk, row by row.  Every row holds an even
    number of crossings, so consecutive keys pair up within a row."""
    rows, xs = unpack(keys)
    return zip(rows[::2].tolist(), xs[::2].tolist(), xs[1::2].tolist())


class RegionBoundary:
    """A validated, counterclockwise boundary walk anchored at the origin.

    Attributes:
      moves: the normalised move word, one character per edge.
      xy: the p boundary vertices in walk order, starting at (0, 0), as
        two int64 arrays x and y.
      steps: the unit step (dx, dy) of each edge, as two int64 arrays.
      vertices: the same as (x, y) tuples, built on first access; the
        decision never builds them.
      area: number of cells enclosed.
      name: optional label carried through from the input.
    """

    def __init__(self, moves: str, xy: Tuple[np.ndarray, np.ndarray],
                 steps: Tuple[np.ndarray, np.ndarray], area: int, name: Optional[str] = None):
        self.moves = moves
        self.xy = xy
        self.steps = steps
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
    def corner_masks(self) -> np.ndarray:
        """The 4-bit mask of the region's cells around each vertex, in walk
        order.  R, U, L, D are directions 0 to 3, so bits 0 to 3 are the
        cells at offsets (0, 0), (-1, 0), (-1, -1) and (0, -1) from the
        vertex."""
        dx, dy = self.steps
        # dy is odd on U and D, and dx + dy is -1 on L and D.
        return corner_masks(dy & 1 | (dx + dy) & 2, _SQUARE_TURNS)

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        """Sorted ``pack(row, x)`` keys of the vertical boundary edges.

        Passing them left to right along a row alternates outside/inside,
        so a cell is inside iff an odd number of them sit at or left of it.
        """
        return crossing_keys(self.xy, self.steps, 1)

    @cached_property
    def _row_crossings(self) -> Dict[int, List[int]]:
        """The same keys as a dict from row to its sorted crossing xs, for
        scalar lookups."""
        return rows_of(self._edge_keys)

    def contains_cell(self, cell: Point) -> bool:
        """Whether the cell is in the region: an odd number of its row's
        crossings sit at or left of it."""
        x, y = cell
        xs = self._row_crossings.get(y)
        return xs is not None and bisect_right(xs, x) & 1 == 1

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
        for row, lo, hi in spans(self._edge_keys):
            for x in range(lo, hi):
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

    dx, dy = _STEP_X[codes], _STEP_Y[codes]
    xs, ys, twice = closed_walk(dx, dy)
    if twice < 0:
        cleaned = cleaned[::-1].translate(_INVERSE)
        xs, ys, twice = walk_back(xs), walk_back(ys), -twice
        dx, dy = -dx[::-1], -dy[::-1]
    return RegionBoundary(cleaned, (xs, ys), (dx, dy), twice // 2, name)


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
    dx, _ = b.steps
    return BoundaryHeight.of_steps(1 - 2 * ((xs + ys + dx) & 1))
