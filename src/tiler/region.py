"""Boundary words, region geometry, and boundary height functions.

A region is described by a single closed walk over the moves ``R``, ``U``,
``L``, ``D``.  Parsing validates that the walk closes, never revisits a
vertex (this also rejects pinch points), and encloses a nonzero area.  The
walk is then normalised: counterclockwise orientation, first vertex at the
origin.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from tiler.errors import EmptyInterior, NotClosed, SelfIntersecting
from tiler.lattice import Point, edge_step

MOVES: Dict[str, Point] = {"R": (1, 0), "U": (0, 1), "L": (-1, 0), "D": (0, -1)}
INVERSE = {"R": "L", "L": "R", "U": "D", "D": "U"}

# Unit steps indexed by the ASCII code of a move.
_STEP_X = np.zeros(128, dtype=np.int64)
_STEP_Y = np.zeros(128, dtype=np.int64)
for _m, (_dx, _dy) in MOVES.items():
    _STEP_X[ord(_m)], _STEP_Y[ord(_m)] = _dx, _dy

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
    than a sort on these mostly ordered keys.  Every sort on the decision
    path is the same ``np.argsort``, because each further numpy kernel
    adds its code pages to the resident memory of the process."""
    keys = keys.ravel()
    keys = keys[np.argsort(keys)]
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
    positions: two ``np.searchsorted`` calls and a parity test."""
    right = np.searchsorted(keys, pack(rows, pos), "right")
    left = np.searchsorted(keys, pack(rows, -_HALF), "left")
    return (right - left) & 1 == 1


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
      vertices: the p boundary vertices in walk order, starting at (0, 0).
      area: number of cells enclosed.
      name: optional label carried through from the input.
    """

    def __init__(self, moves: str, vertices: List[Point], area: int, name: Optional[str] = None):
        self.moves = moves
        self.vertices = vertices
        self.area = area
        self.name = name

    @property
    def p(self) -> int:
        return len(self.moves)

    def edges(self) -> Iterator[Tuple[Point, Point]]:
        verts = self.vertices
        for i in range(len(verts) - 1):
            yield verts[i], verts[i + 1]
        yield verts[-1], verts[0]

    @cached_property
    def xy(self) -> Tuple[np.ndarray, np.ndarray]:
        """The vertices as two int64 arrays, x and y, in walk order."""
        codes = np.frombuffer(self.moves.encode("ascii"), dtype=np.uint8)
        dx, dy = _STEP_X[codes], _STEP_Y[codes]
        xs = np.cumsum(dx) - dx
        ys = np.cumsum(dy) - dy
        return xs, ys

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
        keys = pack(rows, xs[vertical])
        return keys[np.argsort(keys)]

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


def _walk(moves: str) -> Tuple[List[Point], int]:
    """Vertices visited by the walk and twice its signed area."""
    verts = [(0, 0)]
    x = y = 0
    area2 = 0
    for m in moves:
        dx, dy = MOVES[m]
        # Shoelace contribution of the edge (x, y) -> (x + dx, y + dy).
        area2 += x * dy - y * dx
        x += dx
        y += dy
        verts.append((x, y))
    return verts, area2


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
    for i, ch in enumerate(cleaned):
        if ch not in MOVES:
            raise ValueError(f"invalid move {ch!r} at index {i}", i)
    if not cleaned:
        raise NotClosed("empty boundary word")

    verts, area2 = _walk(cleaned)
    if verts[-1] != (0, 0):
        raise NotClosed(f"walk ends at {verts[-1]}, not at the origin")
    verts.pop()
    if area2 == 0:
        raise EmptyInterior("boundary encloses no area")
    if len(set(verts)) < len(verts):
        raise SelfIntersecting(f"vertex {first_repeat(verts)} visited twice")

    if area2 < 0:
        cleaned = "".join(INVERSE[m] for m in reversed(cleaned))
        verts, area2 = _walk(cleaned)
        verts.pop()
    return RegionBoundary(cleaned, verts, area2 // 2, name)


class BoundaryHeight:
    """Heights along a boundary walk of either lattice, anchored at 0 on
    its first vertex.

    ``valid`` is False when the walk's forced increments fail to close up,
    which happens exactly when the region's two kinds of face (cell
    colours, or upward and downward triangles) are unbalanced.  Invalidity
    is a value, not an exception: callers turn it into an untileability
    verdict.
    """

    __slots__ = ("heights", "valid")

    def __init__(self, heights: Dict[Point, int], valid: bool):
        self.heights = heights
        self.valid = valid

    def __getitem__(self, v: Point) -> int:
        return self.heights[v]


def boundary_height(b: RegionBoundary) -> BoundaryHeight:
    heights: Dict[Point, int] = {}
    h = 0
    for tail, head in b.edges():
        heights[tail] = h
        h += edge_step(tail, head)
    return BoundaryHeight(heights, h == 0)
