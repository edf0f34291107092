"""Square-lattice geometry: colouring, edge height increments, and the
maximal height gap ``alpha``.

Conventions used throughout the package:

* A lattice point is a plain ``(x, y)`` tuple of ints.
* The cell ``(cx, cy)`` is the closed unit square with corners ``(cx, cy)``
  and ``(cx + 1, cy + 1)``.  It is white when ``cx + cy`` is even, so the
  cell touching the origin from the north-east is white.
* Heights follow the classical rule: walking an edge that is not crossed by
  a domino, with a white cell on the left, decreases the height by 1;
  with a black cell on the left it increases by 1.  An edge crossed by a
  domino takes the only other admissible increment (off by 4).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Tuple

import numpy as np

from tiler.errors import NotAdjacent

Point = Tuple[int, int]
Cell = Tuple[int, int]


class Color(enum.Enum):
    WHITE = "white"
    BLACK = "black"


class EdgeDeltas(NamedTuple):
    """The two admissible height increments along a directed lattice edge.

    ``step`` applies when the edge belongs to the tiling (no domino crosses
    it), ``crossed`` when a domino straddles it.  One is always positive and
    the other negative, and they differ by 4.
    """

    step: int
    crossed: int


def cell_color(cell: Cell) -> Color:
    return Color.WHITE if (cell[0] + cell[1]) % 2 == 0 else Color.BLACK


def left_cell(tail: Point, head: Point) -> Cell:
    """The cell lying to the left when travelling from ``tail`` to ``head``."""
    dx = head[0] - tail[0]
    dy = head[1] - tail[1]
    if dx * dx + dy * dy != 1:
        raise NotAdjacent(f"{tail} -> {head} is not a unit lattice edge")
    return (
        (2 * tail[0] + dx - dy - 1) // 2,
        (2 * tail[1] + dy + dx - 1) // 2,
    )


def edge_deltas(tail: Point, head: Point) -> EdgeDeltas:
    cx, cy = left_cell(tail, head)
    step = -1 if (cx + cy) % 2 == 0 else 1
    return EdgeDeltas(step, step - 4 * (1 if step > 0 else -1))


def edge_step(tail: Point, head: Point) -> int:
    """``edge_deltas(tail, head).step`` without the tuple allocation."""
    dx = head[0] - tail[0]
    # Parity of the left cell's coordinate sum: tx + ty + dx - 1.
    return 1 if (tail[0] + tail[1] + dx) % 2 == 0 else -1


def edge_max_delta(tail: Point, head: Point) -> int:
    """The larger admissible increment from ``tail`` to ``head`` (1 or 3)."""
    return 3 if edge_step(tail, head) < 0 else 1


def cheb(a: Point, b: Point) -> int:
    """Chebyshev (king-move) distance."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def alpha(x: Point, y: Point) -> int:
    """Largest possible ``h(y)`` over plane height functions vanishing at x.

    Closed form: twice the Chebyshev distance, corrected by one when the
    displacement has mixed parity.  The sign of the correction depends on
    whether the displacement is closer to horizontal or vertical, and flips
    with the colour class of ``x``.  The form below is calibrated against
    the shortest-path oracle in ``tests/brute.py`` over every direction
    at radius up to 6.
    """
    i = y[0] - x[0]
    j = y[1] - x[1]
    ai = i if i >= 0 else -i
    aj = j if j >= 0 else -j
    r = ai if ai >= aj else aj
    if (i - j) % 2 == 0:
        return 2 * r
    if (x[0] - x[1]) % 2 == 0:
        return 2 * r + (1 if ai > aj else -1)
    return 2 * r + (-1 if ai > aj else 1)


def alpha_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``alpha`` row by row over (m, 2) int64 arrays of points."""
    i = y[:, 0] - x[:, 0]
    j = y[:, 1] - x[:, 1]
    ai, aj = np.abs(i), np.abs(j)
    plus = (ai > aj) ^ ((x[:, 0] - x[:, 1]) & 1).astype(bool)  # correction is +1
    return 2 * np.maximum(ai, aj) + ((i - j) & 1) * (2 * plus - 1)
