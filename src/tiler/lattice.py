"""Square-lattice geometry: the maximal height gap ``alpha``.

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

from typing import Tuple

Point = Tuple[int, int]


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

