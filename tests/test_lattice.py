"""Plane geometry: colours, edge increments and alpha.

The closed-form ``alpha`` is the piece most worth distrusting, so it is
checked exhaustively against the explicit shortest-path oracle of
``brute.py`` out to a radius well past every case split in the formula.
"""

import random
from itertools import product

import numpy as np
import pytest

from tiler.lattice import alpha

from brute import (Color, NotAdjacent, RadiusExceeded, alpha_array, alpha_oracle, cell_color,
                   edge_deltas, edge_max_delta, edge_step, left_cell)

BOX = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
AXIS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def test_cell_colors():
    assert cell_color((0, 0)) is Color.WHITE
    assert cell_color((1, 0)) is Color.BLACK
    assert cell_color((-1, 0)) is Color.BLACK
    assert cell_color((-1, -1)) is Color.WHITE


def test_left_cell_frozen():
    assert left_cell((0, 0), (1, 0)) == (0, 0)     # east: left is north
    assert left_cell((0, 0), (0, 1)) == (-1, 0)    # north: left is west
    assert left_cell((1, 1), (0, 1)) == (0, 0)     # west: left is south
    assert left_cell((0, 1), (0, 0)) == (0, 0)     # south: left is east


def test_left_cell_rejects_non_edges():
    for head in [(0, 0), (1, 1), (2, 0), (-1, 1)]:
        with pytest.raises(NotAdjacent):
            left_cell((0, 0), head)


def test_edge_deltas_frozen():
    assert edge_deltas((0, 0), (1, 0)) == (-1, 3)
    assert edge_deltas((0, 0), (0, 1)) == (1, -3)
    assert edge_deltas((1, 0), (0, 0)) == (1, -3)
    assert edge_deltas((0, 1), (0, 0)) == (-1, 3)


def test_edge_rules_everywhere():
    for tail in BOX:
        for d in AXIS:
            head = (tail[0] + d[0], tail[1] + d[1])
            deltas = edge_deltas(tail, head)
            # step is the colour rule, crossed the unique other choice.
            expected = -1 if cell_color(left_cell(tail, head)) is Color.WHITE else 1
            assert deltas.step == expected
            assert deltas.crossed == deltas.step - 4 * (1 if deltas.step > 0 else -1)
            assert edge_step(tail, head) == deltas.step
            # Reversing the edge flips both increments.
            rev = edge_deltas(head, tail)
            assert rev.step == -deltas.step and rev.crossed == -deltas.crossed
            assert edge_max_delta(tail, head) == max(deltas)
            assert {abs(deltas.step), abs(deltas.crossed)} == {1, 3}


def test_alpha_frozen():
    assert alpha((0, 0), (1, 0)) == 3
    assert alpha((0, 0), (0, 1)) == 1
    assert alpha((0, 0), (-1, 0)) == 3
    assert alpha((0, 0), (0, -1)) == 1
    assert alpha((0, 0), (1, 1)) == 2
    assert alpha((0, 0), (2, 0)) == 4
    assert alpha((1, 0), (2, 0)) == 1
    assert alpha((1, 0), (1, 1)) == 3
    assert alpha((0, 0), (0, 0)) == 0


def test_alpha_matches_oracle_exhaustively():
    # Both colour classes of the base point, every direction, radius 4.
    for x in [(0, 0), (1, 0)]:
        for i in range(-4, 5):
            for j in range(-4, 5):
                y = (x[0] + i, x[1] + j)
                assert alpha(x, y) == alpha_oracle(x, y), (x, y)


def test_alpha_translation_invariance():
    rng = random.Random(20260823)
    for _ in range(200):
        x = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        d = (rng.randrange(-6, 7), rng.randrange(-6, 7))
        t = (2 * rng.randrange(-10, 10), 2 * rng.randrange(-10, 10))
        y = (x[0] + d[0], x[1] + d[1])
        assert alpha(x, y) == alpha((x[0] + t[0], x[1] + t[1]), (y[0] + t[0], y[1] + t[1]))
        # Translating by an odd vector swaps the colour class instead.
        s = (t[0] + 1, t[1])
        assert alpha((x[0] + s[0], x[1] + s[1]), (y[0] + s[0], y[1] + s[1])) == alpha(
            (x[0] + 1, x[1]), (x[0] + 1 + d[0], x[1] + d[1])
        )


def test_alpha_adjacent_is_edge_max_delta():
    for u in BOX:
        for d in AXIS:
            v = (u[0] + d[0], u[1] + d[1])
            assert alpha(u, v) == edge_max_delta(u, v)


def test_alpha_triangle_inequality():
    rng = random.Random(7)
    for _ in range(2000):
        pts = [(rng.randrange(-8, 9), rng.randrange(-8, 9)) for _ in range(3)]
        x, y, z = pts
        assert alpha(x, z) <= alpha(x, y) + alpha(y, z)
        assert alpha(x, y) >= (1 if x != y else 0)


def test_alpha_oracle_radius_guard():
    with pytest.raises(RadiusExceeded):
        alpha_oracle((0, 0), (17, 0))


def test_alpha_array_matches_alpha_radius_6():
    # Origins of both colour classes and both parities of x - y, one of
    # them far in the negative quadrant.
    pairs = [(x, (x[0] + dx, x[1] + dy))
             for x in ((0, 0), (1, 0), (0, 1), (1, 1), (-7, -4))
             for dx, dy in product(range(-6, 7), repeat=2)]
    xs = np.array([x for x, _ in pairs], dtype=np.int64)
    ys = np.array([y for _, y in pairs], dtype=np.int64)
    rise, fall = alpha_array(xs, ys)
    assert rise.tolist() == [alpha(x, y) for x, y in pairs]
    assert fall.tolist() == [alpha(y, x) for x, y in pairs]
