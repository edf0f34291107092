"""Boundary word parsing, normalisation, cell membership, boundary heights."""

import json
import random

import numpy as np
import pytest

from tiler.errors import EmptyInterior, NotClosed, SelfIntersecting
from tiler.reference import random_region
from tiler.region import boundary_height, pack, parse_boundary, sorted_unique

from brute import edge_step, edges


def test_square_2x2():
    b = parse_boundary("RRUULLDD")
    assert b.p == 8
    assert b.area == 4
    assert b.vertices[0] == (0, 0)
    assert b.bbox == (0, 0, 2, 2)
    assert sorted(b.cells()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_orientation_normalised():
    # Clockwise input comes out counterclockwise with the same cells.
    cw = parse_boundary("UURRDDLL")
    ccw = parse_boundary("RRUULLDD")
    assert cw.moves == ccw.moves
    assert cw.vertices == ccw.vertices
    # The kept unit steps are reversed and negated with the walk.
    for b in (cw, ccw, parse_boundary("UUURRDLDRDLL")):
        xs, ys = b.xy
        dx, dy = b.steps
        assert (np.roll(xs, -1) - xs).tolist() == dx.tolist()
        assert (np.roll(ys, -1) - ys).tolist() == dy.tolist()
    assert boundary_height(cw).heights.tolist() == boundary_height(ccw).heights.tolist()


def test_case_and_whitespace():
    b = parse_boundary("  rr uu\nll dd ")
    assert b.moves == "RRUULLDD"


def test_json_input_with_name():
    b = parse_boundary(json.dumps({"moves": "RULD", "name": "unit"}))
    assert b.name == "unit"
    assert b.area == 1
    round_tripped = parse_boundary(b.to_json())
    assert round_tripped.moves == b.moves and round_tripped.name == "unit"


def test_parse_errors():
    with pytest.raises(NotClosed):
        parse_boundary("RRU")
    with pytest.raises(NotClosed):
        parse_boundary("")
    with pytest.raises(EmptyInterior):
        parse_boundary("RL")
    with pytest.raises(EmptyInterior):
        parse_boundary("RURDLULD")  # figure eight, the two loops cancel
    with pytest.raises(SelfIntersecting):
        parse_boundary("RULDLDRU")  # two unit squares joined at a corner
    with pytest.raises(ValueError) as e:
        parse_boundary("RRXUULLDD")
    assert e.value.args[1] == 2
    for text in ('{"name": "x"}', '{"moves": 5}'):
        with pytest.raises(ValueError, match='"moves" string'):
            parse_boundary(text)


def test_l_shape_cells():
    # 2x2 square minus the north-east cell.
    b = parse_boundary("RRULULDD")
    assert b.area == 3
    assert b.contains_cell((0, 0)) and b.contains_cell((1, 0)) and b.contains_cell((0, 1))
    assert not b.contains_cell((1, 1))
    assert not b.contains_cell((-1, 0))
    assert sorted(b.cells()) == [(0, 0), (0, 1), (1, 0)]


def test_contains_cell_agrees_with_the_cells_and_the_array_form():
    rng = random.Random(5150)
    for _ in range(40):
        b = random_region(rng, rng.randrange(2, 300))
        xmin, ymin, xmax, ymax = b.bbox
        grid = [(x, y) for x in range(xmin - 2, xmax + 2) for y in range(ymin - 2, ymax + 2)]
        inside = set(b.cells())
        xs, ys = np.array(grid, dtype=np.int64).T
        want = [c in inside for c in grid]
        assert [b.contains_cell(c) for c in grid] == want == b.contains_cells(xs, ys).tolist()
    # pack(-1, 2**32) == pack(0, 0): an x past the packed range must not
    # read as the cell (0, 0).
    b = parse_boundary("RRULULDD")
    assert not b.contains_cell((2 ** 32, -1)) and not b.contains_cell((-2 ** 32, 1))


def test_vertex_in_closure():
    b = parse_boundary("RRULULDD")
    assert b.vertex_in_closure((1, 1))
    assert b.vertex_in_closure((2, 1))
    assert not b.vertex_in_closure((2, 2))
    assert not b.vertex_in_closure((3, 0))


def test_boundary_height_square():
    b = parse_boundary("RRUULLDD")
    bh = boundary_height(b)
    assert bh.valid
    expected = {
        (0, 0): 0, (1, 0): -1, (2, 0): 0, (2, 1): 1,
        (2, 2): 0, (1, 2): -1, (0, 2): 0, (0, 1): 1,
    }
    assert dict(zip(b.vertices, bh.heights.tolist())) == expected


def test_boundary_height_unbalanced_regions_invalid():
    assert not boundary_height(parse_boundary("RULD")).valid
    # T tetromino: three cells in a row plus one on top of the middle.
    t = parse_boundary("RRRULULDLD")
    assert t.area == 4
    assert not boundary_height(t).valid


def test_boundary_height_closure_tracks_colour_balance():
    rng = random.Random(11)
    for _ in range(30):
        b = random_region(rng, rng.randrange(4, 40))
        whites = sum(1 for c in b.cells() if (c[0] + c[1]) % 2 == 0)
        blacks = b.area - whites
        bh = boundary_height(b)
        assert bh.valid == (whites == blacks)
        # Walking the boundary accumulates -4 per excess white cell.
        total = sum(edge_step(u, v) for u, v in edges(b))
        assert total == -4 * (whites - blacks)


def test_area_matches_cell_count():
    rng = random.Random(5)
    for _ in range(20):
        b = random_region(rng, rng.randrange(3, 60))
        assert b.area == len(list(b.cells()))
        assert b.p == len(b.vertices) == len(b.moves)
        assert len(set(b.vertices)) == b.p


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(20261019)
    dup = rng.integers(-50, 50, size=400)
    cases = [
        np.zeros(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(33, -4, dtype=np.int64),
        rng.integers(-(1 << 62), -1, size=500),
        pack(dup, rng.integers(-(1 << 31), 1 << 31, size=400) % 5),
        pack(np.repeat(dup, 3), np.tile([-(1 << 31), 0, (1 << 31) - 1], 400)),
        rng.integers(0, 1 << 40, size=(30, 40)),
    ]
    for keys in cases:
        got = sorted_unique(keys)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(keys))
