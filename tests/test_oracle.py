"""Per-vertex and per-cell queries against the maximum tiling."""

import math
import random

import pytest

from tiler.errors import InternalInconsistency, NotTileable, OutsideRegion
from tiler.generators import dilate, rect, snake, spiral
from tiler.oracle import TilingOracle
from tiler.reference import (enumerate_simply_connected, extract_tiling,
                             random_tileable_region, thurston_full)
from tiler.region import boundary_height, parse_boundary

from brute import verify_tiling


def closure_vertices(b):
    pts = set(b.vertices)
    for cx, cy in b.cells():
        pts.update(((cx, cy), (cx + 1, cy), (cx, cy + 1), (cx + 1, cy + 1)))
    return sorted(pts)


def assert_exact(b):
    ref = thurston_full(b)
    orc = TilingOracle(b)
    for w in closure_vertices(b):
        assert orc.height_at(w) == ref.heights[w], (b.moves, w)
    return orc


def test_two_by_two_needs_no_refinement():
    orc = TilingOracle("RRUULLDD")
    for x in range(3):
        for y in range(3):
            orc.height_at((x, y))
    assert orc.stats["points_added"] == 0
    assert orc.stats["boxes_split"] == 0
    assert orc.height_at((1, 1)) == 2


def test_enumerated_regions_exact():
    for b in enumerate_simply_connected(6):
        try:
            valid = boundary_height(b).valid
        except Exception:
            continue
        if not valid:
            continue
        if thurston_full(b).tileable:
            assert_exact(b)
        else:
            with pytest.raises(NotTileable):
                TilingOracle(b)


def test_random_regions_exact():
    rng = random.Random(4021)
    for _ in range(20):
        b = random_tileable_region(rng, rng.randrange(15, 70))
        assert_exact(b)


def test_dilated_corridor_exact():
    assert_exact(parse_boundary(dilate(spiral(3), 4)))


def test_query_cost_instrumentation():
    b = parse_boundary(rect(32, 32))
    ref = thurston_full(b)
    orc = TilingOracle(b)
    depth_cap = math.log2(2 * orc.sub.n0)
    for w in closure_vertices(b):
        assert orc.height_at(w) == ref.heights[w]
        assert orc.stats["last_rounds"] <= depth_cap
        assert orc.stats["last_valuations"] <= 3 * max(1, orc.stats["last_rounds"])
    # Every stored value is the exact height, not only the queried ones.
    assert all(h == ref.heights[w] for w, h in orc._values.items())
    # The dead centre of the square sits in the deepest inside squares.
    assert orc.stats["boxes_split"] > 0


def test_queries_idempotent_and_resettable():
    b = parse_boundary(rect(8, 8))
    orc = TilingOracle(b)
    first = {w: orc.height_at(w) for w in closure_vertices(b)}
    added = orc.stats["points_added"]
    again = {w: orc.height_at(w) for w in closure_vertices(b)}
    assert first == again
    assert orc.stats["points_added"] == added
    orc.reset()
    assert orc.stats["points_added"] == 0
    assert {w: orc.height_at(w) for w in closure_vertices(b)} == first


def test_domino_queries_cover_reference_tiling():
    rng = random.Random(99173)
    for _ in range(25):
        b = random_tileable_region(rng, rng.randrange(10, 60))
        ref = thurston_full(b)
        want = extract_tiling(b, ref.heights)
        orc = TilingOracle(b)
        got = set()
        for cell in b.cells():
            pl = orc.domino_at(cell)
            got.add(pl.as_pair())
            # The partner names this cell back with the same pair.
            back = orc.domino_at(pl.partner)
            assert back.partner == pl.cell
            assert back.orientation == pl.orientation
            assert pl.orientation == ("H" if pl.partner[1] == cell[1] else "V")
        assert got == want
        assert verify_tiling(b, got)


def test_whole_tiling_at_area_1e5():
    # snake(6, 3) x 70: 98,000 cells, p = 2,940.
    b = parse_boundary(dilate(snake(6, 3), 70))
    orc = TilingOracle(b)
    got = {orc.domino_at(cell).as_pair() for cell in b.cells()}
    assert verify_tiling(b, got)
    assert got == extract_tiling(b, thurston_full(b).heights)


def test_second_pass_reads_the_same_placements_and_counts_four_heights_a_query():
    b = parse_boundary(dilate(snake(6, 3), 24))
    orc = TilingOracle(b)
    cells = list(b.cells())
    first = [orc.domino_at(cell) for cell in cells]
    frozen = {k: orc.stats[k] for k in ("valuations", "points_added", "boxes_split",
                                        "last_rounds", "last_valuations")}
    heights = orc.stats["height_queries"]
    assert [orc.domino_at(cell) for cell in cells] == first
    assert {k: orc.stats[k] for k in frozen} == frozen
    assert orc.stats["height_queries"] == heights + 4 * len(cells)
    assert orc.stats["domino_queries"] == 2 * len(cells)


def test_reset_restores_the_base_lines_and_values():
    # A pass after reset repeats the first pass exactly: if reset shared
    # the base lines, the first pass's points would sit on them unvalued.
    b = parse_boundary(dilate(snake(6, 3), 24))
    orc = TilingOracle(b)
    cells = list(b.cells())
    passes = []
    for _ in range(2):
        placements = [orc.domino_at(cell) for cell in cells]
        passes.append((placements, {k: orc.stats[k] for k in
                                    ("valuations", "points_added", "boxes_split")}))
        orc.reset()
    assert passes[0][1]["points_added"] > 0
    assert passes[0] == passes[1]


def test_each_new_point_is_valued_once():
    b = parse_boundary(dilate(snake(6, 3), 24))
    orc = TilingOracle(b)
    cold = 0
    for cx, cy in b.cells():
        for w in ((cx, cy), (cx + 1, cy), (cx, cy + 1), (cx + 1, cy + 1)):
            if w not in orc._values:
                cold += 1
                added = orc.stats["points_added"]
                orc.height_at(w)
                assert orc.stats["last_valuations"] == orc.stats["points_added"] - added, w
        orc.domino_at((cx, cy))
    assert cold > 0
    assert orc.stats["valuations"] == orc.stats["points_added"] > 0


def test_domino_at_rejects_a_cell_whose_corners_are_all_valued():
    # The notch (1, 1) of this region is no cell, but its four corners
    # are boundary vertices, so all four heights are known at once.
    b = parse_boundary("RDRRRULUULDLULDD")
    orc = TilingOracle(b)
    assert b.area == 8 and not b.contains_cell((1, 1))
    assert all(v in orc._values for v in ((1, 1), (2, 1), (1, 2), (2, 2)))
    with pytest.raises(OutsideRegion):
        orc.domino_at((1, 1))


def test_two_by_one_single_domino():
    orc = TilingOracle("RRULLD")
    pl = orc.domino_at((0, 0))
    assert pl.partner == (1, 0)
    assert pl.orientation == "H"


def test_error_paths():
    orc = TilingOracle("RRUULLDD")
    with pytest.raises(OutsideRegion):
        orc.height_at((5, 5))
    with pytest.raises(OutsideRegion):
        orc.domino_at((2, 0))
    with pytest.raises(NotTileable):
        TilingOracle("RULD")
    with pytest.raises(NotTileable):
        TilingOracle("RDRURRULULDLLD")
