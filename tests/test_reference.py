"""The reference oracles are the ground truth for everything else, so they
get their own consistency checks: enumeration counts against published
polyomino counts, matching against height-field relaxation and the
brute-force pair condition, tilings against the height functions they
induce, and random regions of both lattices against simple connectivity."""

import random

import pytest

from tiler import lozenge, region
from tiler.errors import CapExceeded
from tiler.generators import rect
from tiler.lozenge import lozenge_matching_decide, parse_lozenge
from tiler.reference import (
    cells_to_boundary,
    domino,
    enumerate_simply_connected,
    extract_tiling,
    matching_decide,
    random_lozenge_region,
    random_region,
    random_tileable_region,
    thurston_full,
)
from tiler.region import boundary_height, parse_boundary

from brute import (edge_step, height_from_tiling, pairs_condition_decide,
                   valid_pairs_brute, verify_tiling)


def test_enumeration_counts():
    # Fixed polyominoes by area: 1, 2, 6, 19, 63, 216, 760, ...; every
    # shape up to area 6 is hole-free, and exactly the four orientations
    # of the 3x3 ring missing one corner have a hole at area 7.
    counts = {}
    for b in enumerate_simply_connected(7):
        counts[b.area] = counts.get(b.area, 0) + 1
    assert counts == {1: 1, 2: 2, 3: 6, 4: 19, 5: 63, 6: 216, 7: 756}


def test_enumerated_regions_round_trip():
    for b in enumerate_simply_connected(5):
        assert cells_to_boundary(set(b.cells())) == b.moves
        assert len(set(b.vertices)) == b.p


def test_matching_frozen_small_cases():
    square = parse_boundary("RRUULLDD")
    tiling = matching_decide(square)
    assert tiling is not None and len(tiling) == 2
    assert verify_tiling(square, tiling)

    strip = parse_boundary("RRULLD")
    assert matching_decide(strip) == {domino((0, 0), (1, 0))}

    assert matching_decide(parse_boundary("RULD")) is None          # odd area
    assert matching_decide(parse_boundary("RRULULDD")) is None      # L tromino
    assert matching_decide(parse_boundary("RRRULULDLD")) is None    # T tetromino


def test_matching_agrees_with_height_relaxation():
    seen = 0
    for b in enumerate_simply_connected(6):
        got_matching = matching_decide(b) is not None
        got_heights = thurston_full(b).tileable
        assert got_matching == got_heights, b.moves
        seen += 1
    assert seen == 1 + 2 + 6 + 19 + 63 + 216


def test_pair_condition_three_way_agreement_small():
    for b in enumerate_simply_connected(5):
        verdicts = {
            matching_decide(b) is not None,
            thurston_full(b).tileable,
            pairs_condition_decide(b),
        }
        assert len(verdicts) == 1, b.moves


def test_thurston_square_heights_frozen():
    b = parse_boundary("RRUULLDD")
    res = thurston_full(b)
    assert res.tileable
    bh = boundary_height(b)
    for v, h in zip(b.vertices, bh.heights.tolist()):
        assert res.heights[v] == h
    assert res.heights[(1, 1)] == 2

    # The two tilings of the square induce centre heights -2 and +2; the
    # relaxation returns the pointwise maximum.
    vertical = {domino((0, 0), (0, 1)), domino((1, 0), (1, 1))}
    horizontal = {domino((0, 0), (1, 0)), domino((0, 1), (1, 1))}
    h_v = height_from_tiling(b, vertical)
    h_h = height_from_tiling(b, horizontal)
    assert h_v[(1, 1)] == -2
    assert h_h[(1, 1)] == 2
    for v, h in res.heights.items():
        assert h == max(h_v[v], h_h[v])


def test_extraction_round_trip():
    rng = random.Random(42)
    for _ in range(25):
        b = random_tileable_region(rng, rng.randrange(6, 60))
        res = thurston_full(b)
        assert res.tileable
        tiling = extract_tiling(b, res.heights)
        assert verify_tiling(b, tiling)
        assert height_from_tiling(b, tiling) == res.heights


def test_max_heights_dominate_any_tiling():
    rng = random.Random(123)
    for _ in range(10):
        b = random_tileable_region(rng, 30)
        res = thurston_full(b)
        other = matching_decide(b)
        h_other = height_from_tiling(b, other)
        assert set(h_other) == set(res.heights)
        for v, h in h_other.items():
            assert h <= res.heights[v]


def test_interior_edge_constraints_hold():
    rng = random.Random(9)
    for _ in range(10):
        b = random_tileable_region(rng, 40)
        res = thurston_full(b)
        for (cx, cy) in b.cells():
            for u, v in [
                ((cx, cy), (cx + 1, cy)),
                ((cx, cy), (cx, cy + 1)),
                ((cx + 1, cy), (cx + 1, cy + 1)),
                ((cx, cy + 1), (cx + 1, cy + 1)),
            ]:
                diff = res.heights[v] - res.heights[u]
                assert abs(diff) <= 3
                assert (diff - edge_step(u, v)) % 4 == 0


def test_valid_pairs_domino_region():
    b = parse_boundary("RRULLD")  # single horizontal domino, 6 vertices
    pairs = valid_pairs_brute(b, b.vertices)
    unordered = {tuple(sorted(p)) for p in pairs}
    expected = {
        # the six boundary-walk edges
        ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 1)),
        ((1, 1), (2, 1)), ((0, 1), (1, 1)), ((0, 0), (0, 1)),
        # the interior vertical edge
        ((1, 0), (1, 1)),
        # diagonals through the two cells
        ((0, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (2, 1)), ((1, 1), (2, 0)),
    }
    assert unordered == expected
    assert len(pairs) == 2 * len(expected)


def test_valid_pairs_exclude_across_slots():
    # Two 1x4 towers joined at the bottom, with a width-2 well between
    # them.  Facing wall vertices have small Chebyshev distance but no
    # geodesic through the region, so they must not form pairs.
    b = parse_boundary("RRRRUUUULDDDLLUUULDDDD")
    assert b.area == 10
    pairs = valid_pairs_brute(b, b.vertices)
    for y in (2, 3, 4):
        assert ((1, y), (3, y)) not in pairs
        assert ((1, y), (3, y - 1)) not in pairs
    assert ((1, 1), (2, 1)) in pairs
    assert ((2, 1), (3, 1)) in pairs
    # Decisions still agree on this shape.
    assert pairs_condition_decide(b) == (matching_decide(b) is not None)


def test_random_regions_are_valid():
    # On both lattices a draw is simply connected (its walk revisits no
    # vertex) and at least as large as asked.  The tileable draws below
    # continue the square lattice's generator; an odd target grows to
    # the next even area, which a grower that met it exactly never gives.
    for draw, size in ((random_lozenge_region, lambda b: b.n),
                       (random_region, lambda b: b.area)):
        rng = random.Random(2026)
        for target in (3, 10, 37, 120):
            b = draw(rng, target)
            assert size(b) >= target
            assert len(set(b.vertices)) == b.p
    for target in (3, 7, 13, 50):
        t = random_tileable_region(rng, target)
        assert t.area % 2 == 0 and t.area >= target + target % 2
        assert matching_decide(t) is not None


def test_caps(monkeypatch):
    b = parse_boundary("RRUULLDD")
    with pytest.raises(CapExceeded):
        thurston_full(b, cap=3)
    with pytest.raises(CapExceeded):
        matching_decide(b, cap=3)
    monkeypatch.setenv("TILER_CAP", "2")
    with pytest.raises(CapExceeded):
        thurston_full(b)
    monkeypatch.setenv("TILER_CAP", "100")
    assert thurston_full(b).tileable
    # An explicit cap wins over the variable, which only replaces the
    # default.
    with pytest.raises(CapExceeded):
        thurston_full(b, cap=3)
    with pytest.raises(CapExceeded):
        matching_decide(b, cap=3)
    # Areas past the default caps (10**5 for matchings): each check must
    # raise before a cell or triangle is built, so building them fails.
    monkeypatch.delenv("TILER_CAP")

    def built(*_):
        raise AssertionError("cells built before the cap check")
    monkeypatch.setattr(region, "spans", built)
    monkeypatch.setattr(lozenge, "spans", built)
    b = parse_boundary(rect(400, 400))
    with pytest.raises(CapExceeded):
        matching_decide(b)
    with pytest.raises(CapExceeded):
        thurston_full(b, cap=10 ** 5)
    hexagon = parse_lozenge(",".join(",".join([m] * 130) for m in "1 -3 2 -1 3 -2".split()))
    assert hexagon.n == 6 * 130 ** 2
    with pytest.raises(CapExceeded):
        lozenge_matching_decide(hexagon)
