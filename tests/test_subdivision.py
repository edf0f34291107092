"""Quadtree construction around boundaries: crossed-square census,
in/out classification, and the boundary sleeve of unit triangles."""

import random

import pytest

import digest
from tiler.errors import InternalInconsistency
from tiler.generators import dilate
from tiler.reference import enumerate_simply_connected, random_region
from tiler.region import parse_boundary
from tiler.subdivision import build_subdivision

from brute import center_xy, crossed, edges


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def test_square_2x2_structure():
    b = parse_boundary("RRUULLDD")
    sub = build_subdivision(b)
    assert sub.n0 == 16 and sub.t == 4
    assert sub.si_census[0] == 1
    (root,) = crossed(sub)[0]
    assert center_xy(sub, 0, root) == (1, 1) and sub.side(0) // 2 == 16
    # Last level: one diamond per side of the square, two kept triangles
    # in each.
    centers = sorted(center_xy(sub, sub.t, k) for k in crossed(sub)[sub.t])
    assert centers == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert len(sub.triangles) == 8
    assert sorted({tri.cell for tri in sub.triangles}) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    verts = {v for tri in sub.triangles for v in tri.verts}
    assert verts == {(x, y) for x in range(3) for y in range(3)}


def test_triangles_are_ccw_quarter_cells():
    rng = random.Random(17)
    for _ in range(10):
        b = random_region(rng, 30)
        sub = build_subdivision(b)
        for tri in sub.triangles:
            apex, c1, c2 = tri.verts
            d1 = (c1[0] - apex[0], c1[1] - apex[1])
            d2 = (c2[0] - apex[0], c2[1] - apex[1])
            assert sorted((abs(d1[0]) + abs(d1[1]), abs(d2[0]) + abs(d2[1]))) == [1, 1]
            assert cross2(d1, d2) == 1
            assert b.contains_cell(tri.cell)
            for v in tri.verts:
                assert min(tri.cell[0], tri.cell[1]) - 1 <= max(v)  # cheap sanity


def test_every_boundary_edge_is_a_leg_of_one_kept_triangle():
    rng = random.Random(23)
    regions = [parse_boundary("RRUULLDD"), parse_boundary("RRRULULDLD")]
    regions += [random_region(rng, a) for a in (12, 40, 90)]
    for b in regions:
        sub = build_subdivision(b)
        legs = {}
        for tri in sub.triangles:
            apex, c1, c2 = tri.verts
            for corner in (c1, c2):
                leg = frozenset((apex, corner))
                legs[leg] = legs.get(leg, 0) + 1
        for edge in edges(b):
            assert legs.get(frozenset(edge), 0) == 1, edge


def test_boundary_edges_live_in_crossed_squares_at_every_level():
    # The crossed squares of each level are exactly those holding the
    # midpoint of a boundary edge, and the census counts them.
    rng = random.Random(4)
    b = random_region(rng, 60)
    sub = build_subdivision(b)
    by_level = crossed(sub)
    for level in range(sub.t + 1):
        keys = set()
        for tail, head in edges(b):
            u2 = (tail[0] + tail[1]) + (head[0] + head[1])
            v2 = (tail[0] - tail[1]) + (head[0] - head[1])
            s2 = 2 * sub.side(level)
            keys.add(((u2 - 2 * sub.U0) // s2, (v2 - 2 * sub.V0) // s2))
        assert by_level[level] == keys
        assert sub.si_census[level] == len(keys)


def test_array_form_agrees_with_views():
    rng = random.Random(8)
    for b in [parse_boundary("RRUULLDD")] + [random_region(rng, a) for a in (20, 90)]:
        sub = build_subdivision(b)
        assert list(map(len, sub.keys)) == sub.si_census == list(map(len, crossed(sub)))
        for keys in sub.keys:
            assert keys.tolist() == sorted(set(keys.tolist()))
        assert len(sub.inside_at[0]) == len(sub.inside_squares())
        cx, cy = sub.inside_corners()
        corners = [list(zip(xr, yr)) for xr, yr in zip(cx.tolist(), cy.tolist())]
        want = []
        for level, (iu, iv) in sub.inside_squares():
            s = sub.side(level)
            umin, vmin = sub.U0 + iu * s, sub.V0 + iv * s
            want.append(tuple(((u + v) // 2, (u - v) // 2)
                              for u, v in ((umin, vmin), (umin + s, vmin),
                                           (umin + s, vmin + s), (umin, vmin + s))))
        assert sorted(map(tuple, corners)) == sorted(want)


def _intersecting_cells(sub, level, key, bbox):
    """Cells of the expanded bbox whose open intersection with the open
    square is nonempty."""
    s = sub.side(level)
    umin, vmin = sub.U0 + key[0] * s, sub.V0 + key[1] * s
    x0, y0, x1, y1 = bbox
    for a in range(x0 - 2, x1 + 2):
        for bb in range(y0 - 2, y1 + 2):
            if a + bb + 2 > umin and a + bb < umin + s and a - bb + 1 > vmin and a - bb - 1 < vmin + s:
                yield (a, bb)


def _uncrossed_children(sub, level):
    by_level = crossed(sub)
    for piu, piv in by_level[level - 1]:
        for key in ((2 * piu, 2 * piv), (2 * piu + 1, 2 * piv),
                    (2 * piu, 2 * piv + 1), (2 * piu + 1, 2 * piv + 1)):
            if key not in by_level[level]:
                yield key


def test_classification_agrees_with_cell_membership():
    rng = random.Random(31)
    regions = [parse_boundary("RRUULLDD")] + [random_region(rng, a) for a in (9, 25, 70)]
    for b in regions:
        sub = build_subdivision(b)
        inside_squares = set(sub.inside_squares())
        checked = 0
        for level in range(1, sub.t + 1):
            for key in _uncrossed_children(sub, level):
                inside = (level, key) in inside_squares
                for cell in _intersecting_cells(sub, level, key, b.bbox):
                    assert b.contains_cell(cell) == inside, (level, key, cell)
                    checked += 1
        assert checked > 0


def test_inside_squares_exist_for_fat_regions():
    # A 12x12 block has room for classified-inside squares well away from
    # the boundary sleeve.
    word = "R" * 12 + "U" * 12 + "L" * 12 + "D" * 12
    sub = build_subdivision(parse_boundary(word))
    inside_squares = set(sub.inside_squares())
    assert inside_squares
    assert any((level, key) not in inside_squares
               for level in range(1, sub.t + 1)
               for key in _uncrossed_children(sub, level))


def test_census_bound_over_enumerated_regions():
    for b in enumerate_simply_connected(6):
        sub = build_subdivision(b)  # raises InternalInconsistency on violation
        for level in range(1, sub.t + 1):
            assert sub.si_census[level] < 9 * 2 ** (level - 1)


def test_census_bound_on_larger_random_regions():
    rng = random.Random(101)
    for target in (50, 200, 500):
        b = random_region(rng, target)
        build_subdivision(b)


def test_crossed_last_level_squares_are_centred_on_every_other_vertex():
    # Each boundary edge lies in the side-2 square centred on its end with
    # u - U0 odd, and along the walk u alternates in parity: the crossed
    # squares of the last level are centred on the vertices i0, i0 + 2, ...
    rng = random.Random(77)
    regions = [random_region(rng, rng.randrange(2, 401)) for _ in range(40)]
    regions += [parse_boundary(w) for _, group in digest.FAMILIES["large"]()
                for lattice, w in group if lattice == "sq"]
    for b in regions:
        sub = build_subdivision(b)
        assert sub.si_census[sub.t] == b.p // 2
        i0 = (sub.U0 + 1) & 1
        centres = {center_xy(sub, sub.t, key) for key in crossed(sub)[sub.t]}
        assert centres == set(b.vertices[i0::2])


def test_inside_squares_and_triangles_cover_the_region_at_benchmark_scale():
    # An inside square of side s in (u, v) covers s**2 / 2 cells and a kept
    # triangle half a cell.  Inputs: the 15 large square words of the
    # benchmark and random regions dilated by 2, up to area 10**5.
    rng = random.Random(2026)
    words = [w for _, group in digest.FAMILIES["large"]() for lattice, w in group
             if lattice == "sq"]
    targets = [10, 100, 1000, 10000, 25000] + [rng.randrange(10, 25001) for _ in range(5)]
    words += [dilate(random_region(rng, k).moves, 2) for k in targets]
    assert len(words) == 25
    for word in words:
        b = parse_boundary(word)
        sub = build_subdivision(b)
        squares = sum(sub.side(level) ** 2 for level, _ in sub.inside_squares())
        assert squares + len(sub.triangles) == 2 * b.area, (b.p, b.area)
