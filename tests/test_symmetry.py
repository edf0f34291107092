"""Property tests: the verdict is a property of the region, not of how its
boundary word is written.

Each random region is rewritten under the eight symmetries of the square
lattice, a cyclic shift of the word's start and reversed orientation;
``decide_tileable`` must give the same ``tileable`` and ``reason`` for
every form.  Starting the word at the region's top-right bounding-box
corner puts every normalised vertex in the quadrant x, y <= 0, which
exercises the packed keys on negative coordinates.  Random triangular
regions get the same treatment under the twelve symmetries of the
triangular lattice, through ``decide_lozenge``.  On both lattices,
starting the word at another boundary vertex translates the sites and
shifts every maximal height by one constant.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from tiler import decide_tileable
from tiler.lattice import alpha
from tiler.generators import dilate, snake, spiral
from tiler.lozenge import decide_lozenge, parse_lozenge, random_lozenge_region
from tiler.reference import random_region
from tiler.region import INVERSE, MOVES, parse_boundary

from brute import tri_alpha

# The eight linear maps of the lattice onto itself, as (dx, dy) -> (dx', dy').
SYMMETRIES = (
    lambda x, y: (x, y), lambda x, y: (-y, x), lambda x, y: (-x, -y),
    lambda x, y: (y, -x), lambda x, y: (-x, y), lambda x, y: (x, -y),
    lambda x, y: (y, x), lambda x, y: (-y, -x),
)
LETTER = {step: m for m, step in MOVES.items()}

SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def transform(word, sym):
    return "".join(LETTER[sym(*MOVES[m])] for m in word)


def shift(word, k):
    return word[k:] + word[:k]


def reverse(word):
    return "".join(INVERSE[m] for m in reversed(word))


def start_at_top_right(word):
    """The word started at its bounding box's top-right corner, or None
    when that corner is not a boundary vertex."""
    x = y = 0
    verts = []
    for m in word:
        verts.append((x, y))
        x, y = x + MOVES[m][0], y + MOVES[m][1]
    corner = (max(v[0] for v in verts), max(v[1] for v in verts))
    return shift(word, verts.index(corner)) if corner in verts else None


def check_witness(v):
    if v.reason != "bad-pair":
        return
    w = v.witness
    assert w.alpha_xy == alpha(w.x, w.y) and w.alpha_yx == alpha(w.y, w.x)
    assert w.gy - w.gx > w.alpha_xy or w.gx - w.gy > w.alpha_yx


regions = st.builds(lambda seed, area: random_region(random.Random(seed), area).moves,
                    st.integers(0, 2 ** 32 - 1), st.integers(2, 400))


@SETTINGS
@given(regions, st.data())
def test_verdict_is_invariant_under_rewriting(word, data):
    v = decide_tileable(word)
    check_witness(v)
    assert decide_tileable(word).witness == v.witness
    forms = [transform(word, sym) for sym in SYMMETRIES[1:]]
    forms.append(shift(word, data.draw(st.integers(1, len(word) - 1))))
    forms.append(reverse(word))
    corner = start_at_top_right(word)
    if corner is not None:
        forms.append(corner)
    for form in forms:
        other = decide_tileable(form)
        assert (other.tileable, other.reason) == (v.tileable, v.reason), form
        check_witness(other)


def test_regions_in_the_negative_quadrant():
    # A rectangle, an odd square, the smallest bad-pair shape, a dumbbell
    # of two 3 x 3 squares, then random regions.
    words = ["RRRRUUULLLLDDD", "RRRUUULLLDDD", "RDRURRULULDLLD",
             "RRRURRDRRRUUULLLDLLULLLDDD"]
    rng = random.Random(2718)
    words += [random_region(rng, rng.randrange(6, 200)).moves for _ in range(40)]
    kinds = set()
    for word in words:
        corner = start_at_top_right(word)
        if corner is None:
            continue
        b = parse_boundary(corner)
        assert max(x for x, _ in b.vertices) == 0 == max(y for _, y in b.vertices)
        v = decide_tileable(word)
        w = decide_tileable(b)
        assert (w.tileable, w.reason) == (v.tileable, v.reason), corner
        check_witness(w)
        kinds.add(w.reason)
    assert kinds == {"ok", "bad-pair", "unbalanced-boundary"}


# Rotation by 60 degrees and the reflection swapping v1 and v2, as maps of
# the move tokens; together they generate the twelve symmetries of the
# triangular lattice.
ROTATE = {1: -3, -3: 2, 2: -1, -1: 3, 3: -2, -2: 1}
REFLECT = {1: 2, 2: 1, 3: 3, -1: -2, -2: -1, -3: -3}


def tri_symmetries():
    maps = []
    for reflect in (False, True):
        m = {t: REFLECT[t] if reflect else t for t in ROTATE}
        for _ in range(6):
            maps.append(m)
            m = {t: ROTATE[u] for t, u in m.items()}
    return maps


TRI_SYMMETRIES = tri_symmetries()


def tri_word(moves):
    return ",".join(map(str, moves))


def check_tri_witness(v):
    if v.reason != "bad-pair":
        return
    w = v.witness
    assert w.alpha_xy == tri_alpha(w.x, w.y) and w.alpha_yx == tri_alpha(w.y, w.x)
    assert w.gy - w.gx > w.alpha_xy or w.gx - w.gy > w.alpha_yx


tri_regions = st.builds(
    lambda seed, size: random_lozenge_region(random.Random(seed), size),
    st.integers(0, 2 ** 32 - 1), st.integers(2, 380)).filter(lambda b: b.n <= 400)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(tri_regions, st.data())
def test_lozenge_verdict_is_invariant_under_rewriting(b, data):
    word = b.word
    v = decide_lozenge(word)
    check_tri_witness(v)
    assert decide_lozenge(word).witness == v.witness
    moves = list(b.moves)
    assert len({tuple(sorted(m.items())) for m in TRI_SYMMETRIES}) == 12
    forms = [tri_word(m[t] for t in moves) for m in TRI_SYMMETRIES[1:]]
    k = data.draw(st.integers(1, len(moves) - 1))
    forms.append(tri_word(moves[k:] + moves[:k]))
    forms.append(tri_word(-t for t in reversed(moves)))
    for form in forms:
        other = decide_lozenge(form)
        assert (other.tileable, other.reason) == (v.tileable, v.reason), form
        check_tri_witness(other)


def _plane_heights(v, plane):
    """A tileable verdict's heights keyed by plane coordinates: (x, y) on
    the square lattice, axial (q, r) on the triangular one."""
    coords, g = v.site_heights
    return dict(zip(map(tuple, plane(coords).tolist()), g.tolist()))


LATTICES = {
    "square": (random_region, decide_tileable, lambda b: b.xy, lambda c: c,
               lambda moves: "".join(moves), 2),
    "lozenge": (random_lozenge_region, decide_lozenge, lambda b: b.qr,
                lambda c: c[:, :2] - c[:, 2:], tri_word, 1),
}

# Tileable words of the benchmark's large workloads, 46,080 to 540,000
# cells or triangles.
LARGE = {
    "square": lambda: [dilate(snake(6, 3), 48), dilate(spiral(2), 100)],
    "lozenge": lambda: [tri_word(m for m in (1, -3, 2, -1, 3, -2) for _ in range(k))
                        for k in (250, 300)],
}
PARSE = {"square": parse_boundary, "lozenge": parse_lozenge}


def _check_reanchoring(lattice, b, k):
    _, decide, vertices, plane, word, _ = LATTICES[lattice]
    v = decide(b)
    assert v.tileable
    moves = list(b.moves)
    other = decide(word(moves[k:] + moves[:k]))
    assert (other.reason, other.sites, other.edges) == (v.reason, v.sites, v.edges)
    us, vs = vertices(b)
    origin = (int(us[k]), int(vs[k]))
    heights = _plane_heights(v, plane)
    moved = {(a - origin[0], c - origin[1]): h for (a, c), h in heights.items()}
    got = _plane_heights(other, plane)
    assert got.keys() == moved.keys()
    assert {got[s] - h for s, h in moved.items()} == {-heights[origin]}


@pytest.mark.parametrize("lattice", LATTICES)
def test_reanchoring_translates_the_sites_and_shifts_every_height(lattice):
    # Starting the word at boundary vertex k moves the origin there.  The
    # sites translate with it and the maximal heights drop by the old
    # height of vertex k.  On the square lattice an odd k swaps the cell
    # colours, so only even offsets keep the heights.  Each large word is
    # restarted at two offsets.
    draw, decide, _, _, _, step = LATTICES[lattice]
    rng = random.Random(20261019)
    checked = 0
    while checked < 40:
        b = draw(rng, 200)
        if not decide(b).tileable:
            continue
        _check_reanchoring(lattice, b, step * rng.randrange(1, b.p // step))
        checked += 1
    for word in LARGE[lattice]():
        b = PARSE[lattice](word)
        for _ in range(2):
            _check_reanchoring(lattice, b, step * rng.randrange(1, b.p // step))


def dumbbell(m):
    """Two (2m+1) x (2m+1) squares joined at mid-height by a corridor one
    cell wide and two long: balanced for odd m, and untileable."""
    s = 2 * m + 1
    return ("R" * s + "U" * m + "RR" + "D" * m + "R" * s + "U" * s
            + "L" * s + "D" * m + "LL" + "U" * m + "L" * s + "D" * s)


def tri_dilate(base, k):
    return tri_word(t for t in base for _ in range(k))


# Balanced words of the benchmark's large workloads, p = 1,500 to 6,000,
# with their verdicts by construction.
BALANCED_LARGE = {
    "square": lambda: [(dilate(snake(6, 3), 48), "ok"), (dilate(snake(6, 3), 96), "ok"),
                       (dilate(spiral(2), 100), "ok"),
                       (dumbbell(125), "bad-pair"), (dumbbell(187), "bad-pair")],
    "lozenge": lambda: [(tri_dilate((1, -3, 2, -1, 3, -2), k), "ok")
                        for k in (250, 300, 400, 500, 600)]
    + [(tri_dilate((1, -2, 1, -3, -1, -3, -1, 2, 3, 3), k), "bad-pair")
       for k in (150, 200, 250, 300, 400)],
}


@pytest.mark.parametrize("lattice", BALANCED_LARGE)
def test_lattice_symmetries_keep_the_verdict_at_scale(lattice):
    # The corner masks come from tables of turns, which depend on the
    # orientation of each step: every image of a large balanced word under
    # the lattice's symmetries keeps the verdict and a valid witness.
    for word, reason in BALANCED_LARGE[lattice]():
        if lattice == "square":
            forms = [transform(word, sym) for sym in SYMMETRIES]
            decide, check = decide_tileable, check_witness
        else:
            moves = [int(t) for t in word.split(",")]
            forms = [tri_word(m[t] for t in moves) for m in TRI_SYMMETRIES]
            decide, check = decide_lozenge, check_tri_witness
        for form in forms:
            v = decide(form)
            assert (v.tileable, v.reason) == (reason == "ok", reason), form[:40]
            check(v)
