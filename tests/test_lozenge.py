"""Triangular-grid pipeline against its brute-force counterparts.

Expected values marked as frozen were produced by the shortest-path
alpha oracle and the geodesic path enumerator of ``brute.py`` and by the
up/down triangle matching decider, then pinned.
"""

import random
import warnings
from itertools import product

import numpy as np
import pytest

import digest
from tiler.errors import EmptyInterior, NotClosed, SelfIntersecting
from tiler.approxgraph import build_graph
from tiler.lozenge import (STEPS, _moves, _piece_corners, build_tri_graph,
                           build_tri_subdivision, decide_lozenge,
                           lozenge_boundary_height, lozenge_matching_decide,
                           parse_lozenge, tri_point)
from tiler.reference import (enumerate_lozenge_regions, faces_to_lozenge_word,
                             random_lozenge_region)
from tiler.region import parse_boundary
from tiler.subdivision import build_subdivision

from brute import (SECTOR_FACES, RadiusExceeded, TriColor, batch_tri_subdivision,
                   edge_in_region, face_inside, lozenge_moves_brute, lozenge_walk, tri_alpha,
                   tri_alpha_array, tri_alpha_oracle, tri_axial, tri_color, tri_geodesic_points_brute,
                   vertex_in_closure)

HEXAGON = "1,1,-3,-3,2,2,-1,-1,3,3,-2,-2"  # H(2,2,2), 24 triangles


# ---------------------------------------------------------------------------
# Coordinates, colors, alpha.

def test_tri_point_normalization_round_trip():
    for q, r in product(range(-7, 8), repeat=2):
        p = tri_point(q, r)
        assert min(p) == 0
        assert tri_axial(p) == (q, r)


def test_tri_color_changes_across_every_edge():
    for q, r in product(range(-4, 5), repeat=2):
        p = tri_point(q, r)
        for dq, dr in ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)):
            assert tri_color(p) != tri_color(tri_point(q + dq, r + dr))
    assert tri_color((0, 0, 0)) is TriColor.BLACK
    assert tri_color(tri_point(1, 0)) is TriColor.RED
    assert tri_color(tri_point(1, 1)) is TriColor.BLUE


def test_tri_alpha_frozen_values():
    o = tri_point(0, 0)
    assert tri_alpha(o, o) == 0
    # One step with / against a unit direction: 1 forward, 2 back.
    assert tri_alpha(o, tri_point(1, 0)) == 1
    assert tri_alpha(o, tri_point(-1, 0)) == 2
    assert tri_alpha(o, tri_point(0, 1)) == 1
    assert tri_alpha(o, tri_point(-1, -1)) == 1
    assert tri_alpha(o, tri_point(1, 1)) == 2
    assert tri_alpha(o, tri_point(2, 0)) == 2
    assert tri_alpha(o, tri_point(1, -1)) == 3


def test_tri_alpha_matches_oracle_radius_6():
    # Exhaustive from an origin of each color class.
    for x0 in ((0, 0), (1, 0), (1, 1)):
        x = tri_point(*x0)
        for dq, dr in product(range(-6, 7), repeat=2):
            y = tri_point(x0[0] + dq, x0[1] + dr)
            assert tri_alpha(x, y) == tri_alpha_oracle(x, y), (x, y)


def test_tri_alpha_array_matches_tri_alpha_radius_6():
    pairs = [(tri_point(*x0), tri_point(x0[0] + dq, x0[1] + dr))
             for x0 in ((0, 0), (1, 0), (1, 1), (-5, -3))
             for dq, dr in product(range(-6, 7), repeat=2)]
    xs = np.array([x for x, _ in pairs], dtype=np.int64)
    ys = np.array([y for _, y in pairs], dtype=np.int64)
    rise, fall = tri_alpha_array(xs, ys)
    assert rise.tolist() == [tri_alpha(x, y) for x, y in pairs]
    assert fall.tolist() == [tri_alpha(y, x) for x, y in pairs]


def test_tri_alpha_oracle_radius_guard():
    with pytest.raises(RadiusExceeded):
        tri_alpha_oracle(tri_point(0, 0), tri_point(17, 0))


# ---------------------------------------------------------------------------
# Geodesics.

def test_alpha_additive_and_strictly_increasing_on_geodesics():
    rng = random.Random(919)
    for _ in range(200):
        x = tri_point(rng.randrange(-4, 5), rng.randrange(-4, 5))
        y = tri_point(x[0] - x[2] + rng.randrange(-5, 6),
                      x[1] - x[2] + rng.randrange(-5, 6))
        geodesic = tri_geodesic_points_brute(x, y)
        for z in geodesic:
            assert tri_alpha(x, z) + tri_alpha(z, y) == tri_alpha(x, y)
        # Walk one geodesic path greedily; alpha from x must step by 1.
        cur, d = x, 0
        while cur != y:
            for i in range(3):
                v = list(cur)
                v[i] += 1
                m = min(v)
                nxt = (v[0] - m, v[1] - m, v[2] - m)
                if tri_alpha(x, nxt) == d + 1 and nxt in geodesic:
                    cur, d = nxt, d + 1
                    break
            else:
                pytest.fail(f"stuck between {x} and {y} at {cur}")
        assert d == tri_alpha(x, y)


# ---------------------------------------------------------------------------
# Parsing.

def test_parse_single_lozenge():
    b = parse_lozenge("1,2,-1,-2")
    assert b.p == 4 and b.n == 2
    assert sorted(b.faces()) == [(0, 0, False), (0, 0, True)]
    assert b.word == "1,2,-1,-2"


def test_parse_reports_bad_token_index():
    with pytest.raises(ValueError) as err:
        parse_lozenge("1,2,x,-2")
    assert err.value.args[1] == 2
    with pytest.raises(ValueError) as err:
        parse_lozenge("1,4,-1,-2")
    assert err.value.args[1] == 1
    # Only the six ASCII spellings are moves: no sign on a positive move,
    # no leading zero, no non-ASCII digit, no empty token.
    for word, index in (("\u0661,2,-1,-2", 0), ("1,+2,-1,-2", 1),
                        ("1,2,01,-2", 2), ("1,2,-1,-02", 3),
                        ("1,2,-1,-2,", 4), ("", 0)):
        with pytest.raises(ValueError) as err:
            parse_lozenge(word)
        assert err.value.args[1] == index, word
    assert parse_lozenge(" 1, 2 ,-1 , -2 ").moves == (1, 2, -1, -2)
    with pytest.raises(ValueError, match="more than 2097151 moves"):
        parse_lozenge("1," * (1 << 21))


def test_parse_matches_the_token_lookup_on_fuzzed_words():
    # Canonical words, the same words with whitespace around tokens, and
    # words with one corrupted token, half of them clockwise: each gives
    # the reference's moves, reversed to run counterclockwise, or its
    # ValueError.
    rng = random.Random(1213)
    spaces = ("", "", " ", "  ", "\t", "\n")
    corrupt = ("+2", "01", "\u0661", "", "-", "1-", "12", "--1", "0", "4")
    words = []
    for _ in range(100):
        toks = random_lozenge_region(rng, rng.randrange(5, 400)).word.split(",")
        if rng.random() < 0.5:
            toks = [str(-int(t)) for t in reversed(toks)]
        bad = toks[:]
        bad[rng.randrange(len(bad))] = rng.choice(corrupt)
        words += [",".join(toks), ",".join(bad), ",".join(toks) + ",",
                  ",".join(rng.choice(spaces) + t + rng.choice(spaces) for t in toks)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for word in words:
            try:
                moves = lozenge_moves_brute(word)
            except ValueError as want:
                with pytest.raises(ValueError) as err:
                    parse_lozenge(word)
                assert err.value.args == want.args, word
            else:
                want = lozenge_walk(",".join(str(m) for m in moves)).moves
                assert parse_lozenge(word).moves == want, word


def test_move_decode_matches_the_token_decode():
    # Random words of the six moves (not closed walks) with whitespace
    # around tokens, some of it what only str.strip counts as whitespace,
    # the same words with one bad token, with a trailing comma, and words
    # that a number parser would read in part: each decodes to the
    # token-by-token moves or raises the same ValueError.
    rng = random.Random(2417)
    spaces = ("", "", " ", "  ", "\t", "\r\n", "\u00a0", "\x1c", " \u3000 ")
    corrupt = ("+1", "01", "4", "--1", "", " ", "-", "1-", "12", "1 2", "- 1", "0",
               "\u0661", "x")
    words = ["", ",", " , ", "1,", ",1", "1,,2", HEXAGON + "-", "1,+1,", "12,3,", "1,1-2,3,"]
    for _ in range(300):
        toks = [rng.choice(("1", "2", "3", "-1", "-2", "-3")) for _ in range(rng.randrange(1, 60))]
        bad = toks[:]
        bad[rng.randrange(len(bad))] = rng.choice(corrupt)
        words += [",".join(rng.choice(spaces) + t + rng.choice(spaces) for t in toks),
                  ",".join(bad), ",".join(toks) + ","]
    for word in words:
        try:
            want = lozenge_moves_brute(word)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                _moves(word)
            assert got.value.args == err.args, repr(word)
        else:
            moves = _moves(word)
            assert moves.dtype == np.int64 and tuple(moves.tolist()) == want, repr(word)


@pytest.mark.parametrize("warns", [False, True])
def test_parse_rejects_words_np_fromstring_reads_in_part(monkeypatch, warns):
    # Words of canonical length that np.fromstring reads only in part.  Older
    # numpy returns the values before unmatched data with a
    # DeprecationWarning instead of raising; ``warns`` stands in for it, so
    # the parse must not lean on np.fromstring on any numpy.
    if warns:
        def fromstring(text, dtype, sep):
            head = text
            while head:
                try:
                    values = np.array([int(t) for t in head.split(sep)], dtype=dtype)
                    break
                except ValueError:
                    head = head[:-1]
            else:
                values = np.zeros(0, dtype=dtype)
            if head != text:
                warnings.warn("string or file could not be read to its end due to "
                              "unmatched data", DeprecationWarning)
            return values
        monkeypatch.setattr(np, "fromstring", fromstring)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for word, index in ((HEXAGON + "-", 11), ("1,+1,", 1), ("12,3,", 0),
                            ("1,1-2,3,", 1)):
            with pytest.raises(ValueError) as err:
                parse_lozenge(word)
            assert err.value.args[1] == index, word
        assert parse_lozenge(HEXAGON).moves == tuple(map(int, HEXAGON.split(",")))


def test_parse_rejects_open_empty_and_crossing_walks():
    with pytest.raises(NotClosed):
        parse_lozenge("1,2")
    with pytest.raises(EmptyInterior):
        parse_lozenge("1,-1")
    with pytest.raises(SelfIntersecting):
        # Two triangles joined only at the origin.
        parse_lozenge("1,2,3,2,3,-2,-3")


def test_clockwise_words_are_reversed():
    ccw = parse_lozenge("1,2,-1,-2")
    cw = parse_lozenge("2,1,-2,-1")
    assert set(ccw.faces()) == set(cw.faces())
    assert cw.n == 2


def test_boundary_heights_anchor_color_and_closure():
    b = parse_lozenge(HEXAGON)
    bh = lozenge_boundary_height(b)
    assert bh.valid
    lh = dict(zip(b.vertices, bh.heights.tolist()))
    assert lh[b.vertices[0]] == 0
    for u, w in zip(b.vertices, b.vertices[1:] + b.vertices[:1]):
        assert abs(lh[u] - lh[w]) == 1
    for u in b.vertices:
        for w in b.vertices:
            same = tri_color(u) == tri_color(w)
            assert ((lh[u] - lh[w]) % 3 == 0) == same
    # A lone triangle's walk gains height 3 and cannot close.
    assert not lozenge_boundary_height(parse_lozenge("1,2,3")).valid


# ---------------------------------------------------------------------------
# Decision pipeline.

def test_frozen_verdicts():
    v = decide_lozenge("1,2,-1,-2")
    assert (v.tileable, v.reason, v.n) == (True, "ok", 2)
    v = decide_lozenge("1,2,3")
    assert (v.tileable, v.reason, v.n) == (False, "unbalanced-boundary", 1)
    v = decide_lozenge(HEXAGON)
    assert (v.tileable, v.reason, v.n) == (True, "ok", 24)
    tiling = lozenge_matching_decide(parse_lozenge(HEXAGON))
    assert tiling is not None and len(tiling) == 12


def test_unbalanced_up_down_counts_detected():
    # Three lozenges around one vertex plus a dangling triangle: balanced
    # walk but matching impossible is not constructible; instead check a
    # shape whose up/down counts differ: side-2 triangle, 3 up 1 down.
    v = decide_lozenge("1,1,2,2,3,3")
    assert not v.tileable
    b = parse_lozenge("1,1,2,2,3,3")
    assert b.n == 4
    assert lozenge_matching_decide(b) is None


def test_graph_degree_bound_and_sites_cover_boundary():
    rng = random.Random(31415)
    for _ in range(25):
        b = random_lozenge_region(rng, rng.randrange(10, 150))
        sub = build_tri_subdivision(b)
        graph = build_tri_graph(b, sub)
        assert max(len(nb) for nb in graph.adj.values()) <= 6
        assert set(b.vertices) <= set(graph.sites)
        # Pieces are perimeter-sized, not area-sized.
        assert len(sub.pieces) <= 6 * b.p


def test_graph_makes_no_membership_search_and_the_subdivision_one():
    # Both lattices: the subdivision classifies its candidate pieces with
    # one search, and the graph reads its flanks from the corner masks.
    for b, name, subdivide, build in (
            (parse_lozenge(HEXAGON), "faces_inside", build_tri_subdivision, build_tri_graph),
            (parse_boundary("R" * 12 + "U" * 12 + "L" * 12 + "D" * 12), "contains_cells",
             build_subdivision, build_graph)):
        calls = []
        search = getattr(b, name)
        setattr(b, name, lambda *args: calls.append(args) or search(*args))
        sub = subdivide(b)
        assert len(calls) == 1
        build(b, sub)
        assert len(calls) == 1


def test_solved_heights_respect_edge_and_color_rules():
    v = decide_lozenge(HEXAGON)
    g = v.heights
    for x in g:
        for y in g:
            if tri_alpha(x, y) == 1:  # unit forward step
                assert g[y] - g[x] in (1, -2)


def test_exhaustive_agreement_up_to_9_triangles():
    count = 0
    for b in enumerate_lozenge_regions(9):
        count += 1
        fast = decide_lozenge(b).tileable
        slow = lozenge_matching_decide(b) is not None
        assert fast == slow, b.word
    # Fixed hole-free polyiamond census, frozen from the enumerator and
    # cross-checked against the published fixed polyiamond counts
    # (2, 3, 6, 14, 36, 94, 250, 675, 1838 with 6 holey at size 9).
    assert count == 2912


def test_enumeration_census_by_size():
    by_n = {}
    for b in enumerate_lozenge_regions(6):
        by_n[b.n] = by_n.get(b.n, 0) + 1
    assert by_n == {1: 2, 2: 3, 3: 6, 4: 14, 5: 36, 6: 94}


def test_random_regions_agree_with_matching():
    rng = random.Random(2718)
    for _ in range(200):
        b = random_lozenge_region(rng, rng.randrange(8, 220))
        fast = decide_lozenge(b).tileable
        slow = lozenge_matching_decide(b) is not None
        assert fast == slow, b.word


def test_lines_reentering_across_a_notch():
    # Concave region where lattice lines exit at one boundary vertex and
    # re-enter at another with nothing between.  The straight segment
    # joining those two sites runs outside the region, so it must not
    # become a graph edge; with it, the free-space metric understates
    # the in-region distance and the verdict flips to a false negative.
    word = ("-3,1,1,2,-3,-2,-3,-2,3,-2,-1,-2,3,1,-2,-3,2,-3,-2,-3,-2,-3,"
            "-2,1,-2,-3,2,-3,-1,-3,-3,-2,-2,-3,2,1,2,1,-2,-3,-3,2,1,2,-1,"
            "-3,1,2,-3,2,-1,-1,2,2,2,2,3,2,2,-1,-1,2,3,2,3,3,-1,3,3,-1,3,"
            "1,3,1,3,3,3,3,-2,-2,-1,3,-2,-2,3,-2")
    b = parse_lozenge(word)
    assert decide_lozenge(b).tileable
    assert lozenge_matching_decide(b) is not None

    graph = build_tri_graph(b, build_tri_subdivision(b))
    for u in graph.sites:
        for w in graph.adj[u]:
            if u >= w:
                continue
            ua, wa = tri_axial(u), tri_axial(w)
            gap = max(abs(wa[0] - ua[0]), abs(wa[1] - ua[1]))
            sq, sr = (wa[0] - ua[0]) // gap, (wa[1] - ua[1]) // gap
            cur = ua
            for _ in range(gap):
                nxt = (cur[0] + sq, cur[1] + sr)
                assert edge_in_region(b, tri_point(*cur), tri_point(*nxt)), (u, w)
                cur = nxt


def start_at_top_right(word):
    """The word restarted at the vertex with the largest q and r, or None
    when no vertex has both."""
    toks = word.split(",")
    q = r = 0
    verts = []
    for t in toks:
        verts.append((q, r))
        q, r = q + STEPS[int(t)][0], r + STEPS[int(t)][1]
    corner = (max(v[0] for v in verts), max(v[1] for v in verts))
    if corner not in verts:
        return None
    k = verts.index(corner)
    return ",".join(toks[k:] + toks[:k])


def test_faces_inside_matches_face_inside():
    rng = random.Random(6060)
    regions = [parse_lozenge(HEXAGON), parse_lozenge(start_at_top_right(HEXAGON))]
    while len(regions) < 50:
        b = random_lozenge_region(rng, rng.randrange(4, 200))
        regions.append(b)
        corner = start_at_top_right(b.word)
        if corner is not None:
            regions.append(parse_lozenge(corner))
    negative = 0
    for b in regions:
        qs, rs = b.qr
        assert list(zip(qs.tolist(), rs.tolist())) == [tri_axial(v) for v in b.vertices]
        negative += qs.max() == rs.max() == 0
        box = [(q, r, up) for q in range(qs.min() - 2, qs.max() + 3)
               for r in range(rs.min() - 2, rs.max() + 3) for up in (False, True)]
        q, r, up = (np.array(a) for a in zip(*box))
        assert b.faces_inside(q, r, up).tolist() == [face_inside(b, f) for f in box]
        assert sum(b.faces_inside(q, r, up)) == b.n
    assert negative >= 10


def test_corner_masks_match_the_faces_around_each_vertex():
    # Bit k of a vertex's mask is whether the face SECTOR_FACES[k] from it
    # is a region face.  Inputs: random regions, each also written
    # clockwise, and the large lozenge words of the benchmark; together
    # they make all 30 turns that do not go back.
    rng = random.Random(4343)
    words = []
    for _ in range(60):
        moves = random_lozenge_region(rng, rng.randrange(2, 401)).moves
        words += [",".join(map(str, moves)), ",".join(str(-t) for t in reversed(moves))]
    words += [w for _, group in digest.FAMILIES["large"]() for lattice, w in group
              if lattice == "tri"]
    turns = set()
    for word in words:
        b = parse_lozenge(word)
        q, r = b.qr
        masks = b.corner_masks
        for k, (dq, dr, up) in enumerate(SECTOR_FACES):
            assert ((masks >> k & 1) == b.faces_inside(q + dq, r + dr, up)).all(), word
        turns |= set(zip(np.roll(b.tokens, 1).tolist(), b.moves))
    assert len(turns) == 30
    assert all(a != -c for a, c in turns)


def test_array_form_agrees_with_views():
    rng = random.Random(9)
    for b in [parse_lozenge(HEXAGON)] + [random_lozenge_region(rng, n) for n in (20, 150)]:
        sub = build_tri_subdivision(b)
        pieces = sub.pieces
        assert pieces == sorted(set(pieces))
        # The arrays hold the uncrossed pieces; the view adds the crossed
        # unit faces inside, those around a boundary vertex.
        arrays = list(zip(sub.piece_q.tolist(), sub.piece_r.tolist(),
                          sub.piece_side.tolist(), sub.piece_up.tolist()))
        crossed = {(q + dq, r + dr, 1, up) for q, r in b.axial for dq, dr, up in SECTOR_FACES}
        faces = set(b.faces())
        assert len(set(arrays)) == len(arrays) and not crossed & set(arrays)
        assert pieces == sorted(set(arrays) | {f for f in crossed
                                               if (f[0], f[1], f[3]) in faces})
        # The pieces tile the region: a triangle of side s has s*s faces.
        assert sum(s * s for _, _, s, _ in pieces) == b.n
        g = build_tri_graph(b, sub)
        sites = g.sites
        assert sites == sorted(set(sites)) == [tuple(c) for c in g.coords.tolist()]
        assert set(sites) == set(b.vertices) | {tri_point(*c) for piece in pieces
                                                 for c in _piece_corners(piece)}
        # Each edge is listed once, as (src, dst) with src < dst.
        pairs = list(zip(g.src.tolist(), g.dst.tolist()))
        assert all(i < j for i, j in pairs) and len(set(pairs)) == g.edge_count
        assert [sites[i] for i in g.boundary_ids.tolist()] == b.vertices
        assert g.degrees().tolist() == [len(g.adj[s]) for s in sites]
        # Every boundary edge joins two consecutive sites on its line.
        ids = g.boundary_ids.tolist()
        assert {(min(i, j), max(i, j)) for i, j in zip(ids, ids[1:] + ids[:1])} <= set(pairs)


def _in_closure(piece, v):
    a, c, s, up = piece
    q, r = v
    if up:
        return r >= c and q <= a + s and q - r >= a - c
    return q >= a and r <= c + s and q - r <= a - c


def test_pieces_are_the_maximal_uncrossed_triangles():
    # A piece wider than one face holds no boundary vertex in its closure,
    # and the quadtree triangle it was split from holds one.
    rng = random.Random(77)
    for b in [parse_lozenge(HEXAGON)] + [random_lozenge_region(rng, n) for n in (30, 200)]:
        sub = build_tri_subdivision(b)
        walk = [tri_axial(v) for v in b.vertices]
        for piece in sub.pieces:
            a, c, s, _ = piece
            assert s == 1 or not any(_in_closure(piece, v) for v in walk)
            pa = sub.Q0 + (a - sub.Q0) // (2 * s) * 2 * s
            pc = sub.R0 + (c - sub.R0) // (2 * s) * 2 * s
            parent, = (t for t in ((pa, pc, 2 * s, True), (pa, pc, 2 * s, False))
                       if all(_in_closure(t, v) for v in _piece_corners(piece)))
            assert any(_in_closure(parent, v) for v in walk)


def _restarted(word):
    """The word and the same walk restarted a third of the way round."""
    toks = word.split(",")
    k = len(toks) // 3
    return [word, ",".join(toks[k:] + toks[:k])]


def _dilated(base, k):
    return ",".join(",".join([t] * k) for t in base.split(","))


def test_bottom_up_quadtree_matches_the_batch_build():
    rng = random.Random(909)
    words = [b.word for b in enumerate_lozenge_regions(9)]
    words += [random_lozenge_region(rng, rng.randrange(5, 400)).word for _ in range(200)]
    words += [_dilated(base, k) for base in ("1,-3,2,-1,3,-2", "1,2,3",
                                             "1,-2,1,-3,-1,-3,-1,2,3,3")
              for k in range(1, 41)]
    for word in words:
        for w in _restarted(word):
            b = parse_lozenge(w)
            assert build_tri_subdivision(b).pieces == batch_tri_subdivision(b).pieces, w


def test_pieces_cover_the_region_at_benchmark_scale():
    # A piece of side s covers s**2 unit triangles.  Inputs: the 15 large
    # lozenge words of the benchmark and random regions dilated by 2, up
    # to 10**5 triangles.
    rng = random.Random(2026)
    words = [w for _, group in digest.FAMILIES["large"]() for lattice, w in group
             if lattice == "tri"]
    targets = [10, 100, 1000, 10000, 25000] + [rng.randrange(10, 25001) for _ in range(5)]
    words += [_dilated(random_lozenge_region(rng, k).word, 2) for k in targets]
    assert len(words) == 25
    for word in words:
        b = parse_lozenge(word)
        assert sum(s * s for _, _, s, _ in build_tri_subdivision(b).pieces) == b.n, (b.p, b.n)


def test_word_round_trip_through_faces():
    rng = random.Random(5050)
    for _ in range(20):
        b = random_lozenge_region(rng, rng.randrange(5, 80))
        again = parse_lozenge(faces_to_lozenge_word(set(b.faces())))
        assert set(again.faces()) == set(b.faces())
        assert again.n == b.n


def test_vertex_closure_and_edge_membership():
    b = parse_lozenge(HEXAGON)
    assert vertex_in_closure(b, tri_point(1, 1))      # interior
    assert vertex_in_closure(b, b.vertices[0])        # on the walk
    assert not vertex_in_closure(b, tri_point(-3, -3))
    assert edge_in_region(b, tri_point(1, 1), tri_point(2, 1))
    assert not edge_in_region(b, tri_point(-3, -3), tri_point(-2, -3))
