import random

import numpy as np
import pytest

import digest
import tiler.approxgraph
import tiler.lozenge
from tiler.approxgraph import build_graph
from tiler.errors import InternalInconsistency
from tiler.lattice import alpha_array
from tiler.lozenge import (LozengeBoundary, build_tri_graph, build_tri_subdivision, parse_lozenge,
                           tri_alpha_array)
from tiler.reference import enumerate_simply_connected, random_lozenge_region, random_region
from tiler.region import RegionBoundary, parse_boundary
from tiler.subdivision import build_subdivision

from brute import (LOZENGE_FLANKS, SECTOR_FACES, SQUARE_FLANKS, cheb, line_gaps,
                   lozenge_two_flank_graph, pair_connected_brute, square_two_flank_graph,
                   valid_pairs_brute)


def _graph(word):
    b = parse_boundary(word)
    sub = build_subdivision(b)
    return b, build_graph(b, sub)


def _unordered_edges(g):
    sites = g.sites
    return {(sites[i], sites[j]) for i, j in zip(g.src.tolist(), g.dst.tolist())}


def test_two_by_two_frozen():
    b, g = _graph("RRUULLDD")
    assert g.sites == sorted((x, y) for x in range(3) for y in range(3))
    assert g.edge_count == 20
    assert set(g.adj[(1, 1)]) == {(0, 1), (1, 0), (2, 1), (1, 2),
                                  (0, 0), (2, 2), (0, 2), (2, 0)}
    assert set(g.adj[(0, 1)]) == {(0, 0), (0, 2), (1, 1), (1, 0), (1, 2)}
    assert set(g.adj[(0, 0)]) == {(1, 0), (0, 1), (1, 1)}


def test_notch_gap_stays_outside():
    # L-shaped region: (1, 2) and (2, 1) are consecutive on their
    # diagonal, but the segment between them cuts the missing cell.
    b, g = _graph("RRULULDD")
    assert (1, 2) in g.adj and (2, 1) in g.adj
    assert (2, 1) not in g.adj[(1, 2)]
    # The reflex corner still reaches both of them through legs.
    assert (1, 2) in g.adj[(1, 1)] and (2, 1) in g.adj[(1, 1)]


def _check_region(b):
    sub = build_subdivision(b)
    g = build_graph(b, sub)
    sites = g.sites
    site_set = set(sites)
    assert site_set >= set(b.vertices)

    edges = _unordered_edges(g)
    assert len(edges) == g.edge_count
    vp = valid_pairs_brute(b, sites)
    for x, y in edges:
        assert (x, y) in vp, (b.moves, x, y)

    king_edges = {(x, y) for x, y in edges if cheb(x, y) == 1}
    king_valid = {(x, y) for x, y in vp if x < y and cheb(x, y) == 1}
    assert king_edges == king_valid, (b.moves,
                                      king_valid - king_edges,
                                      king_edges - king_valid)

    # Connectivity: the solver relies on every site being reachable.
    seen = {sites[0]}
    stack = [sites[0]]
    while stack:
        for t in g.adj[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    assert seen == site_set


def test_enumerated_regions_match_brute():
    for b in enumerate_simply_connected(5):
        _check_region(b)


def test_random_regions_match_brute():
    rng = random.Random(4021)
    for target in (12, 20, 30):
        _check_region(random_region(rng, target))


def test_long_edges_stay_inside():
    # In a fat region the diagonals have big site-free gaps, so line
    # edges span several lattice points.  Each one must still be
    # region-connected with no site strictly between.
    b, g = _graph("RRRRRRRR" "UUUUUUUU" "LLLLLLLL" "DDDDDDDD")
    site_set = set(g.sites)
    long_edges = [(x, y) for x, y in _unordered_edges(g) if cheb(x, y) > 1]
    assert ((2, 2), (4, 4)) in long_edges     # between inside-square corners
    assert ((0, 7), (7, 0)) in long_edges     # boundary to boundary
    for x, y in long_edges:
        assert pair_connected_brute(b, site_set, x, y), (x, y)


def test_degree_bounds():
    rng = random.Random(99)
    for target in (25, 60):
        b = random_region(rng, target)
        sub = build_subdivision(b)
        g = build_graph(b, sub)
        deg = g.degrees()
        assert deg.max() <= 8
        assert deg[g.boundary_ids].max() <= 7


def test_array_form_agrees_with_views():
    rng = random.Random(7)
    for b in [parse_boundary("RRULULDD")] + [random_region(rng, a) for a in (15, 80)]:
        g = build_graph(b, build_subdivision(b))
        sites = g.sites
        # Ids follow sorted, distinct coordinates; edges are (src, dst)
        # pairs with src < dst, each listed once.
        assert sites == sorted(set(sites)) == [tuple(c) for c in g.coords.tolist()]
        pairs = list(zip(g.src.tolist(), g.dst.tolist()))
        assert all(i < j for i, j in pairs) and len(set(pairs)) == g.edge_count
        assert [sites[i] for i in g.boundary_ids.tolist()] == b.vertices
        assert g.degrees().tolist() == [len(g.adj[s]) for s in sites]
        assert _unordered_edges(g) == {(min(s, t), max(s, t))
                                       for s, nbrs in g.adj.items() for t in nbrs}


def _tri_graph(word):
    b = parse_lozenge(word)
    return b, build_tri_graph(b, build_tri_subdivision(b))


def test_degree_bound_violations_raise(monkeypatch):
    # With every bound one lower than its lattice's, the centre of a 2x2
    # square (degree 8), its boundary midpoints (5 against a boundary
    # bound of 4) and the centre of the hexagon H(2,2,2) (degree 6) fail.
    for module, word, build, bounds, site in (
            (tiler.approxgraph, "RRUULLDD", _graph, (7, 7), r"\(1, 1\) has degree 8, bound is 7"),
            (tiler.approxgraph, "RRUULLDD", _graph, (8, 4), r"has degree 5, bound is 4"),
            (tiler.lozenge, "1,1,-3,-3,2,2,-1,-1,3,3,-2,-2", _tri_graph, (5, 5),
             r"\(1, 1, 0\) has degree 6, bound is 5")):
        join = module.join_sites
        with monkeypatch.context() as m:
            m.setattr(module, "join_sites", lambda *args: join(*args[:-1], bounds))
            with pytest.raises(InternalInconsistency, match=site):
                build(word)


def _join_words():
    """Random regions of at most 400 cells or triangles on both lattices,
    and the 30 large words of the benchmark."""
    rng = random.Random(4004)
    words = [("sq", random_region(rng, rng.randrange(5, 401)).moves) for _ in range(60)]
    words += [("tri", random_lozenge_region(rng, rng.randrange(5, 401)).word) for _ in range(60)]
    words += [(lattice, w) for _, group in digest.FAMILIES["large"]() for lattice, w in group]
    assert len(words) == 150
    return words


STAGES = {"sq": (parse_boundary, build_subdivision, build_graph),
          "tri": (parse_lozenge, build_tri_subdivision, build_tri_graph)}


def test_one_flank_join_matches_the_two_flank_join():
    references = {"sq": square_two_flank_graph, "tri": lozenge_two_flank_graph}
    for lattice, word in _join_words():
        parse, subdivide, build = STAGES[lattice]
        b = parse(word)
        sub = subdivide(b)
        graph = build(b, sub)
        sites, pairs, boundary_ids = references[lattice](b, sub)
        assert graph.sites == sites
        got = list(zip(graph.src.tolist(), graph.dst.tolist()))
        assert all(i < j for i, j in got) and len(set(got)) == graph.edge_count
        assert sorted(got) == pairs
        assert graph.boundary_ids.tolist() == boundary_ids


def test_edge_bounds_are_the_metric_on_the_edge_rows():
    # The join gives a line family's edge k times the family's unit-step
    # bounds, with no coordinate rows: both metrics are linear along a
    # lattice line.  Every edge's stored bounds, forward and back, are the
    # lattice metric on its two rows, in both directions.
    metrics = {"sq": alpha_array, "tri": tri_alpha_array}
    for lattice, word in _join_words():
        parse, subdivide, build = STAGES[lattice]
        b = parse(word)
        graph = build(b, subdivide(b))
        (first, second), (rise, fall) = graph.ends, graph.bounds
        x, y = graph.coords[first], graph.coords[second]
        forward, back = metrics[lattice](x, y)
        assert np.array_equal(rise, forward) and np.array_equal(fall, back), word
        back, forward = metrics[lattice](y, x)
        assert np.array_equal(rise, forward) and np.array_equal(fall, back), word


def _around(lattice, b, u, v):
    """Whether every cell or face around each point (u, v) is inside: the
    four cells around a square-lattice vertex, the six faces around an
    axial vertex."""
    if lattice == "sq":
        return np.logical_and.reduce([b.contains_cells(u + du, v + dv)
                                      for du in (0, -1) for dv in (0, -1)])
    return np.logical_and.reduce([b.faces_inside(u + dq, v + dr, up) for dq, dr, up in (
        (0, 0, True), (-1, 0, True), (-1, -1, True),
        (0, 0, False), (-1, -1, False), (0, -1, False))])


def test_searches_run_only_between_two_boundary_vertices(monkeypatch):
    # What the join's shortcut rests on: a site that is not a boundary
    # vertex is interior, so only the gaps between two boundary vertices
    # need a flank test.  That test reads a bit of the first vertex's
    # corner mask, so the graph build makes no membership search at all.
    tests = {"sq": (RegionBoundary, "contains_cells", SQUARE_FLANKS),
             "tri": (LozengeBoundary, "faces_inside", LOZENGE_FLANKS)}
    boundary_gaps = 0
    for lattice, word in _join_words():
        parse, subdivide, build = STAGES[lattice]
        cls, name, families = tests[lattice]
        b = parse(word)
        sub = subdivide(b)
        calls = []
        test = getattr(cls, name)

        def counted(self, *args):
            calls.append(len(args[0]))
            return test(self, *args)

        with monkeypatch.context() as m:
            m.setattr(cls, name, counted)
            graph = build(b, sub)
        assert calls == [], word

        coords = graph.coords
        if lattice == "tri":
            coords = np.stack([coords[:, 0] - coords[:, 2], coords[:, 1] - coords[:, 2]], axis=1)
        boundary = set(b.vertices if lattice == "sq" else b.axial)
        interior = np.ones(len(coords), dtype=bool)
        interior[graph.boundary_ids] = False
        assert _around(lattice, b, coords[interior, 0], coords[interior, 1]).all(), word

        points = list(zip(*coords.T.tolist()))
        boundary_gaps += sum(z in boundary and w in boundary
                             for direction, _ in families
                             for z, w in line_gaps(points, direction))
    assert boundary_gaps > 0


def test_only_negative_lozenge_boundary_edges_fail_their_flank_test():
    # A boundary edge of move 1, 2 or 3 has the upward face its family
    # tests on the region side, so the line join makes it; one of move
    # -1, -2 or -3 has it outside and is joined outright.  The family's
    # test is a bit of its first end's corner mask: the sector of that
    # upward face, which a face search confirms.
    for lattice, word in _join_words():
        if lattice != "tri":
            continue
        b = parse_lozenge(word)
        q, r = b.qr
        dq, dr = np.roll(q, -1) - q, np.roll(r, -1) - r
        ends = np.arange(b.p)
        passed = np.zeros(b.p, dtype=bool)
        tested = np.zeros(b.p, dtype=int)
        for (fq, fr), bit, _ in tiler.lozenge._FAMILIES:
            oq, orr, up = SECTOR_FACES[bit]
            assert up and {(0, 0), (fq, fr)} <= {(oq, orr), (oq + 1, orr), (oq + 1, orr + 1)}
            forward = (dq == fq) & (dr == fr)
            edge = forward | ((dq == -fq) & (dr == -fr))
            first = np.where(forward, ends, (ends + 1) % b.p)[edge]
            passed[edge] = b.corner_masks[first] >> bit & 1
            assert (passed[edge] == b.faces_inside(q[first] + oq, r[first] + orr, up)).all()
            tested += edge
        assert (tested == 1).all()
        assert (passed == (b.tokens > 0)).all(), word
