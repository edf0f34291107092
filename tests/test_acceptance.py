"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS line with its measured numbers (visible
under ``pytest -s``; under plain ``pytest -v`` the test name itself is
the pass/fail line).  These runs are larger than the unit tests and take
a few minutes altogether.
"""

import math
import random
import time
from itertools import product

from tiler.approxgraph import build_graph
from tiler.cli import _bench_instance, fit_exponent
from tiler.generators import dilate, snake, spiral
from tiler.lattice import alpha
from tiler.lozenge import (build_tri_graph, build_tri_subdivision,
                           decide_lozenge, lozenge_matching_decide,
                           parse_lozenge)
from tiler.oracle import TilingOracle
from tiler.reference import (enumerate_lozenge_regions,
                             enumerate_simply_connected, extract_tiling,
                             matching_decide, random_lozenge_region,
                             random_region, random_tileable_region,
                             thurston_full)
from tiler.region import parse_boundary
from tiler.solver import decide_tileable
from tiler.subdivision import build_subdivision

from brute import alpha_oracle


def test_criterion_1_exhaustive_oracle_agreement():
    count = 0
    for b in enumerate_simply_connected(10):
        count += 1
        fast = decide_tileable(b).tileable
        slow = matching_decide(b) is not None
        assert fast == slow, b.moves
    assert count == 48315  # simple-boundary polyominoes of area <= 10
    print(f"PASS criterion 1: decide == matching on all {count} "
          f"simple-boundary polyominoes of area <= 10")


def test_criterion_2_randomized_three_way_agreement():
    rng = random.Random(60221023)
    done = 0
    while done < 10_000:
        b = random_region(rng, rng.randrange(8, 190))
        if b.area > 200:
            continue
        fast = decide_tileable(b).tileable
        thurston = thurston_full(b).tileable
        match = matching_decide(b) is not None
        assert fast == thurston == match, b.moves
        done += 1
    print(f"PASS criterion 2: fast == thurston == matching on {done} "
          f"random regions of area <= 200")


def test_criterion_3_maximum_height_equality():
    rng = random.Random(777)
    regions = queries = 0
    while regions < 1000:
        b = random_tileable_region(rng, rng.randrange(12, 370))
        if b.area > 400:
            continue
        v = decide_tileable(b)
        assert v.tileable
        res = thurston_full(b)
        for s, g in v.heights.items():
            assert g == res.heights[s], (b.moves, s)
        oracle = TilingOracle(b)
        verts = sorted(res.heights)
        for _ in range(100):
            w = verts[rng.randrange(len(verts))]
            assert oracle.height_at(w) == res.heights[w], (b.moves, w)
            queries += 1
        regions += 1
    print(f"PASS criterion 3: solver g == reference heights on S for "
          f"{regions} tileable regions; oracle height == reference at "
          f"{queries} sampled vertices")


def test_criterion_4_alpha_exact_and_geodesic_laws():
    for x in ((0, 0), (1, 0)):  # one origin from each vertex parity class
        for dx, dy in product(range(-6, 7), repeat=2):
            y = (x[0] + dx, x[1] + dy)
            assert alpha(x, y) == alpha_oracle(x, y), (x, y)

    rng = random.Random(4848)
    paths = 0
    for _ in range(300):
        x = (rng.randrange(-8, 9), rng.randrange(-8, 9))
        y = (x[0] + rng.randrange(-12, 13), x[1] + rng.randrange(-12, 13))
        total = alpha(x, y)
        cur = x
        while cur != y:
            for n in ((cur[0] + 1, cur[1]), (cur[0] - 1, cur[1]),
                      (cur[0], cur[1] + 1), (cur[0], cur[1] - 1)):
                if alpha(x, n) + alpha(n, y) == total and alpha(n, y) < alpha(cur, y):
                    assert alpha(x, n) > alpha(x, cur)  # strict increase
                    cur = n
                    break
            else:
                raise AssertionError(f"no geodesic step from {cur} to {y}")
        paths += 1
    print(f"PASS criterion 4: alpha == shortest-path oracle on all offsets "
          f"<= 6 from both parities; additive and strictly increasing along "
          f"{paths} sampled geodesics of length <= 12")


def test_criterion_5_structural_bounds():
    rng = random.Random(31337)
    squares = [parse_boundary(dilate(spiral(2), 64)),
               parse_boundary(dilate(snake(6, 3), 64))]
    squares += [random_region(rng, rng.randrange(20, 2000)) for _ in range(50)]
    c_square = deg_square = 0.0
    for b in squares:
        sub = build_subdivision(b)
        for i, census in enumerate(sub.si_census):
            assert 2 * census < 9 * 2 ** i, (b.p, i, census)
        graph = build_graph(b, sub)
        deg_square = max(deg_square,
                         max(len(nb) for nb in graph.adj.values()))
        assert deg_square <= 8
        pieces = len(sub.triangles) + len(sub.inside_squares())
        c_square = max(c_square, pieces / b.p)

    tris = [parse_lozenge("1,1,-3,-3,2,2,-1,-1,3,3,-2,-2")]
    tris += [random_lozenge_region(rng, rng.randrange(10, 1200))
             for _ in range(30)]
    c_tri = deg_tri = 0.0
    for b in tris:
        sub = build_tri_subdivision(b)
        graph = build_tri_graph(b, sub)
        deg_tri = max(deg_tri, max(len(nb) for nb in graph.adj.values()))
        assert deg_tri <= 6
        c_tri = max(c_tri, len(sub.pieces) / b.p)
    assert c_square < 12 and c_tri < 12
    print(f"PASS criterion 5: |S_i| < 9*2^(i-1) on every level; max degree "
          f"{int(deg_square)} <= 8 (square) and {int(deg_tri)} <= 6 (tri); "
          f"pieces <= C*p with C = {c_square:.2f} (square), {c_tri:.2f} (tri)")


def test_criterion_6_site_oracle_tiling_and_query_cost():
    rng = random.Random(90210)
    regions = 0
    max_rounds = max_vals = 0
    while regions < 200:
        b = random_tileable_region(rng, rng.randrange(12, 370))
        if b.area > 400:
            continue
        oracle = TilingOracle(b)
        depth_bound = math.log2(2 * oracle.sub.n0)
        covered = set()
        for cell in b.cells():
            covered.add(oracle.domino_at(cell).as_pair())
            rounds = oracle.stats["last_rounds"]
            vals = oracle.stats["last_valuations"]
            assert rounds <= depth_bound, (b.moves, cell)
            assert vals <= 15 * max(1, rounds), (b.moves, cell)
            max_rounds = max(max_rounds, rounds)
            max_vals = max(max_vals, vals)
        res = thurston_full(b)
        assert covered == set(extract_tiling(b, res.heights)), b.moves
        assert 2 * len(covered) == b.area
        regions += 1
    print(f"PASS criterion 6: oracle tiling == reference tiling on "
          f"{regions} regions; refinement depth <= log2(root side) "
          f"(max seen {max_rounds}); <= 15 valuations per round "
          f"(max per query {max_vals}), each a binary search: O(log^2 p)")


def test_criterion_7_perimeter_scaling():
    # Each size takes the least process time of three runs, which other
    # processes sharing the machine inflate less than a wall-clock median.
    cap = 400_000
    lines = []
    for family in ("spiral", "snake"):
        fast_pts, thurston_pts = [], []
        for e in range(8, 17):
            b = _bench_instance(family, 2 ** e)
            times = []
            for _ in range(3):
                t0 = time.process_time()
                v = decide_tileable(b)
                times.append(time.process_time() - t0)
            assert v.tileable
            fast_pts.append((b.p, min(times)))
            if b.area <= cap:
                times = []
                for _ in range(3):
                    t0 = time.process_time()
                    res = thurston_full(b, cap=cap)
                    times.append(time.process_time() - t0)
                assert res.tileable == v.tileable
                thurston_pts.append((b.p, min(times)))
        fast_exp = fit_exponent(fast_pts)
        thurston_exp = fit_exponent(thurston_pts)
        assert fast_exp <= 1.25, (family, fast_exp)
        assert thurston_exp >= 1.7, (family, thurston_exp)
        assert len(thurston_pts) >= 4  # cap admits p up to 2^12
        lines.append(f"{family}: fast {fast_exp:.2f} over p=2^8..2^16, "
                     f"thurston {thurston_exp:.2f} over its "
                     f"{len(thurston_pts)} cap-permitted sizes")
    print("PASS criterion 7: log-log exponents " + "; ".join(lines))


def test_criterion_8_lozenge_agreement():
    count = 0
    for b in enumerate_lozenge_regions(12):
        count += 1
        fast = decide_lozenge(b).tileable
        slow = lozenge_matching_decide(b) is not None
        assert fast == slow, b.word
    assert count == 59564  # hole-free polyiamonds of <= 12 triangles

    rng = random.Random(161803)
    done = 0
    while done < 2000:
        b = random_lozenge_region(rng, rng.randrange(8, 380))
        if b.n > 400:
            continue
        fast = decide_lozenge(b).tileable
        slow = lozenge_matching_decide(b) is not None
        assert fast == slow, b.word
        done += 1
    print(f"PASS criterion 8: decide_lozenge == matching on all {count} "
          f"polyiamonds of <= 12 triangles and {done} random regions of "
          f"<= 400 triangles")
