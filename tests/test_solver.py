import importlib.util
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tiler
from tiler import decide_lozenge, decide_tileable, solver
from tiler.approxgraph import ApproxGraph, build_graph
from tiler.errors import InternalInconsistency
from tiler.generators import dilate, spiral
from tiler.lattice import alpha
from tiler.lozenge import (build_tri_graph, build_tri_subdivision, lozenge_boundary_height,
                           parse_lozenge)
from tiler.reference import (
    enumerate_simply_connected,
    matching_decide,
    random_lozenge_region,
    random_region,
    thurston_full,
)
from tiler.region import BoundaryHeight, boundary_height, parse_boundary
from tiler.solver import compute_gmax
from tiler.subdivision import build_subdivision

import digest  # noqa: F401  (puts the benchmark's workloads on the path)
from brute import alpha_array, masked_round_gmax, tri_alpha, tri_alpha_array
from workloads import BAD_PAIR, LOZENGE_BAD_PAIR, LOZENGE_LARGE, SQUARE_LARGE


def test_two_by_two():
    v = decide_tileable("RRUULLDD")
    assert v.tileable and v.reason == "ok"
    assert v.p == 8 and v.n == 4
    ref = thurston_full(parse_boundary("RRUULLDD"))
    assert v.heights == ref.heights  # sites cover all nine vertices here
    out = json.loads(v.to_json())
    assert out["tileable"] is True and out["witness"] is None
    assert out["sites"] == 9 and out["edges"] == 20


def test_unbalanced_boundary():
    v = decide_tileable("RULD")
    assert not v.tileable and v.reason == "unbalanced-boundary"
    assert v.n == 1 and v.sites == 0
    assert json.loads(v.to_json())["witness"] == {"kind": "unbalanced-boundary"}


def test_violation_witness():
    # Smallest balanced untileable shape: a row of four with one cell
    # hanging below the second and one sitting on the fourth.
    v = decide_tileable("RDRURRULULDLLD")
    assert not v.tileable and v.reason == "bad-pair"
    w = v.witness
    assert w.alpha_xy == alpha(w.x, w.y) and w.alpha_yx == alpha(w.y, w.x)
    assert w.gy - w.gx > w.alpha_xy or w.gx - w.gy > w.alpha_yx
    out = json.loads(v.to_json())
    assert out["witness"]["kind"] == "bad-pair"
    assert tuple(out["witness"]["x"]) == w.x


def _agrees(b):
    v = decide_tileable(b)
    want = matching_decide(b) is not None
    assert v.tileable == want, b.moves
    if v.tileable:
        ref = thurston_full(b)
        for s, h in v.heights.items():
            assert h == ref.heights[s], (b.moves, s)
    return v


def test_enumerated_agreement():
    tileable = untileable = 0
    for b in enumerate_simply_connected(6):
        if not boundary_height(b).valid:
            continue
        v = _agrees(b)
        if v.tileable:
            tileable += 1
        else:
            untileable += 1
    assert tileable > 100 and untileable == 4


def test_random_agreement():
    rng = random.Random(20260823)
    for _ in range(25):
        b = random_region(rng, rng.randrange(15, 60))
        v = decide_tileable(b)
        assert v.tileable == thurston_full(b).tileable, b.moves


def test_heights_satisfy_every_edge():
    from tiler.approxgraph import build_graph
    from tiler.subdivision import build_subdivision

    b = parse_boundary("RRRRRRRR" "UUUUUUUU" "LLLLLLLL" "DDDDDDDD")
    v = decide_tileable(b)
    assert v.tileable
    g = build_graph(b, build_subdivision(b))
    h = np.array([v.heights[s] for s in g.sites])
    x, y = g.coords[g.src], g.coords[g.dst]
    gap = h[g.dst] - h[g.src]
    rise, fall = alpha_array(x, y)
    assert (gap <= rise).all() and (-gap <= fall).all()


def test_unreached_site_is_an_internal_inconsistency():
    # Two boundary sites joined along one line and a third site after a
    # pair that no edge joins.
    coords = np.array([(0, 0), (0, 1), (5, 5)], dtype=np.int64)
    no_links = np.empty((2, 0), dtype=np.int64)
    line = (np.arange(3), np.array([1, 0]), (1, 3))
    graph = ApproxGraph(coords, np.array([0, 1]), [line], no_links, no_links)
    bh = BoundaryHeight(np.array([0, 1]), True)
    with pytest.raises(InternalInconsistency, match="1 sites unreached"):
        compute_gmax(graph, bh)
    # Two more sites joined only to each other: a scan carries a label
    # across the unjoined pair only with the jump in it, so they stay
    # unreached, and the sweeps must stop.
    coords = np.array([(0, 0), (0, 1), (5, 5), (5, 6)], dtype=np.int64)
    line = (np.arange(4), np.array([1, 0, 1]), (1, 3))
    graph = ApproxGraph(coords, np.array([0, 1]), [line], no_links, no_links)
    with pytest.raises(InternalInconsistency, match="2 sites unreached"):
        compute_gmax(graph, bh)
    # The same two sites joined by a link, which no sweep relaxes from an
    # unreached tail.
    graph = ApproxGraph(coords, np.array([0, 1]), [(np.arange(4), np.array([1, 0, 0]), (1, 3))],
                        np.array([[2], [3]]), np.array([[1], [3]]))
    with pytest.raises(InternalInconsistency, match="2 sites unreached"):
        compute_gmax(graph, bh)


def _dumbbell(m):
    """Two (2m+1)-squares joined by a corridor of two cells: balanced and
    untileable for odd m."""
    s, c = 2 * m + 1, 2
    return ("R" * s + "U" * m + "R" * c + "D" * m + "R" * s + "U" * s
            + "L" * s + "D" * m + "L" * c + "U" * m + "L" * s + "D" * s)


def _lozenge_dilate(base, k):
    return ",".join(",".join([t] * k) for t in base.split(","))


HEAP_FINISH_WORDS = [
    (decide_tileable, dilate(spiral(2), 20), "ok"),
    (decide_tileable, _dumbbell(25), "bad-pair"),
    (decide_lozenge, _lozenge_dilate("1,-3,2,-1,3,-2", 40), "ok"),
    (decide_lozenge, _lozenge_dilate("1,-2,1,-3,-1,-3,-1,2,3,3", 30), "bad-pair"),
]
HEAP_FINISH_IDS = ["spiral", "dumbbell", "hexagon", "lozenge-bad-pair"]


@pytest.mark.parametrize("decide, word, reason", HEAP_FINISH_WORDS, ids=HEAP_FINISH_IDS)
def test_heap_finish_gives_the_round_result(monkeypatch, decide, word, reason):
    # With no sweep allowed the finish runs from the boundary heights, on
    # every word; one sweep may already settle the labels.
    seeds = []
    finish = solver._finish

    def counted(graph, g, fell):
        seeds.append(len(fell))
        return finish(graph, g, fell)

    monkeypatch.setattr(solver, "_finish", counted)
    want = decide(word)
    assert want.reason == reason and not seeds  # the default cap needs no finish
    monkeypatch.setattr(solver, "_round_cap", lambda n: 0)
    got = decide(word)
    assert (got.reason, got.witness, got.heights) == (want.reason, want.witness, want.heights)
    assert (got.sites, got.edges) == (want.sites, want.edges)
    assert len(seeds) == 1 and all(seeds)


def test_decision_relaxes_with_no_sort_and_no_edge_list(monkeypatch):
    # The relaxation reads the lines: it calls no sort, and the graph's
    # (2, E) edge list views are never built on the decision path.
    graphs, calls = [], set()
    relax = solver.compute_gmax

    def watched(graph, bh):
        graphs.append(graph)
        sys.setprofile(lambda frame, event, arg: event == "c_call" and calls.add(arg.__name__))
        try:
            return relax(graph, bh)
        finally:
            sys.setprofile(None)

    for module in (solver, tiler.lozenge):
        monkeypatch.setattr(module, "compute_gmax", watched)
    for decide, word, reason in HEAP_FINISH_WORDS:
        assert decide(word).reason == reason
    assert len(graphs) == 4 and "accumulate" in calls
    assert not calls & {"sort", "argsort", "lexsort"}, calls
    assert not any("_edges" in graph.__dict__ for graph in graphs)


def _solver_input(decide, region):
    """The site graph, boundary heights and metric that ``decide`` hands
    the solver, for a square word or a lozenge word or boundary."""
    if decide is decide_tileable:
        b = parse_boundary(region) if isinstance(region, str) else region
        return build_graph(b, build_subdivision(b)), boundary_height(b), alpha_array
    b = parse_lozenge(region) if isinstance(region, str) else region
    return (build_tri_graph(b, build_tri_subdivision(b)), lozenge_boundary_height(b),
            tri_alpha_array)


@pytest.fixture
def sweeps(monkeypatch):
    """The sweeps of each ``compute_gmax`` call, appended as it returns."""
    counts = []
    sweep, relax = solver._sweep, solver.compute_gmax

    def counted_sweep(graph, g):
        counts[-1] += 1
        sweep(graph, g)

    def counted_relax(graph, bh):
        counts.append(0)
        return relax(graph, bh)

    monkeypatch.setattr(solver, "_sweep", counted_sweep)
    monkeypatch.setattr(solver, "compute_gmax", counted_relax)
    return counts


def _assert_same_relaxation(graph, bh, metric):
    """``compute_gmax`` and the masked rounds give equal heights and
    witnesses."""
    g, bad = solver.compute_gmax(graph, bh)
    want_g, want_bad = masked_round_gmax(graph, bh, metric)
    assert np.array_equal(g, want_g) and g.dtype == want_g.dtype
    assert bad == want_bad


@pytest.mark.parametrize("decide, word, reason", HEAP_FINISH_WORDS, ids=HEAP_FINISH_IDS)
def test_frontier_rounds_match_the_masked_rounds_at_every_cap(monkeypatch, sweeps, decide,
                                                              word, reason):
    # At the default cap one sweep settles these graphs; at cap 0 the heap
    # finish does all the work.
    graph, bh, metric = _solver_input(decide, word)
    _assert_same_relaxation(graph, bh, metric)
    assert sweeps == [1]
    monkeypatch.setattr(solver, "_round_cap", lambda n: 0)
    _assert_same_relaxation(graph, bh, metric)
    assert sweeps == [1, 0]


@pytest.mark.parametrize("decide", [decide_tileable, decide_lozenge], ids=["square", "lozenge"])
def test_frontier_rounds_match_the_masked_rounds_on_random_regions(sweeps, decide):
    # Half the draws are dilated by 2, so tileable regions come up; the
    # rest are mostly unbalanced, whose boundary heights still seed the
    # same relaxation.  Up to 3,000 cells or triangles.  Some graphs take
    # more than one sweep, so the "sweep again" path runs too.
    rng = random.Random(20261019)
    verdicts = set()
    for k in range(100):
        if decide is decide_tileable:
            b = random_region(rng, rng.randrange(5, 3000) >> 2 * (k & 1))
            region = dilate(b.moves, 2) if k & 1 else b
        else:
            b = random_lozenge_region(rng, rng.randrange(5, 2900) >> 2 * (k & 1))
            region = _lozenge_dilate(b.word, 2) if k & 1 else b
        _assert_same_relaxation(*_solver_input(decide, region))
        verdicts.add(decide(region).reason)
    assert verdicts == {"ok", "bad-pair", "unbalanced-boundary"}
    assert max(sweeps) >= 2


def _bad_pair_words():
    """The five dumbbells of ``square-large``, the lozenge bad-pair base
    dilated by 150 to 400 and the heap-finish words."""
    words = [pytest.param(decide_tileable if lattice == "sq" else decide_lozenge, build(size),
                          id=label.format(size).replace(" ", ""))
             for label, lattice, build, sizes, kind in SQUARE_LARGE + LOZENGE_LARGE
             if kind == BAD_PAIR for size in sizes]
    assert len(words) == 10
    return words + [pytest.param(decide, word, id=name)
                    for (decide, word, _), name in zip(HEAP_FINISH_WORDS, HEAP_FINISH_IDS)]


@pytest.mark.parametrize("decide, word", _bad_pair_words())
def test_witness_is_the_least_violated_pair(decide, word):
    # Over every edge, checked with the scalar metric: the witness is the
    # violated edge whose endpoints come first in sorted site order.
    graph, bh, _ = _solver_input(decide, word)
    scalar = alpha if decide is decide_tileable else tri_alpha
    g, bad = compute_gmax(graph, bh)
    g, sites = g.tolist(), graph.sites
    violated = [(i, j) for i, j in zip(graph.src.tolist(), graph.dst.tolist())
                if g[j] - g[i] > scalar(sites[i], sites[j])
                or g[i] - g[j] > scalar(sites[j], sites[i])]
    if not violated:
        assert bad is None
        return
    i, j = min(violated)
    x, y = sites[i], sites[j]
    assert bad == (x, y, g[i], g[j], scalar(x, y), scalar(y, x))
    assert decide(word).witness == bad


def _random_bad_pairs(rng, count):
    """``count`` random bad-pair regions of up to 1,000 cells and as many
    of up to 1,000 triangles, as (decide, boundary)."""
    found = []
    for decide, draw in ((decide_tileable, random_region),
                         (decide_lozenge, random_lozenge_region)):
        kept = 0
        while kept < count:
            b = draw(rng, rng.randrange(20, 1001))
            if decide(b).reason == "bad-pair":
                found.append((decide, b))
                kept += 1
    return found


def test_every_violated_arc_ends_at_a_boundary_site():
    # Arcs into boundary sites are dropped from the relaxation and every
    # other arc holds once the labels settle, so on a bad-pair verdict
    # every violated arc runs into a boundary site: the dumbbells, the
    # lozenge bad-pair base dilated and random bad-pair regions.
    regions = [(decide_tileable, _dumbbell(m)) for m in range(1, 98, 2)]
    regions += [(decide_lozenge, _lozenge_dilate(LOZENGE_BAD_PAIR, k)) for k in range(1, 31)]
    regions += _random_bad_pairs(random.Random(23), 60)
    for decide, region in regions:
        graph, bh, _ = _solver_input(decide, region)
        g, bad = compute_gmax(graph, bh)
        assert bad is not None
        (first, second), (rise, fall) = graph.ends, graph.bounds
        gap = g[second] - g[first]
        heads = np.concatenate([second[gap > rise], first[-gap > fall]])
        boundary = np.zeros(len(g), dtype=bool)
        boundary[graph.boundary_ids] = True
        assert len(heads) and boundary[heads].all(), region


def test_agreement_with_the_whole_region_sweep_at_scale():
    # Area 10^4 to 3.3 * 10^5: two dilated random regions and spiral(200)
    # x 2 (tileable; the spiral has p = 321,608, past 2^18), a dumbbell (bad
    # pair) and a balanced random region.
    rng = random.Random(20261019)
    words = [dilate(random_region(rng, k).moves, 2) for k in (2500, 25000)]
    words += [dilate(spiral(200), 2), _dumbbell(99), random_region(random.Random(15), 10000).moves]
    reasons = []
    for word in words:
        b = parse_boundary(word)
        assert b.area >= 10 ** 4
        v = decide_tileable(b)
        ref = thurston_full(b)
        reason = ("ok" if ref.tileable else
                  "bad-pair" if boundary_height(b).valid else "unbalanced-boundary")
        assert (v.tileable, v.reason) == (ref.tileable, reason), b.area
        if v.tileable:
            coords, g = v.site_heights
            want = [ref.heights[s] for s in zip(*coords.T.tolist())]
            assert g.tolist() == want, b.area
        reasons.append(v.reason)
    assert reasons == ["ok", "ok", "ok", "bad-pair", "bad-pair"]


def test_dumbbells_agree_with_the_whole_region_sweep():
    # Every odd m from 1 to 97: balanced and untileable by construction.
    for m in range(1, 98, 2):
        b = parse_boundary(_dumbbell(m))
        v = decide_tileable(b)
        assert boundary_height(b).valid, m
        assert not thurston_full(b).tileable, m
        assert (v.tileable, v.reason) == (False, "bad-pair"), m


def _fresh_interpreter(code: str, stdin: str = "") -> str:
    """What ``code`` prints in a fresh interpreter that imports this tiler."""
    env = dict(os.environ)
    src = Path(tiler.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], input=stdin, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_decide_path_loads_no_scipy():
    # Importing scipy.sparse.csgraph costs a fresh process about as much
    # time and memory again as importing tiler; only the references use it.
    # The area-sized references and generators stay unloaded too, so a
    # process that only decides pays for neither.
    assert _fresh_interpreter("""
        import sys
        import tiler
        tiler.decide_tileable("RRUULLDD")
        tiler.decide_tileable("RDRURRULULDLLD")
        tiler.decide_lozenge("1,1,-3,-3,2,2,-1,-1,3,3,-2,-2")
        tiler.TilingOracle("RRRRUUUULLLLDDDD").domino_at((1, 2))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                     or m in ("tiler.reference", "tiler.generators")))
    """) == "[]"


def test_decide_path_enters_no_numpy_python_wrapper():
    # np.stack, np.full, np.flatnonzero, np.count_nonzero and the function
    # forms of array methods (np.sort, np.cumsum, ...) run Python code on
    # every call, which on small regions is a fair share of a decision.
    # The first calls load the tables and lazy imports; the watched ones
    # are a square and a lozenge decision that build a graph.
    assert _fresh_interpreter("""
        import os, sys
        import tiler
        tiler.decide_tileable("RRUULLDD")
        tiler.decide_lozenge("1,1,-3,-3,2,2,-1,-1,3,3,-2,-2")
        watched = tuple(os.path.join("numpy", "_core", name)
                        for name in ("shape_base.py", "numeric.py", "fromnumeric.py"))
        entered = set()

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.endswith(watched):
                entered.add(os.path.basename(code.co_filename) + ":" + code.co_name)

        sys.setprofile(profile)
        tiler.decide_tileable("RRRRUUUULLLLDDDD")
        tiler.decide_tileable("RDRURRULULDLLD")
        tiler.decide_lozenge("1,1,1,-3,-3,-3,2,2,2,-1,-1,-1,3,3,3,-2,-2,-2")
        sys.setprofile(None)
        print(sorted(entered))
    """) == "[]"


@pytest.mark.skipif(not solver._HEAP_KEPT, reason="the C library sets no malloc thresholds")
def test_repeated_decisions_do_not_refault_the_heap():
    # With glibc's default thresholds the heap top is trimmed after each
    # decision and the next one faults its pages in again, about 4,000
    # minor faults over these five calls; with the thresholds that the
    # solver sets at import, none.  The second call may still grow the
    # heap top once, by some 50-90 pages, as small blocks left between
    # calls shift the layout, so two calls come first.
    faults = _fresh_interpreter("""
        import resource, sys
        import tiler
        word = sys.stdin.read()
        for _ in range(2):
            tiler.decide_tileable(word)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            tiler.decide_tileable(word)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """, dilate(spiral(2), 200))
    assert int(faults) < 100


def _wrapped_stages():
    """{module: stage names} of the module-level functions that the
    benchmark's tracer wraps, read from ``perfbench/tracing.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    stages = {}
    for module, name, _ in tracing.WRAPPED:
        if "." not in name:
            stages.setdefault(importlib.import_module(module), []).append(name)
    return stages


# The stages each entry point looks up by module-level name, so that a
# layer can be timed by wrapping the name.
STAGES = _wrapped_stages()


def test_every_stage_is_called_by_its_module_level_name(monkeypatch):
    assert set(STAGES) == {tiler.solver, tiler.oracle, tiler.lozenge}
    calls = {}

    def counted(key, stage):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return stage(*args, **kwargs)
        return wrapper

    for module, names in STAGES.items():
        for name in names:
            key = (module.__name__, name)
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    assert decide_tileable("RRUULLDD").tileable
    tiler.TilingOracle("RRUULLDD")
    assert decide_lozenge("1,1,-3,-3,2,2,-1,-1,3,3,-2,-2").tileable
    assert calls == {(module.__name__, name): 1
                     for module, names in STAGES.items() for name in names}
