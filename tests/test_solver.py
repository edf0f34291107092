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
from tiler.approxgraph import ApproxGraph
from tiler.errors import InternalInconsistency
from tiler.generators import dilate, spiral
from tiler.lattice import alpha, alpha_array
from tiler.reference import (
    enumerate_simply_connected,
    matching_decide,
    random_region,
    thurston_full,
)
from tiler.region import BoundaryHeight, boundary_height, parse_boundary
from tiler.solver import compute_gmax


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
        assert v.tileable == thurston_full(b, want_heights=False).tileable, b.moves


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
    assert (gap <= alpha_array(x, y)).all()
    assert (-gap <= alpha_array(y, x)).all()


def test_unreached_site_is_an_internal_inconsistency():
    # Two boundary sites joined by an edge and a third site with none.
    coords = np.array([(0, 0), (0, 1), (5, 5)], dtype=np.int64)
    graph = ApproxGraph(coords, np.array([0]), np.array([1]), np.array([0, 1]))
    bh = BoundaryHeight(np.array([0, 1]), True)
    with pytest.raises(InternalInconsistency, match="1 sites unreached"):
        compute_gmax(graph, bh)
    # Two more sites joined only to each other: the rounds must not lower
    # the unreached label through the arcs between them, and must stop.
    coords = np.array([(0, 0), (0, 1), (5, 5), (5, 6)], dtype=np.int64)
    graph = ApproxGraph(coords, np.array([0, 2]), np.array([1, 3]), np.array([0, 1]))
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


@pytest.mark.parametrize("decide, word, reason", [
    (decide_tileable, dilate(spiral(2), 20), "ok"),
    (decide_tileable, _dumbbell(25), "bad-pair"),
    (decide_lozenge, _lozenge_dilate("1,-3,2,-1,3,-2", 40), "ok"),
    (decide_lozenge, _lozenge_dilate("1,-2,1,-3,-1,-3,-1,2,3,3", 30), "bad-pair"),
], ids=["spiral", "dumbbell", "hexagon", "lozenge-bad-pair"])
def test_heap_finish_gives_the_round_result(monkeypatch, decide, word, reason):
    seeds = []
    finish = solver._finish

    def counted(g, fell, *arcs):
        seeds.append(len(fell))
        return finish(g, fell, *arcs)

    monkeypatch.setattr(solver, "_finish", counted)
    want = decide(word)
    assert want.reason == reason and not seeds  # the default cap needs no finish
    for cap in (0, 1):
        monkeypatch.setattr(solver, "_round_cap", lambda n: cap)
        got = decide(word)
        assert (got.reason, got.witness, got.heights) == (want.reason, want.witness, want.heights)
        assert (got.sites, got.edges) == (want.sites, want.edges)
    assert len(seeds) == 2 and all(seeds)


def test_decide_path_loads_no_scipy():
    # Importing scipy.sparse.csgraph costs a fresh process about as much
    # time and memory again as importing tiler; only the references use it.
    # The area-sized references and generators stay unloaded too, so a
    # process that only decides pays for neither.
    code = textwrap.dedent("""
        import sys
        import tiler
        tiler.decide_tileable("RRUULLDD")
        tiler.decide_tileable("RDRURRULULDLLD")
        tiler.decide_lozenge("1,1,-3,-3,2,2,-1,-1,3,3,-2,-2")
        tiler.TilingOracle("RRRRUUUULLLLDDDD").domino_at((1, 2))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                     or m in ("tiler.reference", "tiler.generators")))
    """)
    env = dict(os.environ)
    src = Path(tiler.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# The stages each driver looks up by module-level name, so that a layer
# can be timed by wrapping the name.
STAGES = {
    tiler.solver: ("parse_boundary", "boundary_height", "build_subdivision",
                   "build_graph", "compute_gmax"),
    tiler.oracle: ("parse_boundary", "boundary_height", "build_subdivision",
                   "build_graph", "compute_gmax"),
    tiler.lozenge: ("parse_lozenge", "lozenge_boundary_height", "build_tri_subdivision",
                    "build_tri_graph", "compute_gmax"),
}


def test_every_stage_is_called_by_its_module_level_name(monkeypatch):
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
