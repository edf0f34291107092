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
from tiler import decide_tileable
from tiler.approxgraph import ApproxGraph
from tiler.errors import InternalInconsistency
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
    bh = BoundaryHeight({(0, 0): 0, (0, 1): 1}, True)
    with pytest.raises(InternalInconsistency, match="1 sites unreached"):
        compute_gmax(graph, bh)


def test_decide_path_loads_no_scipy():
    # Importing scipy.sparse.csgraph costs a fresh process about as much
    # time and memory again as importing tiler; only the references use it.
    code = textwrap.dedent("""
        import sys
        import tiler
        tiler.decide_tileable("RRUULLDD")
        tiler.decide_tileable("RDRURRULULDLLD")
        tiler.decide_lozenge("1,1,-3,-3,2,2,-1,-1,3,3,-2,-2")
        tiler.TilingOracle("RRRRUUUULLLLDDDD").domino_at((1, 2))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ)
    src = Path(tiler.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
