"""Pins the benchmark's generated families and its tracer.

    python3 -m pytest -q perfbench

The families' verdicts are checked against the matching references at
sizes small enough to enumerate, and the fast path is checked to agree.
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tiler import decide_lozenge, decide_tileable, generators, parse_boundary, parse_lozenge  # noqa: E402
from tiler.lozenge import lozenge_matching_decide  # noqa: E402
from tiler.reference import matching_decide  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_dumbbells_are_balanced_and_untileable(m):
    b = parse_boundary(W.dumbbell(m))
    assert b.area == 2 * (2 * m + 1) ** 2 + 2
    assert W._square_kind(b) == W.BAD_PAIR
    assert matching_decide(b) is None
    assert decide_tileable(b.moves).reason == W.BAD_PAIR


@pytest.mark.parametrize("base, kind", [(W.HEXAGON, W.OK),
                                        (W.TRIANGLE, W.UNBALANCED),
                                        (W.LOZENGE_BAD_PAIR, W.BAD_PAIR)])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_lozenge_dilations_keep_their_kind(base, kind, k):
    b = parse_lozenge(W.lozenge_dilate(base, k))
    assert b.p == k * parse_lozenge(base).p
    assert W._lozenge_kind(b) == kind
    assert (lozenge_matching_decide(b) is not None) == (kind == W.OK)
    assert decide_lozenge(b.word).reason == kind


@pytest.mark.parametrize("word, k, kind", [(generators.snake(6, 3), 2, W.OK),
                                           (generators.spiral(2), 2, W.OK),
                                           (generators.spiral(2), 3, W.UNBALANCED)])
def test_square_dilations_keep_their_kind(word, k, kind):
    b = parse_boundary(generators.dilate(word, k))
    assert W._square_kind(b) == kind


def test_large_workloads_repeat_per_seed_and_keep_their_work():
    a = W.build("square-large", 1)
    assert a == W.build("square-large", 1)
    b = W.build("square-large", 2)
    assert a["ops"] != b["ops"]
    assert sorted(a["work"]) == sorted(b["work"])
    assert sorted(a["expected"]) == sorted(b["expected"])
    assert all(agrees for _, _, agrees in a["families"])


def test_small_mixed_has_fixed_shares_and_matches_the_fast_path():
    wl = W.build("small-mixed", 3)
    decide = {"sq": decide_tileable, "tri": decide_lozenge}
    by_lattice = {"sq": [], "tri": []}
    for (lattice, word), code in zip(wl["ops"], wl["expected"]):
        by_lattice[lattice].append(code)
        assert decide[lattice](word).reason == W.REASONS[code]
    for codes in by_lattice.values():
        assert len(codes) == 3 * len(range(30, W.SMALL_MAX + 1, 20))
        assert codes.count(0) == codes.count(1) == codes.count(2)


def test_quantile_matches_statistics_quantiles():
    data = sorted([5, 1, 9, 3, 3, 7, 12, 2, 8, 4, 6])
    assert run._quantile(data, 0.5) == statistics.median(data)
    assert run._quantile(data, 0.9) == pytest.approx(statistics.quantiles(data, n=10)[8])


def test_tracer_records_layers_and_restores_them():
    import tiler.solver as solver
    original = solver.build_subdivision
    tracer = tracing.Tracer()
    tracer.install()
    tracer.collect = True
    tracer.op = 0
    try:
        assert decide_tileable("RRUULLDD").tileable
    finally:
        tracer.uninstall()
    assert solver.build_subdivision is original
    counts = tracer.take_counts()
    assert counts["region.edges"] == 8
    assert counts["approxgraph.sites"] == 9
    times = tracer.take_times()
    names = {name for _, name in times}
    assert {"region.parse", "region.height", "subdivision", "approxgraph", "solver"} <= names
    assert all(self_ns <= total_ns for self_ns, total_ns, _ in times.values())
    assert tracer.absent == []


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("tiler.solver", "renamed_stage", "subdivision.renamed"),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert decide_tileable("RRUULLDD").tileable
    finally:
        tracer.uninstall()
    assert tracer.absent == ["subdivision.renamed"]


def test_benchmark_json_names_the_workloads_and_gives_setup_the_largest_bound():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert all(m["bound"] <= spec["end_to_end"][3]["bound"] for m in spec["end_to_end"])
    assert spec["end_to_end"][3]["name"] == "setup_s"
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
