"""Command-line front end: exit codes, JSON shapes, golden SVG output.

The golden files under ``tests/golden/`` were produced by the renderer
itself on the committed sample set and pin its byte-exact output.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tiler.cli import main
from tiler.errors import NotTileable
from tiler.generators import rect, spiral
from tiler.reference import extract_tiling, random_tileable_region, thurston_full
from tiler.region import boundary_height, parse_boundary
from tiler.render import render_square

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_exit_codes_and_json(capsys):
    code, out, _ = run(capsys, "check", "RRUULLDD")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["tileable"] is True
    assert (verdict["p"], verdict["n"]) == (8, 4)

    code, out, _ = run(capsys, "check", "RULD")
    assert code == 1
    assert json.loads(out)["witness"]["kind"] == "unbalanced-boundary"

    code, _, err = run(capsys, "check", "RRUZLLDD")
    assert code == 2
    assert "index 3" in err


def test_check_triangular_lattice(capsys):
    code, out, _ = run(capsys, "check", "--lattice", "tri", "1,2,-1,-2")
    assert code == 0 and json.loads(out)["tileable"] is True
    code, out, _ = run(capsys, "check", "--lattice", "tri", "1,2,3")
    assert code == 1
    code, _, err = run(capsys, "check", "--lattice", "tri", "1,9,-1,-2")
    assert code == 2 and "index 1" in err


@pytest.mark.parametrize("word, index", [
    ("\u0661,2,3", 0), ("1,+2,-1,-2", 1), ("1,2,01,-2", 2),
])
def test_non_canonical_lozenge_token_exits_2(capsys, word, index):
    code, out, err = run(capsys, "check", "--lattice", "tri", word)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"at index {index}" in err


def test_query_frozen_and_outside(capsys):
    code, out, _ = run(capsys, "query", "RRULLD", "--cell", "0,0")
    assert code == 0
    assert json.loads(out) == {"cell": [0, 0], "partner": [1, 0],
                               "orientation": "H"}
    code, _, err = run(capsys, "query", "RRULLD", "--cell", "5,5")
    assert code == 2 and "not in the region" in err


def test_tile_oracle_and_full_agree(capsys):
    rng = random.Random(424242)
    words = [rect(3, 4)] + [random_tileable_region(rng, 40).moves
                            for _ in range(5)]
    for word in words:
        code, out, _ = run(capsys, "tile", word)
        assert code == 0
        b = parse_boundary(word)
        want = sorted(extract_tiling(b, thurston_full(b).heights))
        assert json.loads(out) == {"count": len(want),
                                   "dominoes": [[list(a), list(c)] for a, c in want]}
        assert 2 * len(want) == b.area
    # The oracle is the only source: the switch to the reference is gone.
    for option in ("--via-full", "--via-oracle"):
        with pytest.raises(SystemExit) as exc:
            main(["tile", rect(2, 2), option])
        assert exc.value.code == 2


def test_tile_untileable_region(capsys):
    code, _, err = run(capsys, "tile", "RULD")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("word, message", [
    ("RULD", "boundary height walk does not close up"),
    ("RDRURRULULDLLD", "sites (1, 1) and (2, 0) have height gap -6, bounds are -2..2"),
], ids=["unbalanced", "bad-pair"])
def test_query_refuses_an_untileable_region(capsys, word, message):
    code, out, err = run(capsys, "query", word, "--cell", "0,0")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_gen_families(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "rect", "2", "2")
    assert code == 0 and out.strip() == "RRUULLDD"

    code, first, _ = run(capsys, "gen", "random", "50", "--seed", "7")
    code, second, _ = run(capsys, "gen", "random", "50", "--seed", "7")
    assert first == second

    base = tmp_path / "base.txt"
    base.write_text(rect(2, 1))
    code, out, _ = run(capsys, "gen", "dilate", "2", "--in", str(base))
    assert code == 0 and out.strip() == rect(4, 2)

    code, _, err = run(capsys, "gen", "rect", "2")
    assert code == 2 and "parameter" in err


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("RRUULLDD\n"))
    code, out, _ = run(capsys, "check", "--in", "-")
    assert code == 0 and json.loads(out)["tileable"] is True


def test_bench_csv_schema_and_fit(capsys, tmp_path):
    out_file = tmp_path / "bench.csv"
    code, _, err = run(capsys, "bench", "--sizes", "64,128", "--repeat", "1",
                       "--algos", "fast,matching", "--families", "snake",
                       "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "family,p,n,algo,ms,verdict,sites,edges"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4  # 2 sizes x 2 algos
    assert {r[3] for r in rows} == {"fast", "matching"}
    assert {r[5] for r in rows} == {"tileable"}
    assert "# fit family=snake algo=fast" in err
    assert "exponent=" in err


def test_render_golden_files(capsys, tmp_path):
    cases = [
        ("sq_2x2_full.svg",
         ["render", "RRUULLDD", "--layers", "boundary,tiling,heights"]),
        ("sq_spiral_sub.svg",
         ["render", "--layers", "subdivision,boundary", "--scale", "12",
          spiral(2)]),
        # 24 inside squares; the other square files draw none.
        ("sq_rect_sub.svg",
         ["render", "--layers", "subdivision,boundary", "--scale", "12",
          rect(12, 12)]),
        ("tri_hex.svg",
         ["render", "--lattice", "tri", "--layers", "subdivision,tiling,boundary",
          "1,1,-3,-3,2,2,-1,-1,3,3,-2,-2"]),
    ]
    for name, argv in cases:
        target = tmp_path / name
        code, _, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert target.read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("word", ["RDRURRULULDLLD", "RULD"], ids=["bad-pair", "unbalanced"])
def test_render_untileable_region(word):
    b = parse_boundary(word)
    bh = boundary_height(b)
    with pytest.raises(NotTileable, match="tiling layer requested for an untileable region"):
        render_square(b, ["heights", "tiling"])
    if not bh.valid:
        with pytest.raises(NotTileable, match="boundary heights do not close up"):
            render_square(b, ["heights"])
        return
    # A balanced region without a tiling is labelled with its boundary
    # heights, one label per boundary vertex, in sorted vertex order.
    labels = re.findall(r">(-?\d+)</text>", render_square(b, ["heights"]))
    assert labels == [str(h) for _, h in sorted(zip(b.vertices, bh.heights.tolist()))]


def test_render_heights_are_the_whole_region_maximum_heights():
    rng = random.Random(8080)
    for _ in range(5):
        b = random_tileable_region(rng, rng.randrange(10, 80))
        labels = re.findall(r">(-?\d+)</text>", render_square(b, ["heights"]))
        assert labels == [str(h) for _, h in sorted(thurston_full(b).heights.items())]


def test_render_does_not_load_the_references():
    code = "import sys, tiler.render; print('tiler.reference' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_render_rejects_bad_layer(capsys):
    code, _, err = run(capsys, "render", "RRUULLDD", "--layers", "wat")
    assert code == 2 and "unknown layer" in err


def test_json_wrapper_without_moves_string_exits_2(capsys):
    for text in ('{"name": "x"}', '{"moves": 5}'):
        code, out, err = run(capsys, "check", text)
        assert (code, out) == (2, "")
        assert err == 'error: JSON input needs a "moves" string\n'


def test_unreadable_input_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, _, err = run(capsys, "check", "--in", str(missing))
    assert code == 2
    assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1
    accented = tmp_path / "accented.txt"
    accented.write_bytes("RR\u00c9UULLDD".encode("utf-8"))
    code, _, err = run(capsys, "check", "--in", str(accented))
    assert code == 2
    assert err == f"error: {accented} is not ASCII (byte 2)\n"


@pytest.mark.parametrize("argv", [
    ["bench", "--sizes", "64", "--repeat", "0"],
    ["render", "RRUULLDD", "--scale", "0"],
    ["render", "RRUULLDD", "--scale", "-3"],
])
def test_non_positive_repeat_and_scale_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected a positive integer, got '{argv[-1]}'" in captured.err


def scan_scripts_table(text):
    """``[project.scripts]`` of a pyproject text, read line by line.

    Python 3.10 has no ``tomllib``, so the same scan serves every
    interpreter; it covers the one-line ``name = "module:function"``
    entries that table holds.
    """
    table, scripts = None, {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]" and "=" in line:
            name, target = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def script_target(name):
    """The ``module:function`` that ``pyproject.toml`` declares for ``name``."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return scan_scripts_table(text)[name]


def run_script(target, *argv):
    """Run ``target`` with ``argv`` in a fresh interpreter, as the
    wrapper an installer generates does, with this checkout's ``src``
    first on the import path."""
    module, function = target.split(":")
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_scripts_table_scan_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert scan_scripts_table(text) == tomllib.loads(text)["project"]["scripts"]


def test_console_script_entry_point():
    target = script_target("tiler")
    proc = run_script(target, "check", "RRUULLDD")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tileable"] is True

    proc = run_script(target, "check", "RULD")
    assert proc.returncode == 1, proc.stderr

    proc = run_script(target, "check", "RRUZLLDD")
    assert proc.returncode == 2, proc.stderr
    assert "index 3" in proc.stderr


@pytest.mark.skipif(shutil.which("tiler") is None,
                    reason="no installed `tiler` script on PATH")
def test_installed_console_script():
    proc = subprocess.run(["tiler", "check", "RRUULLDD"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tileable"] is True
