"""Command-line front end.

Subcommands:

* ``check``  -- decide tileability, print the verdict JSON; exit 0 when
  tileable, 1 when not, 2 on invalid input.
* ``tile``   -- print the maximum tiling as a JSON list of tile cell
  pairs, assembled per cell through the site oracle.
* ``query``  -- answer a single cell's tile through the site oracle.
* ``gen``    -- emit boundary words for the built-in families.
* ``bench``  -- timing sweep over generated families; CSV records plus
  fitted log-log exponents of time versus perimeter on stderr.
* ``render`` -- layered SVG picture of a region.

Boundary words come from a positional argument or ``--in FILE`` (``-``
for stdin).  ``--lattice tri`` switches ``check`` and ``render`` to the
triangular grid; the oracle-backed commands are square-only.  The
``TILER_CAP`` environment variable overrides the cell cap of the
reference algorithms.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from tiler import generators
from tiler.errors import (EmptyInterior, NotClosed, OutsideRegion,
                          SelfIntersecting, TilerError)
from tiler.lozenge import decide_lozenge, parse_lozenge
from tiler.oracle import TilingOracle
from tiler.reference import matching_decide, thurston_full
from tiler.region import parse_boundary
from tiler.render import render_lozenge, render_square
from tiler.solver import decide_tileable

# Bad input, exit code 2; every other TilerError exits with 1.
_INPUT_ERRORS = (ValueError, NotClosed, SelfIntersecting, EmptyInterior, OutsideRegion)


def _read_word(args: argparse.Namespace) -> str:
    if getattr(args, "word", None):
        return args.word.strip()
    src = getattr(args, "infile", None)
    if src is None:
        raise ValueError("no boundary word: pass it as an argument or via --in")
    if src == "-":
        return sys.stdin.read().strip()
    try:
        with open(src, "r", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError as exc:
        raise ValueError(f"cannot read {src}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{src} is not ASCII (byte {exc.start})") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def cmd_check(args: argparse.Namespace) -> int:
    word = _read_word(args)
    verdict = decide_lozenge(word) if args.lattice == "tri" else decide_tileable(word)
    print(verdict.to_json())
    return 0 if verdict.tileable else 1


def cmd_tile(args: argparse.Namespace) -> int:
    b = parse_boundary(_read_word(args))
    oracle = TilingOracle(b)
    pairs = sorted({oracle.domino_at(c).as_pair() for c in b.cells()})
    print(json.dumps({"count": len(pairs),
                      "dominoes": [[list(a), list(c)] for a, c in pairs]}))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    b = parse_boundary(_read_word(args))
    try:
        x, y = (int(t) for t in args.cell.split(","))
    except ValueError:
        raise ValueError(f"bad --cell {args.cell!r}, expected X,Y") from None
    placement = TilingOracle(b).domino_at((x, y))
    print(json.dumps({"cell": list(placement.cell),
                      "partner": list(placement.partner),
                      "orientation": placement.orientation}))
    return 0


_FAMILIES = {
    "rect": (2, lambda p, _s: generators.rect(p[0], p[1])),
    "aztec": (1, lambda p, _s: generators.aztec(p[0])),
    "snake": (2, lambda p, _s: generators.snake(p[0], p[1])),
    "spiral": (1, lambda p, _s: generators.spiral(p[0])),
    "random": (1, lambda p, s: generators.random_word(p[0], s)),
}


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "dilate":
        if len(args.params) != 1:
            raise ValueError("dilate takes one parameter: the scale factor")
        base = _read_word(args)
        word = generators.dilate(base, args.params[0])
    else:
        want, build = _FAMILIES[args.family]
        if len(args.params) != want:
            raise ValueError(f"{args.family} takes {want} parameter(s), "
                             f"got {len(args.params)}")
        word = build(args.params, args.seed)
    _emit(word, args.out)
    return 0


class BenchRecord(NamedTuple):
    family: str
    p: int
    n: int
    algo: str
    ms: str       # median wall time, or "" when skipped
    verdict: str  # "tileable" | "untileable" | "skipped"
    sites: int
    edges: int


# Odd-area corridor bases; even dilation factors make every instance
# balanced and trivially tileable, so no algorithm can shortcut.
_BENCH_BASES = {
    "spiral": generators.spiral(2),
    "snake": generators.snake(6, 3),
}


def _bench_instance(family: str, target_p: int):
    base = _BENCH_BASES[family]
    k = max(2, 2 * round(target_p / (2 * len(base))))
    return parse_boundary(generators.dilate(base, k))


def _timed(fn, repeat: int) -> Tuple[float, object]:
    times = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times), result


def cmd_bench(args: argparse.Namespace) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    for f in families:
        if f not in _BENCH_BASES:
            raise ValueError(f"unknown bench family {f!r}")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ("fast", "thurston", "matching"):
            raise ValueError(f"unknown algorithm {a!r}")
    sizes = [int(s) for s in args.sizes.split(",")]

    records: List[BenchRecord] = []
    for family in families:
        for target in sizes:
            b = _bench_instance(family, target)
            verdicts: Dict[str, bool] = {}
            for algo in algos:
                sites = edges = 0
                if algo == "fast":
                    ms, v = _timed(lambda: decide_tileable(b), args.repeat)
                    verdicts[algo] = v.tileable
                    sites, edges = v.sites, v.edges
                else:
                    if b.area > args.cap:
                        records.append(BenchRecord(family, b.p, b.area, algo,
                                                   "", "skipped", 0, 0))
                        continue
                    if algo == "thurston":
                        run = lambda: thurston_full(b, cap=args.cap)
                        ms, v = _timed(run, args.repeat)
                        verdicts[algo] = v.tileable
                    else:
                        run = lambda: matching_decide(b, cap=args.cap)
                        ms, v = _timed(run, args.repeat)
                        verdicts[algo] = v is not None
                records.append(BenchRecord(family, b.p, b.area, algo,
                                           f"{ms:.3f}", "tileable"
                                           if verdicts[algo] else "untileable",
                                           sites, edges))
            if len(set(verdicts.values())) > 1:
                raise TilerError(f"verdict mismatch on {family} p={b.p}: "
                                 f"{verdicts}")
            print(f"# {family} p={b.p} n={b.area} done", file=sys.stderr)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "p", "n", "algo", "ms", "verdict",
                     "sites", "edges"])
    for rec in records:
        writer.writerow(list(rec))
    _emit(buf.getvalue(), args.out)

    for family in families:
        for algo in algos:
            pts = [(r.p, float(r.ms)) for r in records
                   if r.family == family and r.algo == algo and r.ms]
            if len(pts) >= 2:
                exp = fit_exponent(pts)
                print(f"# fit family={family} algo={algo} "
                      f"points={len(pts)} exponent={exp:.3f}",
                      file=sys.stderr)
    return 0


def fit_exponent(points: Sequence[Tuple[float, float]]) -> float:
    """Slope of log(time) against log(p)."""
    xs = np.log([p for p, _ in points])
    ys = np.log([max(t, 1e-6) for _, t in points])
    return float(np.polyfit(xs, ys, 1)[0])


def cmd_render(args: argparse.Namespace) -> int:
    word = _read_word(args)
    layers = [s.strip() for s in args.layers.split(",") if s.strip()]
    if args.lattice == "tri":
        svg = render_lozenge(parse_lozenge(word), layers, args.scale)
    else:
        svg = render_square(parse_boundary(word), layers, args.scale)
    _emit(svg, args.out)
    return 0


def _add_word_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("word", nargs="?", help="boundary word")
    sp.add_argument("--in", dest="infile", metavar="FILE",
                    help="read the boundary word from FILE, or - for stdin")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tiler",
        description="Tileability of simply connected lattice regions in "
                    "near-linear time in the perimeter.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="decide tileability")
    _add_word_args(sp)
    sp.add_argument("--lattice", choices=("square", "tri"), default="square")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("tile", help="print the maximum tiling")
    _add_word_args(sp)
    sp.set_defaults(fn=cmd_tile)

    sp = sub.add_parser("query", help="tile covering one cell")
    _add_word_args(sp)
    sp.add_argument("--cell", required=True, metavar="X,Y")
    sp.set_defaults(fn=cmd_query)

    sp = sub.add_parser("gen", help="generate a boundary word")
    sp.add_argument("family", choices=sorted(_FAMILIES) + ["dilate"])
    sp.add_argument("params", nargs="*", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--in", dest="infile", metavar="FILE",
                    help="base word for the dilate family")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_gen, word=None)

    sp = sub.add_parser("bench", help="timing sweep, CSV output")
    sp.add_argument("--families", default="spiral,snake")
    sp.add_argument("--sizes", default=",".join(str(2 ** e)
                                                for e in range(8, 17)),
                    help="target perimeters, comma-separated")
    sp.add_argument("--algos", default="fast,thurston")
    sp.add_argument("--repeat", type=_positive_int, default=5)
    sp.add_argument("--cap", type=int, default=400_000,
                    help="cell cap for the reference algorithms")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("render", help="SVG picture")
    _add_word_args(sp)
    sp.add_argument("--lattice", choices=("square", "tri"), default="square")
    sp.add_argument("--layers", default="boundary",
                    help="comma list of boundary,subdivision,heights,tiling")
    sp.add_argument("--scale", type=_positive_int, default=24)
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_render)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except TilerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
