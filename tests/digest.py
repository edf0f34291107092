"""Differential digest of the decision pipelines and the oracle over a fixed corpus.

For every region of the corpus the digest hashes what a decision reports:
tileable flag, reason, p, n, site and edge counts, the bad-pair witness,
and the heights of a tileable verdict in sorted site order.  Regions are
hashed in groups; ``tests/golden/digest.json`` holds each group's region
count and hash.  A change that must not alter any output (a faster
solver, a new data layout) shows the full digest unchanged; a change that
alters outputs on purpose regenerates the file and says why.

The corpus:

* every simply connected square region of area <= 8, grouped by area;
* every simply connected polyiamond of <= 10 triangles, grouped by size;
* seeded random regions on both lattices, up to 3,000 cells or
  triangles, and random square regions dilated by 2 (tileable), in
  groups of 25;
* the 30 large words of the benchmark's ``square-large`` and
  ``lozenge-large`` workloads, one group each, unshifted;
* three tileable square regions of 1.1-1.4e4 cells, the shapes of the
  benchmark's ``oracle-tile`` workload, one group each: for these the
  digest hashes ``TilingOracle``'s whole tiling, sorted, and its height at
  every vertex of the closed region, in sorted order.

    python tests/digest.py            # compare every group with the file
    python tests/digest.py --write    # regenerate the file
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = Path(__file__).parent / "golden" / "digest.json"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from tiler import TilingOracle, decide_lozenge, decide_tileable  # noqa: E402
from tiler.generators import dilate, snake, spiral  # noqa: E402
from tiler.reference import (enumerate_lozenge_regions,  # noqa: E402
                             enumerate_simply_connected, random_lozenge_region,
                             random_region, random_tileable_region)
from tiler.region import parse_boundary  # noqa: E402
from workloads import LOZENGE_LARGE, SQUARE_LARGE  # noqa: E402

ENUM_SQUARE_AREA = 8
ENUM_TRIANGLES = 10
RANDOM_DRAWS = 300  # per lattice; about 5% of draws are balanced
DILATED_DRAWS = 100
CHUNK = 25

Group = Tuple[str, List[Tuple[str, object]]]  # name, (lattice, region) pairs


def region_record(lattice: str, region) -> list:
    if lattice == "oracle":
        orc = TilingOracle(region)
        cells = list(region.cells())
        tiling = sorted(orc.domino_at(cell).as_pair() for cell in cells)
        verts = sorted({(x + dx, y + dy) for x, y in cells for dx in (0, 1) for dy in (0, 1)})
        return [tiling, [orc.height_at(w) for w in verts]]
    v = decide_tileable(region) if lattice == "sq" else decide_lozenge(region)
    w = v.witness
    witness = None if w is None else [list(w.x), list(w.y), w.gx, w.gy, w.alpha_xy, w.alpha_yx]
    heights = None if v.heights is None else sorted(v.heights.items())
    return [v.tileable, v.reason, v.p, v.n, v.sites, v.edges, witness, heights]


def _by_size(lattice: str, regions, size) -> Iterator[Group]:
    groups: Dict[int, List] = {}
    for b in regions:
        groups.setdefault(size(b), []).append((lattice, b))
    for k in sorted(groups):
        yield "%s-enum-%02d" % (lattice, k), groups[k]


def _random(name: str, lattice: str, draws: int, draw) -> Iterator[Group]:
    rng = random.Random("digest/" + name)
    for i in range(0, draws, CHUNK):
        yield "%s-%02d" % (name, i // CHUNK), [(lattice, draw(rng)) for _ in range(CHUNK)]


def _large() -> Iterator[Group]:
    for label, lattice, build, sizes, _ in SQUARE_LARGE + LOZENGE_LARGE:
        for size in sizes:
            yield "large-" + label.format(size).replace(" ", ""), [(lattice, build(size))]


def _oracle() -> Iterator[Group]:
    rng = random.Random("digest/oracle")
    words = {"snake(6,3)x24": dilate(snake(6, 3), 24), "spiral(2)x30": dilate(spiral(2), 30),
             "random1500x3": dilate(random_tileable_region(rng, 1500).moves, 3)}
    for label, word in words.items():
        yield "oracle-" + label, [("oracle", parse_boundary(word))]


# Each family yields its groups in a fixed order, built one at a time, so
# a test can take the first few groups of a family cheaply.
FAMILIES: Dict[str, Callable[[], Iterator[Group]]] = {
    "sq-enum": lambda: _by_size("sq", enumerate_simply_connected(ENUM_SQUARE_AREA),
                                lambda b: b.area),
    "tri-enum": lambda: _by_size("tri", enumerate_lozenge_regions(ENUM_TRIANGLES),
                                 lambda b: b.n),
    "sq-random": lambda: _random("sq-random", "sq", RANDOM_DRAWS,
                                 lambda rng: random_region(rng, rng.randrange(10, 3001))),
    "tri-random": lambda: _random("tri-random", "tri", RANDOM_DRAWS,
                                  lambda rng: random_lozenge_region(rng, rng.randrange(10, 3001))),
    "sq-dilated": lambda: _random("sq-dilated", "sq", DILATED_DRAWS,
                                  lambda rng: dilate(random_region(rng, rng.randrange(5, 751)).moves, 2)),
    "large": _large,
    "oracle": _oracle,
}


def group_digest(regions: List[Tuple[str, object]]) -> Dict[str, object]:
    h = hashlib.sha256()
    for lattice, region in regions:
        h.update(json.dumps(region_record(lattice, region)).encode())
        h.update(b"\n")
    return {"count": len(regions), "sha256": h.hexdigest()}


def load() -> Dict[str, Dict[str, object]]:
    return json.loads(DIGEST_FILE.read_text())


def main(argv: List[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tests/digest.py [--write]", file=sys.stderr)
        return 2
    got = {name: group_digest(regions)
           for build in FAMILIES.values() for name, regions in build()}
    total = sum(g["count"] for g in got.values())
    if argv:
        DIGEST_FILE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print("wrote %d groups, %d regions to %s" % (len(got), total, DIGEST_FILE))
        return 0
    want = load()
    differ = sorted(n for n in set(want) | set(got) if want.get(n) != got.get(n))
    for name in differ:
        print("differs: %s  file %s  now %s" % (name, want.get(name), got.get(name)))
    print("%d groups, %d regions, %d differ" % (len(got), total, len(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
