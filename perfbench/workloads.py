"""Seeded inputs and their expected results for every benchmark workload.

A workload is a list of operations that one worker pass runs in order,
plus the expected result code of each operation.  The seed moves where
each boundary word starts (a translation of the region, which leaves the
work the same), shuffles the pass order, and draws the random regions;
the instance shapes and sizes of the large workloads do not depend on it,
so runs with different seeds measure the same amount of work.

Expected results never come from the code under test:

* the dilation families and the dumbbells have their verdict kind by
  construction;
* the dumbbell and lozenge bad-pair families are checked against the
  matching references at every size up to ``REF_CAP`` cells, in every run;
* small regions are classified by colour count and by matching;
* oracle queries are checked against ``extract_tiling(thurston_full(...))``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from tiler import generators, parse_boundary, parse_lozenge
from tiler.lozenge import lozenge_matching_decide, random_lozenge_region
from tiler.reference import (extract_tiling, matching_decide, random_region,
                             random_tileable_region, thurston_full)

from worker import REASONS, STEPS

OK, UNBALANCED, BAD_PAIR = REASONS
KIND_CODE = {kind: code for code, kind in enumerate(REASONS)}

# Largest region (cells or triangles) a reference check may take in a run.
REF_CAP = 20_000
SMALL_MAX = 400  # cells or triangles of a small-mixed region

HEXAGON = "1,-3,2,-1,3,-2"
TRIANGLE = "1,2,3"
LOZENGE_BAD_PAIR = "1,-2,1,-3,-1,-3,-1,2,3,3"


def dumbbell(m: int, corridor: int = 2) -> str:
    """Two (2m+1) x (2m+1) squares joined at mid-height by a corridor one
    cell wide.  For odd m and an even corridor the colours balance, but
    each square has one cell more of its corner colour, and the corridor
    can take only one cell off the left square, so the region is
    untileable."""
    s = 2 * m + 1
    return ("R" * s + "U" * m + "R" * corridor + "D" * m + "R" * s + "U" * s
            + "L" * s + "D" * m + "L" * corridor + "U" * m + "L" * s + "D" * s)


def lozenge_dilate(base: str, k: int) -> str:
    """Repeat every token of a triangular boundary word k times."""
    return ",".join(",".join([t] * k) for t in base.split(","))


def _shift_square(word: str, rng: random.Random) -> str:
    i = rng.randrange(len(word))
    return word[i:] + word[:i]


def _shift_lozenge(word: str, rng: random.Random) -> str:
    toks = word.split(",")
    i = rng.randrange(len(toks))
    return ",".join(toks[i:] + toks[:i])


def _square_kind(b) -> str:
    cells = list(b.cells())
    white = sum(1 for x, y in cells if (x + y) % 2 == 0)
    if 2 * white != len(cells):
        return UNBALANCED
    return OK if matching_decide(b, cap=REF_CAP) is not None else BAD_PAIR


def _lozenge_kind(b) -> str:
    ups = sum(1 for f in b.faces() if f[2])
    if 2 * ups != b.n:
        return UNBALANCED
    return OK if lozenge_matching_decide(b, cap=REF_CAP) is not None else BAD_PAIR


def verify_dumbbells() -> List[Tuple[str, int, bool]]:
    """Check the dumbbells against matching at every odd m up to REF_CAP
    cells: (family, m, agrees)."""
    out = []
    m = 1
    while 2 * (2 * m + 1) ** 2 + 2 <= REF_CAP:
        kind = _square_kind(parse_boundary(dumbbell(m)))
        out.append(("dumbbell", m, kind == BAD_PAIR))
        m += 2
    return out


def verify_lozenge_bad_pairs() -> List[Tuple[str, int, bool]]:
    """Check the dilated lozenge bad-pair base against matching at every
    factor up to REF_CAP triangles: (family, k, agrees)."""
    out = []
    k = 1
    while 8 * k * k <= REF_CAP:
        kind = _lozenge_kind(parse_lozenge(lozenge_dilate(LOZENGE_BAD_PAIR, k)))
        out.append(("lozenge bad-pair base", k, kind == BAD_PAIR))
        k += 1
    return out


# Large-instance families: (label, lattice, builder, size parameters, kind).
# Five instances per verdict kind, so a pass has 15 operations; with 15 the
# 50th and 90th percentiles fall mid-way through one instance's samples
# rather than between two instances.  Sizes keep a pass near 2 s, so a
# 20 s run collects over 100 calls and has ten beyond its p90.
SQUARE_LARGE = (
    ("snake(6,3)x{}", "sq", lambda k: generators.dilate(generators.snake(6, 3), k),
     (48, 96, 190), OK),
    ("spiral(2)x{}", "sq", lambda k: generators.dilate(generators.spiral(2), k),
     (100, 200), OK),
    ("spiral(2)x{}", "sq", lambda k: generators.dilate(generators.spiral(2), k),
     (71, 143, 215, 287, 357), UNBALANCED),
    ("dumbbell(m={})", "sq", dumbbell, (125, 187, 251, 375, 499), BAD_PAIR),
)
LOZENGE_LARGE = (
    ("hexagon x{}", "tri", lambda k: lozenge_dilate(HEXAGON, k),
     (250, 300, 400, 500, 600), OK),
    ("triangle x{}", "tri", lambda k: lozenge_dilate(TRIANGLE, k),
     (500, 800, 1100, 1400, 1700), UNBALANCED),
    ("bad-pair base x{}", "tri", lambda k: lozenge_dilate(LOZENGE_BAD_PAIR, k),
     (150, 200, 250, 300, 400), BAD_PAIR),
)


def _large(families, verify, rng: random.Random) -> Dict:
    ops = []
    for label, lattice, build, sizes, kind in families:
        for k in sizes:
            word = build(k)
            word = _shift_square(word, rng) if lattice == "sq" else _shift_lozenge(word, rng)
            p = len(word) if lattice == "sq" else word.count(",") + 1
            ops.append((lattice, word, KIND_CODE[kind], p, label.format(k)))
    rng.shuffle(ops)
    return {
        "ops": [(lattice, word) for lattice, word, _, _, _ in ops],
        "expected": [code for _, _, code, _, _ in ops],
        "work": [p for _, _, _, p, _ in ops],
        "labels": [f"{label} p={p} {REASONS[code]}" for _, _, code, p, label in ops],
        "families": verify(),
    }


def _small_mixed(rng: random.Random) -> Dict:
    """One region of each verdict kind per lattice and target size.  The
    target sizes are the same for every seed; unfiltered draws are mostly
    unbalanced, so each slot is filled by redrawing until its kind comes
    up."""
    targets = range(30, SMALL_MAX + 1, 20)
    ops = []
    for lattice in ("sq", "tri"):
        for target in targets:
            missing = set(REASONS)
            for _ in range(5000):
                if lattice == "sq":
                    b = random_region(rng, target)
                    if b.area > SMALL_MAX:
                        continue
                    word, kind = b.moves, _square_kind(b)
                else:
                    b = random_lozenge_region(rng, target)
                    if b.n > SMALL_MAX:
                        continue
                    word, kind = b.word, _lozenge_kind(b)
                if kind in missing:
                    missing.remove(kind)
                    ops.append((lattice, word, KIND_CODE[kind], b.p))
                    if not missing:
                        break
            else:
                raise RuntimeError(f"no {sorted(missing)} region near {target} after 5000 draws")
    rng.shuffle(ops)
    return {
        "ops": [(lattice, word) for lattice, word, _, _ in ops],
        "expected": [code for _, _, code, _ in ops],
        "work": [p for _, _, _, p in ops],
        "labels": [],
        "families": [],
    }


def _oracle_tile(rng: random.Random) -> Dict:
    """Tileable regions of 1-2 x 10^4 cells; every cell is queried once per
    pass, in one seeded order.  The random region is a tileable one of
    about 1500 cells dilated by 3, which keeps it tileable (each domino
    becomes a 3 x 6 rectangle) and brings it to the size of the others."""
    words = [
        generators.dilate(generators.snake(6, 3), 24),
        generators.dilate(generators.spiral(2), 30),
        generators.dilate(random_tileable_region(rng, 1500).moves, 3),
    ]
    words = [_shift_square(w, rng) for w in words]
    queries, expected = [], []
    for r, word in enumerate(words):
        b = parse_boundary(word)
        tiling = extract_tiling(b, thurston_full(b).heights)
        partner = {}
        for a, c in tiling:
            partner[a] = c
            partner[c] = a
        for cell in b.cells():
            d = (partner[cell][0] - cell[0], partner[cell][1] - cell[1])
            queries.append((r, cell[0], cell[1]))
            expected.append(STEPS.index(d))
    order = list(range(len(queries)))
    rng.shuffle(order)
    return {
        "regions": words,
        "ops": [queries[i] for i in order],
        "expected": [expected[i] for i in order],
        "work": None,
        "labels": [f"region {r}: p={len(w)}" for r, w in enumerate(words)],
        "families": [],
    }


WORKLOADS = {
    "square-large": lambda rng: _large(SQUARE_LARGE, verify_dumbbells, rng),
    "lozenge-large": lambda rng: _large(LOZENGE_LARGE, verify_lozenge_bad_pairs, rng),
    "oracle-tile": _oracle_tile,
    "small-mixed": _small_mixed,
}


def build(name: str, seed: int) -> Dict:
    """Operations, expected result codes, per-operation work (boundary
    edges, or None when each operation is one query) and the family checks
    of one workload."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))
