"""Incremental queries against the maximum tiling of a region.

Preprocessing runs the boundary-only pipeline (``solver.run_pipeline``:
subdivision, site graph, height relaxation) and reads its base state from
the verdict's arrays: the maximal height of every site, and one line
store per diagonal family (lines x - y and x + y), a dict from line to
the sorted xs of its valued points, split from one sort of the packed
(line, x) keys.  The inside squares of the subdivision form one set of
(level, iu, iv), read from ``Subdivision.inside_at``.
A height query for a vertex that is not a site descends into the inside
squares covering it, splitting them dyadically: each split adds the four
side midpoints and the centre of the square, and each new point is valued
as the minimum of ``value + 2 * gap`` over its nearest valued neighbour in
the four diagonal directions, together with ``value + max step`` over any
valued axis neighbour.  Straight diagonal segments between such
neighbours cannot leave the region (every boundary vertex on the line is
itself a valued site), so each candidate is a sound upper bound, and once
a square has shrunk to a single cell the four axis neighbours of its
centre pin the centre's height exactly.  Each new point is valued once,
midpoints before the centre, and a new midpoint then drops to at most the
centre's value plus half the side: the one update a later point can make.

Queries refine copies of the base values and lines; the new points and
the split squares are query state, not preprocessing state, and
``reset`` drops them by copying the base again.  A domino
query checks that the cell is in the region, reads the four corner
heights of the cell and crosses the unique side whose height gap is 3.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, NamedTuple, Set, Tuple, Union

import numpy as np

from tiler.approxgraph import build_graph
from tiler.errors import InternalInconsistency, NotTileable, OutsideRegion
from tiler.lattice import Point, alpha
from tiler.region import RegionBoundary, boundary_height, pack, parse_boundary, rows_of
from tiler.solver import compute_gmax, run_pipeline
from tiler.subdivision import build_subdivision

Box = Tuple[int, int, int]  # umin, vmin, side


class DominoPlacement(NamedTuple):
    cell: Point
    partner: Point
    orientation: str  # "H" when the two cells share a vertical side

    def as_pair(self) -> Tuple[Point, Point]:
        a, b = self.cell, self.partner
        return (a, b) if a < b else (b, a)


class TilingOracle:
    def __init__(self, source: Union[str, RegionBoundary]):
        b = parse_boundary(source) if isinstance(source, str) else source
        verdict, sub = run_pipeline(b, b.area, boundary_height(b), build_subdivision,
                                    build_graph, compute_gmax)
        if verdict.reason == "unbalanced-boundary":
            raise NotTileable("boundary height walk does not close up")
        bad = verdict.witness
        if bad is not None:
            raise NotTileable(
                f"sites {bad.x} and {bad.y} have height gap {bad.gy - bad.gx}, "
                f"bounds are -{bad.alpha_yx}..{bad.alpha_xy}")
        self.b = b
        self.sub = sub
        self._inside: Set[Tuple[int, int, int]] = set(
            zip(*(a.tolist() for a in sub.inside_at)))
        self._base: Dict[Point, int] = verdict.heights
        coords, _ = verdict.site_heights
        x, y = coords[:, 0], coords[:, 1]
        self._base_lines = tuple(rows_of(np.sort(pack(line, x))) for line in (x - y, x + y))
        self.reset()

    def reset(self) -> None:
        """Drop all refinement state accumulated by queries."""
        self._values: Dict[Point, int] = dict(self._base)
        self._lines = tuple({line: list(xs) for line, xs in base.items()}
                            for base in self._base_lines)
        self._split: Set[Box] = set()
        self.stats = {"height_queries": 0, "domino_queries": 0,
                      "points_added": 0, "boxes_split": 0,
                      "valuations": 0, "last_rounds": 0,
                      "last_valuations": 0}

    # -- queries ------------------------------------------------------------

    def height_at(self, w: Point) -> int:
        """Value of the maximum height function at a vertex of the closed
        region."""
        self.stats["height_queries"] += 1
        w = (w[0], w[1])
        h = self._values.get(w)
        if h is None:
            if not self.b.vertex_in_closure(w):
                raise OutsideRegion(f"vertex {w} is not on a region cell")
            before = self.stats["valuations"]
            self.stats["last_rounds"] = self._refine_to(w)
            self.stats["last_valuations"] = self.stats["valuations"] - before
            h = self._values[w]
        return h

    def domino_at(self, cell: Point) -> DominoPlacement:
        """The domino covering ``cell`` in the maximum tiling."""
        self.stats["domino_queries"] += 1
        cx, cy = cell
        if not self.b.contains_cell((cx, cy)):
            raise OutsideRegion(f"cell {cell} is not in the region")
        # Warm corners are read straight from the values; a cold one sends
        # all four through ``height_at``, which refines and keeps the
        # per-query stats.
        get = self._values.get
        sw, se = get((cx, cy)), get((cx + 1, cy))
        nw, ne = get((cx, cy + 1)), get((cx + 1, cy + 1))
        if sw is None or se is None or nw is None or ne is None:
            sw = self.height_at((cx, cy))
            se = self.height_at((cx + 1, cy))
            nw = self.height_at((cx, cy + 1))
            ne = self.height_at((cx + 1, cy + 1))
        else:
            self.stats["height_queries"] += 4
        partners = []
        if abs(se - sw) == 3:
            partners.append((cx, cy - 1))
        if abs(ne - nw) == 3:
            partners.append((cx, cy + 1))
        if abs(nw - sw) == 3:
            partners.append((cx - 1, cy))
        if abs(ne - se) == 3:
            partners.append((cx + 1, cy))
        if len(partners) != 1:
            raise InternalInconsistency(
                f"cell {cell} has {len(partners)} crossed sides")
        other = partners[0]
        orient = "H" if other[1] == cy else "V"
        return DominoPlacement((cx, cy), other, orient)

    # -- refinement ---------------------------------------------------------

    def _register(self, w: Point, value: int) -> None:
        self._values[w] = value
        x, y = w
        lines_v, lines_u = self._lines
        insort(lines_v.setdefault(x - y, []), x)
        insort(lines_u.setdefault(x + y, []), x)
        self.stats["points_added"] += 1

    def _value_point(self, w: Point) -> int:
        """Minimum over the nearest valued point in each diagonal
        direction, plus any valued axis neighbour.  Candidate segments
        stay inside the region (any boundary vertex on a diagonal would
        itself be a valued site; axis edges of an interior vertex border
        region cells), so each candidate bounds the height from above and
        the axis neighbours of a square centre make the bound tight."""
        self.stats["valuations"] += 1
        x, y = w
        values = self._values
        cands = []
        # Along line x - y a step of dx in x is a step of dx in y; along
        # line x + y it is a step of -dx.
        lines_v, lines_u = self._lines
        for arr, dy in ((lines_v.get(x - y, ()), 1), (lines_u.get(x + y, ()), -1)):
            i = bisect_right(arr, x)
            if i < len(arr):
                c = arr[i]
                cands.append(values[(c, y + dy * (c - x))] + 2 * (c - x))
            i = bisect_left(arr, x) - 1
            if i >= 0:
                c = arr[i]
                cands.append(values[(c, y + dy * (c - x))] + 2 * (x - c))
        for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            hn = values.get(n)
            if hn is not None:
                cands.append(hn + alpha(n, w))
        if not cands:
            raise InternalInconsistency(f"no valued neighbours for {w}")
        return min(cands)

    def _locate_boxes(self, w: Point) -> List[Box]:
        """Inside squares of the static subdivision whose closure holds w."""
        u, v = w[0] + w[1], w[0] - w[1]
        sub = self.sub
        out = []
        for level in range(1, sub.t + 1):
            s = sub.side(level)
            offu, offv = u - sub.U0, v - sub.V0
            kus = [offu // s] + ([offu // s - 1] if offu % s == 0 else [])
            kvs = [offv // s] + ([offv // s - 1] if offv % s == 0 else [])
            for a in kus:
                for c in kvs:
                    if (level, a, c) in self._inside:
                        out.append((sub.U0 + a * s, sub.V0 + c * s, s))
        return out

    def _refine_to(self, w: Point) -> int:
        u, v = w[0] + w[1], w[0] - w[1]
        boxes = self._locate_boxes(w)
        rounds = 0
        while w not in self._values:
            if not boxes:
                raise InternalInconsistency(f"refinement exhausted before valuing {w}")
            rounds += 1
            nxt: List[Box] = []
            for box in boxes:
                if box not in self._split:
                    self._split_box(box)
                umin, vmin, s = box
                if s > 2:
                    h = s // 2
                    for cu in (umin, umin + h):
                        for cv in (vmin, vmin + h):
                            if cu <= u <= cu + h and cv <= v <= cv + h:
                                nxt.append((cu, cv, h))
            boxes = nxt
        return rounds

    def _split_box(self, box: Box) -> None:
        """Value the new side midpoints of ``box``, then its new centre,
        once each.  Valuing them again could lower a point only through one
        valued after it.  A side-2 box adds its centre alone.  In a larger
        box (h >= 2) no two new points are axis neighbours, none lies on a
        midpoint's side line and no valued point lies inside the box, so
        the centre, h along the midline, is the only nearer point a
        midpoint can gain.  The centre, valued from the four midpoints,
        cannot fall after they drop to at most value(centre) + h."""
        umin, vmin, s = box
        h = s // 2
        sides = []
        if s > 2:
            for pu, pv in ((umin + h, vmin), (umin, vmin + h), (umin + s, vmin + h),
                           (umin + h, vmin + s)):
                pt = ((pu + pv) // 2, (pu - pv) // 2)
                if pt not in self._values:
                    self._register(pt, self._value_point(pt))
                    sides.append(pt)
        centre = ((umin + vmin) // 2 + h, (umin - vmin) // 2)
        if centre not in self._values:
            hc = self._value_point(centre)
            self._register(centre, hc)
            for pt in sides:
                self._values[pt] = min(self._values[pt], hc + h)
        self._split.add(box)
        self.stats["boxes_split"] += 1
