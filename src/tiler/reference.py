"""Reference implementations: small, slow, and obviously correct.

Everything here checks the fast code against an independent route, or
builds its inputs: tileability by bipartite matching, maximum height
functions by a whole-region shortest-path sweep, and one engine that
enumerates and randomly grows simply connected regions of either lattice.
All of it scales with the area of the region, not the perimeter, and the
deciders enforce a cell cap so a typo cannot freeze a test run.  An
explicit ``cap`` argument wins; without one the TILER_CAP environment
variable overrides the default.
"""

from __future__ import annotations

import os
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

import numpy as np

from tiler.errors import CapExceeded
from tiler.lattice import Point
from tiler.lozenge import STEPS, LozengeBoundary, face_neighbors, parse_lozenge
from tiler.region import (MOVES, RegionBoundary, boundary_height, pack, parse_boundary,
                          sorted_unique, unpack)

Domino = Tuple[Point, Point]
Tiling = Set[Domino]


def _cap(default: int) -> int:
    """The cell cap when the caller names none: TILER_CAP, else the
    default."""
    value = os.environ.get("TILER_CAP")
    return int(value) if value else default


def domino(a: Point, b: Point) -> Domino:
    """Canonical form of a domino: its two cells in sorted order."""
    return (a, b) if a <= b else (b, a)


# ---------------------------------------------------------------------------
# Whole-region maximum height function.


class ThurstonResult:
    """Outcome of the area-scaling decision: verdict plus, when requested
    and tileable, the maximum height function on every vertex."""

    __slots__ = ("tileable", "heights", "n")

    def __init__(self, tileable: bool, heights: Optional[Dict[Point, int]], n: int):
        self.tileable = tileable
        self.heights = heights
        self.n = n


def thurston_full(b: RegionBoundary, cap: Optional[int] = None) -> ThurstonResult:
    """Decide tileability by building the maximum height function everywhere.

    Seeds every boundary vertex with its forced height, then relaxes over
    all interior edges (shortest paths from a virtual source).  The region
    is tileable iff the result respects the seeds and every edge difference
    is admissible.  Time and memory scale with the area.

    The vertices are the sorted ``pack(x, y)`` keys of the cell corners,
    and edge ends and seeds are searched there.  The cells come row by
    row, so their ``pack(y, x)`` keys are sorted too.  It calls none of the
    decision's stages, so it stays an independent check.
    """
    n = b.area
    limit = cap if cap is not None else _cap(10 ** 6)
    if n > limit:
        raise CapExceeded(f"region has {n} cells, cap is {limit}")
    bh = boundary_height(b)
    if not bh.valid:
        return ThurstonResult(False, None, n)

    cx, cy = b.cell_arrays()
    cell_keys = pack(cy, cx)
    # Each interior edge is the bottom or left side (tail -> head along dx
    # = 1 or 0) of one cell, and the cell across it is a region cell too.
    across = np.concatenate([pack(cy - 1, cx), pack(cy, cx - 1)])
    interior = cell_keys[np.minimum(np.searchsorted(cell_keys, across), n - 1)] == across
    tx, ty = np.tile(cx, 2)[interior], np.tile(cy, 2)[interior]
    dx = np.repeat(np.array([1, 0]), n)[interior]

    verts = sorted_unique(pack(cx + [[0], [1], [0], [1]], cy + [[0], [0], [1], [1]]))
    nv = len(verts)
    tail_idx = np.searchsorted(verts, pack(tx, ty))
    head_idx = np.searchsorted(verts, pack(tx + dx, ty + 1 - dx))
    seed_idx = np.searchsorted(verts, pack(*b.xy))

    # Height step of the uncrossed edge tail -> head; the edge may instead
    # be crossed by a domino, in which case the difference moves 4 the
    # other way.  The maximum increase along tail -> head is therefore
    # 2 - step: 3 when the step is -1, else 1 (2 + step in reverse).
    step = 1 - 2 * ((tx + ty + dx) & 1)
    seed_h = bh.heights
    h_min = int(seed_h.min())

    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    source = nv
    row = np.concatenate([tail_idx, head_idx, np.full(len(seed_idx), source)])
    col = np.concatenate([head_idx, tail_idx, seed_idx])
    wgt = np.concatenate([2 - step, 2 + step, seed_h - h_min])
    graph = coo_matrix((wgt, (row, col)), shape=(nv + 1, nv + 1))
    dist = dijkstra(graph, directed=True, indices=source)
    h_full = dist[:nv] + h_min

    assert np.all(np.isfinite(h_full)), "region vertex unreachable from the boundary"
    h_full = h_full.astype(np.int64)
    if not np.array_equal(h_full[seed_idx], seed_h):
        return ThurstonResult(False, None, n)
    diff = h_full[head_idx] - h_full[tail_idx]
    if np.any((diff - step) % 4 != 0):
        return ThurstonResult(False, None, n)

    vx, vy = unpack(verts)
    heights = dict(zip(zip(vx.tolist(), vy.tolist()), h_full.tolist()))
    return ThurstonResult(True, heights, n)


def extract_tiling(b: RegionBoundary, heights: Dict[Point, int]) -> Tiling:
    """Read the tiling off a valid height function.

    Each cell has exactly one side whose height difference is +-3; the
    domino covering the cell crosses that side.
    """
    tiling: Tiling = set()
    for cx, cy in b.cells():
        crossed = []
        sw, se = (cx, cy), (cx + 1, cy)
        nw, ne = (cx, cy + 1), (cx + 1, cy + 1)
        if abs(heights[se] - heights[sw]) == 3:
            crossed.append((cx, cy - 1))
        if abs(heights[ne] - heights[nw]) == 3:
            crossed.append((cx, cy + 1))
        if abs(heights[nw] - heights[sw]) == 3:
            crossed.append((cx - 1, cy))
        if abs(heights[ne] - heights[se]) == 3:
            crossed.append((cx + 1, cy))
        if len(crossed) != 1:
            raise AssertionError(f"cell {(cx, cy)} has {len(crossed)} crossed sides")
        tiling.add(domino((cx, cy), crossed[0]))
    return tiling


# ---------------------------------------------------------------------------
# Tileability by bipartite matching.


def matching_decide(b: RegionBoundary, cap: Optional[int] = None) -> Optional[Tiling]:
    """Maximum matching between the two cell colours; a perfect matching is
    a tiling and is returned, otherwise None.  Deterministic."""
    pairs = perfect_matching(b.area, "cells", cap, b.cells(),
                             lambda c: (c[0] + c[1]) % 2 == 0, _cell_neighbours)
    return None if pairs is None else {domino(w, c) for w, c in pairs}


def perfect_matching(n: int, unit: str, cap: Optional[int], faces: Iterable[Face],
                     side: Callable[[Face], bool],
                     neighbours: Callable[[Face], Iterable[Face]],
                     ) -> Optional[Iterator[Tuple[Face, Face]]]:
    """A perfect matching of the n faces of a region (cells or triangles,
    named by ``unit`` in the cap message) between those on ``side`` and
    the others, over the faces that ``neighbours`` gives, as pairs (face on
    the side, its partner) in sorted order of the first; None when there
    is none.  ``faces`` is read only after the cap check."""
    limit = cap if cap is not None else _cap(10 ** 5)
    if n > limit:
        raise CapExceeded(f"region has {n} {unit}, cap is {limit}")
    if n % 2 != 0:
        return None
    faces = sorted(faces)
    face_set = set(faces)
    firsts = [f for f in faces if side(f)]
    seconds = [f for f in faces if not side(f)]
    if len(firsts) != len(seconds):
        return None
    index = {f: i for i, f in enumerate(seconds)}
    adj = [sorted(index[g] for g in neighbours(f) if g in face_set) for f in firsts]
    match = _hopcroft_karp(len(firsts), len(seconds), adj)
    if any(m < 0 for m in match):
        return None
    return zip(firsts, map(seconds.__getitem__, match))


def _hopcroft_karp(nw: int, nb: int, adj: List[List[int]]) -> List[int]:
    """Maximum bipartite matching; returns the matched black index per
    white vertex, -1 where unmatched."""
    INF = float("inf")
    match_w = [-1] * nw
    match_b = [-1] * nb
    while True:
        # BFS: layer the free white vertices.
        layer = [INF] * nw
        queue = [w for w in range(nw) if match_w[w] < 0]
        for w in queue:
            layer[w] = 0
        found = False
        qi = 0
        while qi < len(queue):
            w = queue[qi]
            qi += 1
            for v in adj[w]:
                w2 = match_b[v]
                if w2 < 0:
                    found = True
                elif layer[w2] == INF:
                    layer[w2] = layer[w] + 1
                    queue.append(w2)
        if not found:
            return match_w

        def dfs(w: int) -> bool:
            for v in adj[w]:
                w2 = match_b[v]
                if w2 < 0 or (layer[w2] == layer[w] + 1 and dfs(w2)):
                    match_w[w] = v
                    match_b[v] = w
                    return True
            layer[w] = INF
            return False

        for w in range(nw):
            if match_w[w] < 0:
                dfs(w)


# ---------------------------------------------------------------------------
# Region generators: one engine over face sets of either lattice.
#
# A face is a tuple whose first two entries are its anchor: the cell
# (x, y) on the square lattice, (q, r, points-up) on the triangular one.
# A vertex is a pair, (x, y) or axial (q, r).

Face = tuple
Vertex = Tuple[int, int]


class FaceLattice(NamedTuple):
    """What the engine needs to know about the faces of one lattice."""

    neighbours: Callable[[Face], Tuple[Face, ...]]  # faces sharing an edge
    sides: Callable[[Face], Tuple[Tuple[Vertex, Vertex, Face], ...]]
    """Directed sides (tail, head) with the face on the left, each with
    the face across it."""
    tokens: Dict[Vertex, str]  # boundary-word token of each unit step
    sep: str  # joins the tokens
    kinds: Tuple[tuple, ...]  # the entries after the anchor, one per face
    key: Callable[[Face], tuple]  # a shape is enumerated from its least face
    roots: Tuple[Face, ...]  # the least faces; random growth starts at the last
    parse: Callable[[str], object]


def _trace(lat: FaceLattice, faces: Set[Face]) -> str:
    """Boundary word of a face set, region kept on the left of travel.

    Requires the set to be edge-connected with no holes and no pinch
    vertices; any violation surfaces as an AssertionError here or a parse
    error downstream.
    """
    succ: Dict[Vertex, Vertex] = {}
    for f in faces:
        for tail, head, across in lat.sides(f):
            if across not in faces:
                assert tail not in succ, f"pinched boundary at {tail}"
                succ[tail] = head
    start = v = min(succ)
    word = []
    while True:
        w = succ[v]
        word.append(lat.tokens[(w[0] - v[0], w[1] - v[1])])
        v = w
        if v == start:
            break
        assert len(word) <= len(succ), "boundary walk does not close"
    assert len(word) == len(succ), "boundary has more than one component"
    return lat.sep.join(word)


def _holes(lat: FaceLattice, faces: Set[Face]) -> List[Face]:
    """The faces the set encloses: those of its anchor box, widened by one,
    that a flood fill from a corner of the box does not reach."""
    qs = [f[0] for f in faces]
    rs = [f[1] for f in faces]
    qlo, qhi = min(qs) - 1, max(qs) + 1
    rlo, rhi = min(rs) - 1, max(rs) + 1
    stack = [(qlo, rlo) + lat.kinds[0]]
    outside = set(stack)
    while stack:
        for g in lat.neighbours(stack.pop()):
            if (g not in outside and g not in faces
                    and qlo <= g[0] <= qhi and rlo <= g[1] <= rhi):
                outside.add(g)
                stack.append(g)
    if len(outside) + len(faces) == len(lat.kinds) * (qhi - qlo + 1) * (rhi - rlo + 1):
        return []
    return [f for q in range(qlo, qhi + 1) for r in range(rlo, rhi + 1)
            for k in lat.kinds if (f := (q, r) + k) not in faces and f not in outside]


def _enumerate(lat: FaceLattice, max_faces: int) -> Iterator:
    """All fixed hole-free shapes up to the given size, each once, parsed.

    A shape is grown from its least face under the lattice key, and a face
    picked and rejected at one branch stays forbidden in the branches
    explored after it.
    """
    for root in lat.roots:
        rkey = lat.key(root)
        poly: List[Face] = []

        def grow(untried: List[Face], seen: Set[Face]) -> Iterator:
            for i, f in enumerate(untried):
                poly.append(f)
                faces = set(poly)
                if not _holes(lat, faces):
                    yield lat.parse(_trace(lat, faces))
                if len(poly) < max_faces:
                    new = [g for g in lat.neighbours(f)
                           if g not in seen and lat.key(g) >= rkey]
                    yield from grow(untried[i + 1:] + new, seen | set(new))
                poly.pop()

        yield from grow([root], {root})


def _random(lat: FaceLattice, rng, target: int) -> object:
    """Random simply connected region of very roughly the target size.

    Grows a blob face by face from a seeded frontier, then fills its
    holes, which may overshoot the target a little.
    """
    root = lat.roots[-1]
    faces = {root}
    frontier = list(lat.neighbours(root))
    while len(faces) < target:
        i = rng.randrange(len(frontier))
        f = frontier[i]
        frontier[i] = frontier[-1]
        frontier.pop()
        if f in faces:
            continue
        faces.add(f)
        frontier.extend(g for g in lat.neighbours(f) if g not in faces)
    # Filling the holes of an edge-connected set leaves no pinch vertex: a
    # path of faces joining two runs of faces around a vertex closes, through
    # that vertex, a curve that encloses a face missing there, so a hole.
    faces.update(_holes(lat, faces))
    return lat.parse(_trace(lat, faces))


def _cell_neighbours(c: Point) -> Tuple[Point, ...]:
    return ((c[0] + 1, c[1]), (c[0] - 1, c[1]), (c[0], c[1] + 1), (c[0], c[1] - 1))


def _cell_sides(c: Point) -> Tuple[Tuple[Point, Point, Point], ...]:
    a, b = c
    return (((a, b), (a + 1, b), (a, b - 1)),
            ((a + 1, b), (a + 1, b + 1), (a + 1, b)),
            ((a + 1, b + 1), (a, b + 1), (a, b + 1)),
            ((a, b + 1), (a, b), (a - 1, b)))


def _triangle_sides(f: Face) -> Tuple[Tuple[Vertex, Vertex, Face], ...]:
    q, r, up = f
    if up:
        return (((q, r), (q + 1, r), (q, r - 1, False)),
                ((q + 1, r), (q + 1, r + 1), (q + 1, r, False)),
                ((q + 1, r + 1), (q, r), (q, r, False)))
    return (((q, r), (q + 1, r + 1), (q, r, True)),
            ((q + 1, r + 1), (q, r + 1), (q, r + 1, True)),
            ((q, r + 1), (q, r), (q - 1, r, True)))


SQUARE = FaceLattice(
    neighbours=_cell_neighbours,
    sides=_cell_sides,
    tokens={d: m for m, d in MOVES.items()},
    sep="",
    kinds=((),),
    key=lambda c: (c[1], c[0]),
    roots=((0, 0),),
    parse=parse_boundary,
)

TRIANGULAR = FaceLattice(
    neighbours=face_neighbors,
    sides=_triangle_sides,
    tokens={d: str(t) for t, d in STEPS.items()},
    sep=",",
    kinds=((False,), (True,)),
    key=lambda f: (f[1], 2 * f[0] + f[2]),
    roots=((0, 0, False), (0, 0, True)),
    parse=parse_lozenge,
)


def cells_to_boundary(cells: Set[Point]) -> str:
    """Boundary word of a cell set; see ``_trace``."""
    return _trace(SQUARE, cells)


def faces_to_lozenge_word(faces: Set[Face]) -> str:
    """Boundary word of a set of triangles; see ``_trace``."""
    return _trace(TRIANGULAR, faces)


def enumerate_simply_connected(max_area: int) -> Iterator[RegionBoundary]:
    """All fixed polyominoes without holes, up to the given area."""
    return _enumerate(SQUARE, max_area)


def enumerate_lozenge_regions(max_triangles: int) -> Iterator[LozengeBoundary]:
    """All fixed hole-free polyiamonds up to the given size.  Shapes are
    rooted at their scan-order least face, which may point either way."""
    return _enumerate(TRIANGULAR, max_triangles)


def random_region(rng, target_area: int) -> RegionBoundary:
    """Random polyomino of about the target area; see ``_random``."""
    return _random(SQUARE, rng, target_area)


def random_lozenge_region(rng, target_triangles: int) -> LozengeBoundary:
    """Random polyiamond of about the target size; see ``_random``."""
    return _random(TRIANGULAR, rng, target_triangles)


_TILEABLE_TRIES = 1000


def random_tileable_region(rng, target_area: int) -> RegionBoundary:
    """Random simply connected region that is domino tileable (checked by
    matching), resampling until one is found.  An odd target grows to the
    next even one, since a tileable region has an even area."""
    for _ in range(_TILEABLE_TRIES):
        b = random_region(rng, target_area + target_area % 2)
        if b.area % 2 == 0 and matching_decide(b) is not None:
            return b
    raise AssertionError(f"no tileable region of area ~{target_area} in {_TILEABLE_TRIES} tries")
