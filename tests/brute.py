"""Brute-force oracles and helpers that only the tests use.

Each oracle answers a question the library answers fast, by a route that
shares nothing with it: explicit shortest paths for the free-space
metrics ``alpha`` and ``tri_alpha``, walk enumeration for the triangular
geodesics, face membership by ray casting, the boundary pair condition
checked pair by pair, the height function a tiling induces, and a walk
of the boundary word in Python tuples for parsing and boundary heights.
All of them are exponential or area-sized, so they are for small regions
and radii only.  Around them sit the point-wise lattice rules the
oracles are written in: cell and vertex colours, edge increments, axial
coordinates, the scalar ``tri_alpha``, closure tests and the crossed
squares of a quadtree by level, and Z-order codes interleaved bit by
bit.  The triangle quadtree built in one batch over all levels is the
reference for the bottom-up build, and the relaxation by rounds that
scan every arc is the reference for the frontier rounds over the
tail-sorted arc index, and the array forms of both metrics for the
bounds that the site graph carries, read off the walk and the line
families.  The site graphs joined in Python tuples, with both flanks of
every line step and without the boundary edges, are the reference for
the one-flank join.
"""

from __future__ import annotations

import enum
import heapq
from types import SimpleNamespace
from typing import Dict, Iterator, List, NamedTuple, Sequence, Set, Tuple, Union

import numpy as np

from tiler.approxgraph import ApproxGraph
from tiler.errors import InternalInconsistency, TilerError
from tiler.lattice import Point, alpha
from tiler.lozenge import (STEPS, Axial, Face, LozengeBoundary, TriPoint, TriSubdivision,
                           tri_point)
from tiler.reference import Tiling, domino
from tiler.region import INVERSE, MOVES, RegionBoundary, boundary_height, sorted_unique
from tiler.solver import _UNREACHED, ViolatedPair
from tiler.subdivision import Key, Subdivision, unzorder

_AXIS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_KING = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


class NotAdjacent(TilerError):
    """Two lattice points that were expected to be unit-edge neighbours are not."""


class RadiusExceeded(TilerError):
    """A brute-force lattice oracle was queried beyond its supported radius."""


# ---------------------------------------------------------------------------
# Point-wise lattice rules.


class Color(enum.Enum):
    WHITE = "white"
    BLACK = "black"


class EdgeDeltas(NamedTuple):
    """The two admissible height increments along a directed lattice edge.

    ``step`` applies when the edge belongs to the tiling (no domino crosses
    it), ``crossed`` when a domino straddles it.  One is always positive and
    the other negative, and they differ by 4.
    """

    step: int
    crossed: int


def cell_color(cell: Point) -> Color:
    return Color.WHITE if (cell[0] + cell[1]) % 2 == 0 else Color.BLACK


def left_cell(tail: Point, head: Point) -> Point:
    """The cell lying to the left when travelling from ``tail`` to ``head``."""
    dx = head[0] - tail[0]
    dy = head[1] - tail[1]
    if dx * dx + dy * dy != 1:
        raise NotAdjacent(f"{tail} -> {head} is not a unit lattice edge")
    return (
        (2 * tail[0] + dx - dy - 1) // 2,
        (2 * tail[1] + dy + dx - 1) // 2,
    )


def edge_deltas(tail: Point, head: Point) -> EdgeDeltas:
    cx, cy = left_cell(tail, head)
    step = -1 if (cx + cy) % 2 == 0 else 1
    return EdgeDeltas(step, step - 4 * (1 if step > 0 else -1))


def edge_step(tail: Point, head: Point) -> int:
    """``edge_deltas(tail, head).step`` without the tuple allocation."""
    dx = head[0] - tail[0]
    # Parity of the left cell's coordinate sum: tx + ty + dx - 1.
    return 1 if (tail[0] + tail[1] + dx) % 2 == 0 else -1


def edge_max_delta(tail: Point, head: Point) -> int:
    """The larger admissible increment from ``tail`` to ``head`` (1 or 3)."""
    return 3 if edge_step(tail, head) < 0 else 1


def cheb(a: Point, b: Point) -> int:
    """Chebyshev (king-move) distance."""
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def alpha_array(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``alpha(x, y)`` and ``alpha(y, x)`` row by row over (m, 2) int64 arrays."""
    i = y[:, 0] - x[:, 0]
    j = y[:, 1] - x[:, 1]
    ai, aj = np.abs(i), np.abs(j)
    plus = (ai > aj) ^ ((x[:, 0] - x[:, 1]) & 1).astype(bool)  # correction is +1
    r = np.maximum(ai, aj)
    rise = 2 * r + ((i - j) & 1) * (2 * plus - 1)
    return rise, 4 * r - rise  # the two add up to four times the Chebyshev distance


class TriColor(enum.IntEnum):
    BLACK = 0
    RED = 1
    BLUE = 2


def tri_color(p: TriPoint) -> TriColor:
    return TriColor((p[0] + p[1] + p[2]) % 3)


def tri_axial(p: TriPoint) -> Axial:
    """Axial pair (q, r) of a normalised vertex; inverse of ``tri_point``."""
    return (p[0] - p[2], p[1] - p[2])


def tri_alpha(x: TriPoint, y: TriPoint) -> int:
    """Coordinate sum of y - x in canonical form: the maximum height of
    y over plane height functions vanishing at x."""
    da, db, dc = y[0] - x[0], y[1] - x[1], y[2] - x[2]
    return da + db + dc - 3 * min(da, db, dc)


def tri_alpha_array(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The coordinate sums of y - x and of x - y in canonical form, the
    maximum heights of y over plane height functions vanishing at x and
    the reverse, row by row over (m, 3) int64 arrays of vertices."""
    d = y - x
    a, b, c = d[:, 0], d[:, 1], d[:, 2]
    total = a + b + c
    return (total - 3 * np.minimum(np.minimum(a, b), c),
            3 * np.maximum(np.maximum(a, b), c) - total)


def face_inside(b: LozengeBoundary, f: Face) -> bool:
    """Whether face f is in the region, by the parity of the boundary
    edges that cross the ray from its centroid along v1.  The centroid of
    an upward face sits at q + 2/3, a third of the way up row r, and an
    edge from (lo, r) to (hi, r + 1) crosses that height at
    lo + (hi - lo)/3; for a downward face the thirds are 1 and 2.  Counted
    in thirds, the comparison stays in integers."""
    q, r, up = f
    cq, rise = (3 * q + 2, 1) if up else (3 * q + 1, 2)
    walk = b.axial
    crossings = 0
    for (q1, r1), (q2, r2) in zip(walk, walk[1:] + walk[:1]):
        if min(r1, r2) == r and r1 != r2:
            lo, hi = (q1, q2) if r1 < r2 else (q2, q1)
            crossings += 3 * lo + rise * (hi - lo) > cq
    return crossings % 2 == 1


def vertex_in_closure(b: LozengeBoundary, v: TriPoint) -> bool:
    if v in b.vertices:
        return True
    q, r = tri_axial(v)
    return any(face_inside(b, f) for f in (
        (q, r, True), (q - 1, r, True), (q - 1, r - 1, True),
        (q, r, False), (q - 1, r - 1, False), (q, r - 1, False)))


def edge_in_region(b: LozengeBoundary, u: TriPoint, w: TriPoint) -> bool:
    """Whether the unit edge borders at least one region face."""
    flanks = dict(LOZENGE_FLANKS)
    ua, wa = tri_axial(u), tri_axial(w)
    d = (wa[0] - ua[0], wa[1] - ua[1])
    if d not in flanks:
        ua, d = wa, (-d[0], -d[1])
    return any(face_inside(b, (ua[0] + dq, ua[1] + dr, up)) for dq, dr, up in flanks[d])


# The line families of both site graphs with every cell or face flanking
# the unit step from a vertex along them, as offsets from the vertex plus,
# for faces, the orientation.  A diagonal step cuts one cell; a step on the
# triangular lattice has an upward and a downward face.
SQUARE_FLANKS = (((1, 1), ((0, 0),)), ((1, -1), ((0, -1),)))
LOZENGE_FLANKS = (((1, 0), ((0, 0, True), (0, -1, False))),
                  ((0, 1), ((-1, 0, True), (0, 0, False))),
                  ((1, 1), ((0, 0, True), (0, 0, False))))

# The cell or face of each bit of a corner mask, as offsets from the vertex
# plus, for faces, the orientation: the sectors counterclockwise from the
# first lattice direction (R on squares, v1 on the triangular lattice).
CORNER_CELLS = ((0, 0), (-1, 0), (-1, -1), (0, -1))
SECTOR_FACES = ((0, 0, True), (0, 0, False), (-1, 0, True),
                (-1, -1, False), (-1, -1, True), (0, -1, False))


def line_gaps(points, direction) -> List[Tuple[Axial, Axial]]:
    """The pairs of consecutive points (u, v) on each lattice line along
    ``direction`` (du, dv), earlier point first: u grows along it, or v
    when du = 0."""
    du, dv = direction
    lines: Dict[int, List[Tuple[int, Axial]]] = {}
    for u, v in points:
        lines.setdefault(dv * u - du * v, []).append((u if du else v, (u, v)))
    gaps = []
    for line in lines.values():
        line.sort()
        gaps += [(z, w) for (_, z), (_, w) in zip(line, line[1:])]
    return gaps


def two_flank_graph(boundary: List[Axial], corners: List[Axial], triangles, families,
                    inside, site_of):
    """A site graph joined with every flank of each line step and no
    boundary-edge list, the reference for ``approxgraph.join_sites``.
    Sites are the boundary points (u, v) in walk order, the other
    corners and the corners of the triangles, each a triple of points
    whose sides are edges; consecutive sites on a line of a family are
    joined when any flank of the first step passes the vector membership
    test ``inside(u, v, ...)``.  ``site_of(u, v)`` is a site's
    coordinates, whose order numbers the sites.  Returns the sorted
    sites, the sorted (i, j) id pairs with i < j, and the boundary ids."""
    points = set(boundary) | set(corners) | {z for tri in triangles for z in tri}
    sites = sorted(site_of(*z) for z in points)
    index = {s: i for i, s in enumerate(sites)}
    ids = {z: index[site_of(*z)] for z in points}
    pairs = set()
    for tri in triangles:
        pairs |= {(ids[tri[0]], ids[tri[1]]), (ids[tri[0]], ids[tri[2]]),
                  (ids[tri[1]], ids[tri[2]])}
    for direction, flanks in families:
        steps = line_gaps(points, direction)
        if not steps:
            continue
        u, v = (np.array(c, dtype=np.int64) for c in zip(*(z for z, _ in steps)))
        joined = np.zeros(len(steps), dtype=bool)
        for fu, fv, *rest in flanks:
            joined |= inside(u + fu, v + fv, *rest)
        pairs |= {(ids[z], ids[w]) for (z, w), ok in zip(steps, joined.tolist()) if ok}
    pairs = sorted({(min(i, j), max(i, j)) for i, j in pairs})
    return sites, pairs, [ids[z] for z in boundary]


def square_two_flank_graph(b: RegionBoundary, sub: Subdivision):
    """``two_flank_graph`` over a square region's subdivision."""
    cx, cy = sub.inside_corners()
    return two_flank_graph(b.vertices, list(zip(cx.ravel().tolist(), cy.ravel().tolist())),
                           [tri.verts for tri in sub.triangles], SQUARE_FLANKS, b.contains_cells, lambda x, y: (x, y))


def lozenge_two_flank_graph(b: LozengeBoundary, sub: TriSubdivision):
    """``two_flank_graph`` over a lozenge region's pieces, whose corners
    are the anchor, the corner across from it along v1 + v2, and
    (q + s, r) for an upward piece or (q, r + s) for a downward one."""
    corners = []
    for q, r, s, up in sub.pieces:
        corners += [(q, r), (q + s, r + s), (q + s, r) if up else (q, r + s)]
    return two_flank_graph(b.axial, corners, [], LOZENGE_FLANKS, b.faces_inside, tri_point)


def edges(b: RegionBoundary) -> Iterator[Tuple[Point, Point]]:
    verts = b.vertices
    for i in range(len(verts) - 1):
        yield verts[i], verts[i + 1]
    yield verts[-1], verts[0]


def interleave(i: int, j: int) -> int:
    """The Z-order code of cell (i, j), bit by bit: bit k of i goes to
    place 2k and bit k of j to place 2k + 1."""
    code, k = 0, 0
    while i >> k or j >> k:
        code |= (i >> k & 1) << 2 * k | (j >> k & 1) << 2 * k + 1
        k += 1
    return code


def deinterleave(code: int) -> Tuple[int, int]:
    """Inverse of ``interleave``: the bits on the even places, and those
    on the odd ones."""
    i = j = k = 0
    while code >> 2 * k:
        i |= (code >> 2 * k & 1) << k
        j |= (code >> 2 * k + 1 & 1) << k
        k += 1
    return i, j


def crossed(sub: Subdivision) -> List[Set[Key]]:
    """``crossed(sub)[i]``: the (iu, iv) keys of the level-i squares
    holding a boundary edge."""
    return [set(zip(*(a.tolist() for a in unzorder(keys >> 2, sub.t)))) for keys in sub.keys]


def center_xy(sub: Subdivision, level: int, key: Key) -> Point:
    s = sub.side(level)
    uc, vc = sub.U0 + key[0] * s + s // 2, sub.V0 + key[1] * s + s // 2
    return ((uc + vc) // 2, (uc - vc) // 2)


# ---------------------------------------------------------------------------
# The triangle quadtree in one batch: every triangle around every boundary
# vertex at every level, found by masks over (t + 1) x p candidates.

# Children of a quadtree triangle (i, j) as (points-up, di, dj): the child
# one level down is (2i + di, 2j + dj).  Row 0 is for a downward parent,
# row 1 for an upward one.
_KIDS = np.array([[(0, 0, 0), (0, 1, 1), (0, 0, 1), (1, 0, 1)],
                  [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0)]], dtype=np.int64)


def _tri_key(level, up, i, j, bits: int):
    """Packed key of the quadtree triangle (level, up, i, j): sorting keys
    groups the triangles by level.  Ints or int64 arrays."""
    return (level << (2 * bits + 1)) | (up << 2 * bits) | (i << bits) | j


def _tri_unpack(keys: np.ndarray, bits: int):
    """Inverse of ``_tri_key``: the arrays level, up, i and j."""
    mask = (1 << bits) - 1
    return (keys >> (2 * bits + 1), (keys >> 2 * bits) & 1,
            (keys >> bits) & mask, keys & mask)


def batch_tri_subdivision(b: LozengeBoundary) -> SimpleNamespace:
    """``tiler.lozenge.build_tri_subdivision`` as it was built in one
    batch over all levels, kept as the reference the bottom-up build must
    match: its ``pieces``, with the crossed unit faces classified by a
    face search, not read off the corner masks.  Quadtree cover rooted at
    one big upward triangle.

    An upward triangle splits into three upward corners and a central
    downward one, and vice versa.  A triangle is crossed when a boundary
    vertex lies in its closure (a unit edge cannot enter a lattice
    triangle without an endpoint in it); crossed triangles split, their
    uncrossed children are kept when their anchor face is in the region,
    and at unit side the crossed faces themselves are kept when inside.
    A level-L triangle (i, j) has side s = N >> L and anchor
    (Q0 + i*s, R0 + j*s).
    """
    q, r = b.qr
    R0 = int(r.min()) - 1
    Q0 = int((q - r).min()) - 1 + R0
    need = int(q.max()) + 1 - Q0
    N = 2
    while N < need:
        N *= 2
    t = N.bit_length() - 1
    bits = t + 1

    # Every boundary vertex at every level, one row per level: the
    # triangles whose closure holds a vertex have its floor indices or one
    # less, so the vertex is never left of nor below their anchors.
    levels = np.arange(t + 1, dtype=np.int64)[:, None]
    s = N >> levels
    x, y = q - Q0, r - R0
    found = []
    for di in (0, -1):
        for dj in (0, -1):
            i, j = x // s + di, y // s + dj
            ok = (i >= 0) & (j >= 0)
            d = x - y - (i - j) * s
            up = ok & (j <= i) & (x <= (i + 1) * s) & (d >= 0)
            down = ok & (j < i) & (y <= (j + 1) * s) & (d <= 0)
            found += [_tri_key(levels, 1, i, j, bits)[up],
                      _tri_key(levels, 0, i, j, bits)[down]]
    keys = sorted_unique(np.concatenate(found))
    if keys[0] != _tri_key(0, 1, 0, 0, bits):
        raise InternalInconsistency("root triangle misses the boundary")

    # The uncrossed children of the crossed triangles above the last
    # level, then the crossed unit faces of the last level.
    last = int(np.searchsorted(keys, _tri_key(t, 0, 0, 0, bits)))
    level, up, i, j = _tri_unpack(keys[:last, None], bits)
    kid = _KIDS[up[:, 0]]
    kids = _tri_key(level + 1, kid[..., 0], 2 * i + kid[..., 1],
                    2 * j + kid[..., 2], bits)
    pos = np.minimum(np.searchsorted(keys, kids), len(keys) - 1)
    level, up, i, j = _tri_unpack(
        np.concatenate([kids[keys[pos] != kids], keys[last:]]), bits)
    side = N >> level
    cq, cr = Q0 + i * side, R0 + j * side
    kept = b.faces_inside(cq, cr, up)
    return SimpleNamespace(pieces=sorted(zip(cq[kept].tolist(), cr[kept].tolist(),
                                             side[kept].tolist(), (up[kept] == 1).tolist())))


# ---------------------------------------------------------------------------
# Relaxation by masked rounds: every round scans all arcs, sorted by head,
# for those out of the frontier.


def masked_round_gmax(graph: ApproxGraph, bh, metric=alpha_array):
    """The maximal heights by label-correcting rounds over the edge list
    view, the reference for ``compute_gmax``: each round masks every arc
    with the frontier and reduces per head, until no label falls.
    Returns the heights and the witness, the violated edge with the least
    (src, dst)."""
    coords, src, dst = graph.coords, graph.src, graph.dst
    n = len(coords)
    x, y = coords[src], coords[dst]
    rise, fall = metric(x, y)

    tail = np.concatenate([src, dst])
    head = np.concatenate([dst, src])
    weight = np.concatenate([rise, fall])
    fixed = np.zeros(n, dtype=bool)
    fixed[graph.boundary_ids] = True
    keep = np.flatnonzero(~fixed[head])
    order = keep[np.argsort(head[keep])]
    tail, head, weight = tail[order], head[order], weight[order]

    g = np.full(n, _UNREACHED, dtype=np.int64)
    g[graph.boundary_ids] = bh.heights
    fell = graph.boundary_ids
    active = np.zeros(n, dtype=bool)
    while len(fell):
        active[:] = False
        active[fell] = True
        arcs = np.flatnonzero(active[tail])  # still sorted by head
        to = head[arcs]
        first = np.flatnonzero(np.diff(to, prepend=-1))
        best = np.minimum.reduceat(g[tail[arcs]] + weight[arcs], first)
        to = to[first]
        lower = best < g[to]
        fell = to[lower]
        g[fell] = best[lower]

    gap = g[dst] - g[src]
    bad = np.flatnonzero((gap > rise) | (-gap > fall))
    if not len(bad):
        return g, None
    e = min(bad.tolist(), key=lambda e: (src[e], dst[e]))
    x, y = int(src[e]), int(dst[e])
    return g, ViolatedPair(graph.site(x), graph.site(y), int(g[x]), int(g[y]),
                           int(rise[e]), int(fall[e]))


# ---------------------------------------------------------------------------
# Boundary walks, one vertex tuple at a time.


class Walk(NamedTuple):
    """A boundary word walked counterclockwise from the origin."""

    moves: Union[str, Tuple[int, ...]]  # the word, reversed if clockwise
    vertices: list  # (x, y) or normalised (a, b, c), in walk order
    area: int  # cells or triangles
    heights: dict  # forced boundary height of each vertex, 0 at the origin
    valid: bool  # whether the heights close up


def square_walk(word: str) -> Walk:
    """The walk of a closed, simple word over R, U, L and D."""
    verts = [(0, 0)]
    area2 = 0
    for m in word:
        dx, dy = MOVES[m]
        x, y = verts[-1]
        area2 += x * dy - y * dx  # shoelace term of the edge
        verts.append((x + dx, y + dy))
    assert verts.pop() == (0, 0) and area2 != 0, word
    if area2 < 0:
        return square_walk("".join(INVERSE[m] for m in reversed(word)))
    heights: Dict[Point, int] = {}
    h = 0
    for u, w in zip(verts, verts[1:] + verts[:1]):
        heights[u] = h
        h += edge_step(u, w)
    return Walk(word, verts, area2 // 2, heights, h == 0)


def lozenge_moves_brute(text: str) -> Tuple[int, ...]:
    """The moves of a comma-separated word, token by token: each token,
    stripped of whitespace, must be one of the six spellings, or
    ``ValueError`` names it and its index."""
    moves = []
    for i, tok in enumerate(text.split(",")):
        tok = tok.strip()
        if tok not in ("1", "2", "3", "-1", "-2", "-3"):
            raise ValueError(f"invalid move {tok!r} at index {i}", i)
        moves.append(int(tok))
    return tuple(moves)


def lozenge_walk(word: str) -> Walk:
    """The walk of a closed, simple word of comma-separated moves; each
    step raises the height by 1 when it advances the colour cycle, else
    lowers it by 1."""
    moves = tuple(int(t) for t in word.split(","))
    axial = [(0, 0)]
    count = 0
    for t in moves:
        dq, dr = STEPS[t]
        q, r = axial[-1]
        count += q * dr - r * dq
        axial.append((q + dq, r + dr))
    assert axial.pop() == (0, 0) and count != 0, word
    if count < 0:
        return lozenge_walk(",".join(str(-t) for t in reversed(moves)))
    verts = [tri_point(q, r) for q, r in axial]
    heights: Dict[TriPoint, int] = {}
    h = 0
    for u, w in zip(verts, verts[1:] + verts[:1]):
        heights[u] = h
        h += 1 if (tri_color(w) - tri_color(u)) % 3 == 1 else -1
    return Walk(moves, verts, count, heights, h == 0)


# ---------------------------------------------------------------------------
# Distances in the unconstrained plane, and triangular geodesics.


def alpha_oracle(x: Point, y: Point) -> int:
    """Largest admissible height difference h(y) - h(x) over the full plane.

    Computed as an explicit shortest path over grid edges weighted by the
    maximum height increase each edge permits.  Exact, but costs area of a
    box around the pair, so it refuses distant arguments.
    """
    r = cheb(x, y)
    if r > 16:
        raise RadiusExceeded(f"alpha_oracle limited to Chebyshev radius 16, got {r}")
    if r == 0:
        return 0
    # Edge weights are at least 1, and a staircase walk shows the distance
    # is at most 2r + 1, so no shortest path leaves this box.
    lo_x, hi_x = x[0] - 3 * r - 4, x[0] + 3 * r + 4
    lo_y, hi_y = x[1] - 3 * r - 4, x[1] + 3 * r + 4
    dist: Dict[Point, int] = {}
    heap: List[Tuple[int, Point]] = [(0, x)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        if u == y:
            return d
        for dx, dy in _AXIS:
            v = (u[0] + dx, u[1] + dy)
            if v in dist or not (lo_x <= v[0] <= hi_x and lo_y <= v[1] <= hi_y):
                continue
            heapq.heappush(heap, (d + edge_max_delta(u, v), v))
    raise AssertionError("target not reached inside the search box")


def tri_alpha_oracle(x: TriPoint, y: TriPoint) -> int:
    """Shortest path from x to y with per-edge maximal height steps
    (+1 along the color cycle, +2 against it), on a box wide enough that
    restriction cannot matter."""
    xa, ya = tri_axial(x), tri_axial(y)
    rad = max(abs(ya[0] - xa[0]), abs(ya[1] - xa[1]))
    if rad > 16:
        raise RadiusExceeded(f"offset {rad} exceeds supported radius 16")
    m = 3 * rad + 4
    dist = {xa: 0}
    heap = [(0, xa)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, 1 << 30):
            continue
        if u == ya:
            return d
        for dq, dr in STEPS.values():
            v = (u[0] + dq, u[1] + dr)
            if abs(v[0] - xa[0]) > m or abs(v[1] - xa[1]) > m:
                continue
            nd = d + (1 if (dq + dr) % 3 == 1 else 2)
            if nd < dist.get(v, 1 << 30):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    raise InternalInconsistency("target not reached")  # pragma: no cover


def tri_geodesic_points_brute(x: TriPoint, y: TriPoint) -> Set[TriPoint]:
    """Vertices of all geodesic paths from x to y, by path enumeration.
    A path step adds one of v1, v2, v3 and must increase the distance
    from x by one."""
    total = tri_alpha(x, y)
    out: Set[TriPoint] = set()

    def go(cur: TriPoint, dist: int, trail: List[TriPoint]) -> None:
        if cur == y and dist == total:
            out.update(trail)
            return
        if dist >= total:
            return
        for i in range(3):
            v = list(cur)
            v[i] += 1
            m = min(v)
            nxt = (v[0] - m, v[1] - m, v[2] - m)
            if tri_alpha(x, nxt) == dist + 1:
                trail.append(nxt)
                go(nxt, dist + 1, trail)
                trail.pop()

    go(x, 0, [x])
    return out


# ---------------------------------------------------------------------------
# Valid pairs, by brute force.


def _step_in_region(b: RegionBoundary, z: Point, d: Point) -> bool:
    """Whether the king step z -> z + d stays strongly inside the region.

    An axis step needs at least one of the two cells flanking the traversed
    edge; a diagonal step needs the cell it cuts through.
    """
    zx, zy = z
    dx, dy = d
    if dx == 0:
        cy = zy if dy > 0 else zy - 1
        return b.contains_cell((zx - 1, cy)) or b.contains_cell((zx, cy))
    if dy == 0:
        cx = zx if dx > 0 else zx - 1
        return b.contains_cell((cx, zy - 1)) or b.contains_cell((cx, zy))
    return b.contains_cell((zx if dx > 0 else zx - 1, zy if dy > 0 else zy - 1))


def pair_connected_brute(b: RegionBoundary, sites: Set[Point], x: Point, y: Point) -> bool:
    """Whether some king geodesic runs from x to y strongly inside the
    region without touching another site on the way."""
    if x == y:
        return False
    blocked = sites - {x, y}
    memo: Dict[Point, bool] = {}

    def reach(z: Point) -> bool:
        if z == y:
            return True
        if z in memo:
            return memo[z]
        memo[z] = False
        left = cheb(z, y)
        for d in _KING:
            w = (z[0] + d[0], z[1] + d[1])
            if cheb(w, y) != left - 1 or (w in blocked) or not _step_in_region(b, z, d):
                continue
            if reach(w):
                memo[z] = True
                break
        return memo[z]

    return reach(x)


def valid_pairs_brute(b: RegionBoundary, sites: Sequence[Point]) -> Set[Tuple[Point, Point]]:
    """All ordered site pairs joined by a clean geodesic (both directions)."""
    out: Set[Tuple[Point, Point]] = set()
    site_set = set(sites)
    ordered = sorted(site_set)
    for i, x in enumerate(ordered):
        for y in ordered[i + 1:]:
            if pair_connected_brute(b, site_set, x, y):
                out.add((x, y))
                out.add((y, x))
    return out


def pairs_condition_decide(b: RegionBoundary) -> bool:
    """Tileability via the boundary pair condition, checked by brute force.

    The region is tileable iff the boundary heights close up and every
    geodesically linked pair of boundary vertices satisfies
    h(y) - h(x) <= alpha(x, y).  Quadratic in the perimeter and worse,
    so only for cross-checks on small regions.
    """
    bh = boundary_height(b)
    if not bh.valid:
        return False
    h = dict(zip(b.vertices, bh.heights.tolist()))
    for x, y in valid_pairs_brute(b, b.vertices):
        if h[y] - h[x] > alpha(x, y):
            return False
    return True


# ---------------------------------------------------------------------------
# Heights and tilings.


def verify_tiling(b: RegionBoundary, tiling: Tiling) -> bool:
    """Exact cover check: every cell in exactly one domino, all cells in R."""
    covered: Set[Point] = set()
    for a, c in tiling:
        if abs(a[0] - c[0]) + abs(a[1] - c[1]) != 1:
            return False
        for cell in (a, c):
            if cell in covered or not b.contains_cell(cell):
                return False
            covered.add(cell)
    return len(covered) == b.area


def height_from_tiling(b: RegionBoundary, tiling: Tiling) -> Dict[Point, int]:
    """Height function induced by a tiling, anchored at h(origin) = 0.

    Walks the vertex graph of the region; every edge contributes its plain
    step unless a domino crosses it, in which case the difference moves by
    4 in the opposite direction.  Inconsistencies (which would mean the
    tiling is broken) raise AssertionError.
    """
    heights: Dict[Point, int] = {(0, 0): 0}
    stack: List[Point] = [(0, 0)]
    in_r = b.contains_cell

    def edge_cells(u: Point, v: Point) -> Tuple[Point, Point]:
        if u[0] == v[0]:  # vertical edge
            y = min(u[1], v[1])
            return (u[0] - 1, y), (u[0], y)
        x = min(u[0], v[0])
        return (x, u[1] - 1), (x, u[1])

    while stack:
        u = stack.pop()
        for d in _AXIS:
            v = (u[0] + d[0], u[1] + d[1])
            c1, c2 = edge_cells(u, v)
            if not (in_r(c1) or in_r(c2)):
                continue
            delta = edge_step(u, v)
            if in_r(c1) and in_r(c2) and domino(c1, c2) in tiling:
                delta -= 4 if delta > 0 else -4
            h = heights[u] + delta
            if v in heights:
                assert heights[v] == h, f"inconsistent heights at {v}"
            else:
                heights[v] = h
                stack.append(v)
    return heights
