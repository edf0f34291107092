"""Lozenge tileability on the triangular grid.

Vertices are points a*v1 + b*v2 + c*v3 for the three unit directions
v1, v2, v3 at 120 degrees apart (v1 + v2 + v3 = 0).  Since adding
(1, 1, 1) does not move the point, each vertex is stored uniquely as the
triple (a, b, c) of nonnegative integers with min{a, b, c} = 0; see
``tri_point`` and ``tri_axial`` for conversion from and to the axial
pair (q, r) = q*v1 + r*v2 used internally for face bookkeeping.

Vertices are 3-colored by (a + b + c) mod 3; every edge changes the
color.  A lozenge tiling induces integer heights on the vertices of the
region: stepping along an edge that advances the color cycle changes the
height by +1 when the edge lies on a lozenge edge and by -2 when a
lozenge covers it, and the reverse signs hold against the cycle.  The
maximal plane height vanishing at x is ``tri_alpha(x, y)``: the
coordinate sum of y - x in canonical form.

The decision pipeline mirrors the square-lattice one.  Parsing checks
the walk with the same array check, ``region.closed_walk``, on axial
coordinates, where the shoelace sum counts the triangles.  Along the
boundary the color rises by 1 exactly on the moves 1, 2 and 3, so the
boundary heights are the ``cumsum`` of the move signs, an int64 array in
walk order.  Then the pipeline covers the region by a quadtree of
upward and downward lattice-aligned triangles whose side halves until
it clears the boundary, takes the piece corners plus the boundary as
sites, joins consecutive sites along the three line families, and
relaxes the maximal height over that graph.  An untileable verdict's
witness is the violated edge whose endpoints come first in sorted site
order.  Degrees are at most six (two per family).

Region membership comes from one index, the strip cuts: the boundary
edges that cross a horizontal strip of faces, held as one sorted array
of packed (row, position) keys.  A face is inside when an odd number of
its row's cuts sit at or left of it, so a batch of faces costs one
``np.searchsorted`` call.  The quadtree is built bottom-up from one sort:
the six unit faces around each boundary vertex, keyed by the Z-order
code of their rhombus cell with two bits for the cell's crossed
triangles.  A triangle is crossed when a boundary vertex lies in its
closure, so the crossed triangles of a level are the parents of those
of the level below.  Shifting the sorted keys right by two gives the
parent cells still sorted, and one table lookup and one
``np.bitwise_or.reduceat`` per level give each parent's crossed flags and
which of its children are crossed; the rest are the uncrossed children,
and one membership test over them keeps the pieces.  The site graph
takes its ids from one ``np.unique`` and each line family from one
sort, as on the square lattice.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from tiler.errors import CapExceeded, InternalInconsistency
from tiler.approxgraph import ApproxGraph, make_graph
from tiler.region import (BoundaryHeight, closed_walk, odd_at_or_left, pack,
                          row_lists, walk_back)
from tiler.solver import TileabilityVerdict, compute_gmax

TriPoint = Tuple[int, int, int]
Axial = Tuple[int, int]
Face = Tuple[int, int, bool]  # axial anchor q, anchor r, points-up

STEPS: Dict[int, Axial] = {1: (1, 0), 2: (0, 1), 3: (-1, -1),
                           -1: (-1, 0), -2: (0, -1), -3: (1, 1)}
# Character classes of move words, indexed by code point; code points
# past the table read its last entry, _OTHER, by clipping.  _WHITESPACE
# is what ``str.strip`` removes.
_WS, _COMMA, _MINUS, _DIGIT, _OTHER = range(5)
_WHITESPACE = (9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 133, 160, 5760, *range(8192, 8203),
               8232, 8233, 8239, 8287, 12288)
_CLASS = np.full(_WHITESPACE[-1] + 2, _OTHER, dtype=np.uint8)
_CLASS[list(_WHITESPACE)] = _WS
_CLASS[[ord(","), ord("-"), ord("1"), ord("2"), ord("3")]] = _COMMA, _MINUS, _DIGIT, _DIGIT, _DIGIT
# Whether a character breaks its token, by its class and the class of the
# character after it: any other character, a minus not followed by a
# digit, a digit followed by neither whitespace nor a comma.  A token
# with no breaking character is moves with whitespace around them, and
# it is one move when it holds exactly one digit.
_BREAKS = np.zeros((5, 5), dtype=bool)
_BREAKS[_OTHER] = True
_BREAKS[_MINUS, [_WS, _COMMA, _MINUS, _OTHER]] = True
_BREAKS[_DIGIT, [_MINUS, _DIGIT, _OTHER]] = True

# Packed key of a normalised vertex (a, b, c), which orders the site
# graph: sorting keys sorts the triples lexicographically.  On a closed
# walk of p moves, and inside it, no coordinate exceeds p, so words of up
# to _SITE_MASK moves fit.
_SITE_BITS = 21
_SITE_MASK = (1 << _SITE_BITS) - 1

# Axial steps indexed by move + 3.
_STEP_Q, _STEP_R = np.array([STEPS.get(m, (0, 0)) for m in range(-3, 4)],
                            dtype=np.int64).T


def tri_point(q: int, r: int) -> TriPoint:
    """Normalized vertex for the axial combination q*v1 + r*v2."""
    m = min(q, r, 0)
    return (q - m, r - m, -m)


def tri_axial(p: TriPoint) -> Axial:
    return (p[0] - p[2], p[1] - p[2])


def tri_alpha(x: TriPoint, y: TriPoint) -> int:
    """Coordinate sum of y - x in canonical form: the maximum height of
    y over plane height functions vanishing at x."""
    da, db, dc = y[0] - x[0], y[1] - x[1], y[2] - x[2]
    return da + db + dc - 3 * min(da, db, dc)


def tri_alpha_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``tri_alpha`` row by row over (m, 3) int64 arrays of vertices."""
    d = y - x
    a, b, c = d[:, 0], d[:, 1], d[:, 2]
    return a + b + c - 3 * np.minimum(np.minimum(a, b), c)


def face_corners(f: Face) -> Tuple[Axial, Axial, Axial]:
    q, r, up = f
    if up:
        return ((q, r), (q + 1, r), (q + 1, r + 1))
    return ((q, r), (q + 1, r + 1), (q, r + 1))


def face_neighbors(f: Face) -> Tuple[Face, Face, Face]:
    q, r, up = f
    if up:
        return ((q, r, False), (q + 1, r, False), (q, r - 1, False))
    return ((q, r, True), (q - 1, r, True), (q, r + 1, True))


# The two faces flanking the unit edge from (q, r) along each of the
# steps v1, v2 and -v3: the offsets of the upward and of the downward one.
_FLANKS: Dict[Axial, Tuple[Axial, Axial]] = {
    (1, 0): ((0, 0), (0, -1)),
    (0, 1): ((-1, 0), (0, 0)),
    (1, 1): ((0, 0), (0, 0)),
}


class LozengeBoundary:
    """Simple closed walk on the triangular grid, region on the left.

    ``tokens`` holds the moves and ``qr`` the axial coordinates of the
    boundary vertices in walk order, as int64 arrays.  ``moves`` (a
    tuple), ``axial`` ((q, r) pairs) and ``vertices`` (normalised
    triples) are built on first access; the decision never builds them.

    Boundary edges cut the horizontal strips of faces; within strip r the
    faces in scan order are ..., D(q,r), U(q,r), D(q+1,r), ... at
    positions 2q and 2q+1, and a cut between positions pos-1 and pos is
    recorded as pos.  The parity of the cuts at or left of a face's
    position gives region membership.
    """

    def __init__(self, tokens: np.ndarray, qr: Tuple[np.ndarray, np.ndarray], n: int):
        self.tokens = tokens
        self.qr = qr
        self.n = n

    @property
    def p(self) -> int:
        return len(self.tokens)

    @cached_property
    def moves(self) -> Tuple[int, ...]:
        return tuple(self.tokens.tolist())

    @property
    def word(self) -> str:
        return ",".join(str(t) for t in self.moves)

    @cached_property
    def axial(self) -> List[Axial]:
        q, r = self.qr
        return list(zip(q.tolist(), r.tolist()))

    @cached_property
    def vertices(self) -> List[TriPoint]:
        return [tri_point(q, r) for q, r in self.axial]

    @cached_property
    def _cut_keys(self) -> np.ndarray:
        """Sorted ``pack(row, pos)`` keys of the strip cuts.  The edge from
        (q, r) along (dq, dr) with dr != 0 cuts row r, or r - 1 when it
        runs down, at position 2q + dq."""
        q, r = self.qr
        dq, dr = np.roll(q, -1) - q, np.roll(r, -1) - r
        cut = dr != 0
        return np.sort(pack(r[cut] - (dr[cut] < 0), 2 * q[cut] + dq[cut]))

    @cached_property
    def _rows(self) -> Dict[int, List[int]]:
        """The same cuts as sorted per-row lists, for scalar lookups."""
        return row_lists(self._cut_keys)

    def face_inside(self, f: Face) -> bool:
        arr = self._rows.get(f[1])
        if not arr:
            return False
        return bisect_right(arr, 2 * f[0] + (1 if f[2] else 0)) % 2 == 1

    def faces_inside(self, q: np.ndarray, r: np.ndarray, up) -> np.ndarray:
        """``face_inside`` over int64 arrays q, r and a bool array (or
        bool) up, as a bool array."""
        return odd_at_or_left(self._cut_keys, r, 2 * q + up)

    def faces(self) -> Iterator[Face]:
        for r, arr in self._rows.items():
            for k in range(0, len(arr), 2):
                for pos in range(arr[k], arr[k + 1]):
                    yield (pos // 2, r, pos % 2 == 1)


def parse_lozenge(text: str) -> LozengeBoundary:
    """Parse a comma-separated walk over the six unit directions
    1, 2, 3, -1, -2, -3 (for +-v1, +-v2, +-v3), with whitespace allowed
    around each token.  A clockwise walk is reversed; any other token
    raises ``ValueError`` with the token index as ``args[1]``, and so
    does a word of more than 2**21 - 1 moves, without an index."""
    if text.count(",") >= _SITE_MASK:
        raise ValueError(f"boundary word has more than {_SITE_MASK} moves")
    # One code point per character, so array indices are string indices;
    # the appended comma ends the last token.
    codes = np.frombuffer((text + ",").encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    kind = _CLASS.take(codes, mode="clip")
    end = np.flatnonzero(kind == _COMMA)
    digit = np.flatnonzero(kind == _DIGIT)
    breaks = np.flatnonzero(_BREAKS[kind[:-1], kind[1:]])
    # Every token holds one digit when the digits and the token ends
    # alternate, a digit first.
    if (len(breaks) or len(digit) != len(end) or (digit > end).any()
            or (digit[1:] < end[:-1]).any()):
        count = np.bincount(np.searchsorted(end, digit), minlength=len(end))
        i = int(np.concatenate([np.searchsorted(end, breaks), np.flatnonzero(count != 1)]).min())
        raise ValueError(f"invalid move {text.split(',')[i].strip()!r} at index {i}", i)

    value = codes[digit].astype(np.int64) - ord("0")
    tokens = np.where(kind[digit - 1] == _MINUS, -value, value)
    index = tokens + 3
    q, r, count = closed_walk(_STEP_Q[index], _STEP_R[index])
    if count < 0:
        tokens = -tokens[::-1]
        q, r, count = walk_back(q), walk_back(r), -count
    return LozengeBoundary(tokens, (q, r), count)


def lozenge_boundary_height(b: LozengeBoundary) -> BoundaryHeight:
    """The step along an edge is the sign of its move: q + r mod 3, the
    vertex colour, rises by 1 exactly on moves 1, 2 and 3."""
    return BoundaryHeight.of_steps(2 * (b.tokens > 0) - 1)


# ---------------------------------------------------------------------------
# Subdivision into lattice-aligned triangles.

Piece = Tuple[int, int, int, bool]  # axial anchor q, anchor r, side, points-up

# The quadtree is held as rhombus cells.  Cell (i, j) of level L is the
# parallelogram of side s = N >> L anchored at (Q0 + i*s, R0 + j*s); it
# holds the upward triangle (i, j) and the downward triangle (i, j).  A
# cell's key is its Z-order code, the bits of i and j interleaved with i
# on the even places, shifted left by two for its flags: _UP when its
# upward triangle is crossed, _DOWN when its downward one is.  The code of
# the parent cell (i >> 1, j >> 1) is the code shifted right by two, and
# the low four bits of a key are the cell's quadrant in its parent,
# (i & 1) | (j & 1) << 1, above its flags.
_UP, _DOWN = 2, 1

# A child triangle sits in slot 2 * quadrant + up of its parent cell.  An
# upward parent splits into the upward children of quadrants 0, 1 and 3
# and the central downward one of quadrant 1; a downward parent into the
# downward children of quadrants 0, 2 and 3 and the upward one of
# quadrant 2.  Indexed by a parent's flags: the slots of its children.
_CHILD_SLOTS = np.array([0, 0b01110001, 0b10001110, 0b11111111], dtype=np.int64)


def _parent_entry(quadrant: int, flags: int) -> int:
    """The flags a child cell's crossed triangles set on its parent, with
    their slot bits above them."""
    up_parent = _DOWN if quadrant == 2 else _UP
    down_parent = _UP if quadrant == 1 else _DOWN
    crossed = (up_parent if flags & _UP else 0) | (down_parent if flags & _DOWN else 0)
    return flags << (2 * quadrant + 2) | crossed


# Indexed by the low four bits of a cell key, its quadrant and flags.
_PARENT = np.array([_parent_entry(k >> 2, k & 3) for k in range(16)], dtype=np.int64)

_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
           (2, 0x3333333333333333), (1, 0x5555555555555555))


def _spread(x: np.ndarray) -> np.ndarray:
    """The bits of a nonnegative int64 array below 2**32, moved to the
    even places."""
    for shift, mask in _SPREAD:
        x = (x | (x << shift)) & mask
    return x


class TriSubdivision:
    """Kept pieces of the triangle quadtree rooted at (Q0, R0) with side
    N = 2**t.

    Array form, used by the site graph: ``piece_q``, ``piece_r``,
    ``piece_side`` and the bool ``piece_up`` give each piece's axial
    anchor, side and orientation.  ``pieces`` lists them as sorted
    ``(q, r, side, up)`` tuples, built on first access for rendering and
    the tests; the decision never builds it.
    """

    def __init__(self, Q0: int, R0: int, N: int, t: int, piece_q: np.ndarray,
                 piece_r: np.ndarray, piece_side: np.ndarray, piece_up: np.ndarray):
        self.Q0 = Q0
        self.R0 = R0
        self.N = N
        self.t = t
        self.piece_q = piece_q
        self.piece_r = piece_r
        self.piece_side = piece_side
        self.piece_up = piece_up

    @cached_property
    def pieces(self) -> List[Piece]:
        return sorted(zip(self.piece_q.tolist(), self.piece_r.tolist(),
                          self.piece_side.tolist(), self.piece_up.tolist()))


def _piece_corners(piece: Piece) -> Tuple[Axial, Axial, Axial]:
    a, b, s, up = piece
    if up:
        return ((a, b), (a + s, b), (a + s, b + s))
    return ((a, b), (a + s, b + s), (a, b + s))


def build_tri_subdivision(b: LozengeBoundary) -> TriSubdivision:
    """Quadtree cover rooted at one big upward triangle, built bottom-up.

    An upward triangle splits into three upward corners and a central
    downward one, and vice versa.  A triangle is crossed when a boundary
    vertex lies in its closure (a unit edge cannot enter a lattice
    triangle without an endpoint in it); crossed triangles split, their
    uncrossed children are kept when their anchor face is in the region,
    and at unit side the crossed faces themselves are kept when inside.
    A level-L triangle (i, j) has side s = N >> L and anchor
    (Q0 + i*s, R0 + j*s).

    A vertex in a triangle's closure is in the closure of one of its
    children, so the crossed triangles of each level are the parents of
    the crossed triangles of the level below, and the unit level holds
    the six faces around each boundary vertex.  The build sorts those
    faces' cell keys once and climbs: a level's keys shifted right by
    two, grouped, are the parent cells in sorted order, and one
    ``_PARENT`` lookup and one ``np.bitwise_or.reduceat`` per level give
    each parent's crossed flags and the slots of its crossed children.
    The uncrossed children are the parent's slots minus those; one
    membership test over them all keeps the pieces.
    """
    q, r = b.qr
    R0 = int(r.min()) - 1
    Q0 = int((q - r).min()) - 1 + R0
    need = int(q.max()) + 1 - Q0
    N = 2
    while N < need:
        N *= 2
    t = N.bit_length() - 1

    # Vertex (x, y) lies strictly inside the root.  Its six unit faces are
    # both triangles of cells (x, y) and (x - 1, y - 1), the upward one of
    # (x - 1, y) and the downward one of (x, y - 1).
    x, y = q - Q0, r - R0
    x0, x1, y0, y1 = _spread(x), _spread(x - 1), _spread(y) << 1, _spread(y - 1) << 1
    keys = np.concatenate([(x0 | y0) << 2 | _UP | _DOWN, (x1 | y1) << 2 | _UP | _DOWN,
                           (x1 | y0) << 2 | _UP, (x0 | y1) << 2 | _DOWN])
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys >> 2, prepend=-1))
    keys = np.bitwise_or.reduceat(keys, first)
    i = np.concatenate([x, x - 1, x - 1, x])[order[first]]
    j = np.concatenate([y, y - 1, y, y - 1])[order[first]]

    # What to keep when inside, as slot bits over a cell whose quadrant-0
    # child is (i, j) one level down: the crossed unit faces, in slots 0
    # and 1 of the unit cells themselves, then each parent's uncrossed
    # children, level by level.
    slots, base_i, base_j, level = [keys & 3], [i], [j], [t]
    for L in range(t - 1, -1, -1):
        parent = keys >> 4
        first = np.flatnonzero(np.diff(parent, prepend=-1))
        entry = np.bitwise_or.reduceat(_PARENT[keys & 15], first)
        crossed = entry & 3
        keys = parent[first] << 2 | crossed
        i, j = i[first] >> 1, j[first] >> 1
        slots.append(_CHILD_SLOTS[crossed] & ~(entry >> 2))
        base_i.append(2 * i)
        base_j.append(2 * j)
        level.append(L + 1)
    if keys.tolist() != [_UP]:
        raise InternalInconsistency("root triangle misses the boundary")

    counts = [len(s) for s in slots]
    bits = np.unpackbits(np.concatenate(slots).astype(np.uint8)[:, None], axis=1,
                         bitorder="little")
    row, slot = np.nonzero(bits)
    side = np.repeat(N >> np.array(level), counts)[row]
    quadrant, up = slot >> 1, slot & 1
    cq = Q0 + (np.concatenate(base_i)[row] + (quadrant & 1)) * side
    cr = R0 + (np.concatenate(base_j)[row] + (quadrant >> 1)) * side
    kept = b.faces_inside(cq, cr, up)
    return TriSubdivision(Q0, R0, N, t, cq[kept], cr[kept], side[kept], up[kept] == 1)


def build_tri_graph(b: LozengeBoundary, sub: TriSubdivision) -> ApproxGraph:
    """Sites joined along the three line families.

    Sites are the boundary vertices and the piece corners.  Lattice lines
    only meet the boundary at vertices, and every boundary vertex on a
    line is a site, so the open segment between consecutive sites lies
    on one side throughout: the first unit step from the earlier site
    borders a region face exactly when the segment is inside.
    """
    q, r = b.qr
    pq, pr, ps, pup = sub.piece_q, sub.piece_r, sub.piece_side, sub.piece_up
    # Piece corners: the anchor, the corner across from it along v1 + v2,
    # and (q + s, r) for an upward piece or (q, r + s) for a downward one.
    aq = np.concatenate([q, pq, pq + ps, pq + ps * pup])
    ar = np.concatenate([r, pr, pr + ps, pr + ps * ~pup])
    m = np.minimum(np.minimum(aq, ar), 0)
    keys = ((aq - m) << 2 * _SITE_BITS) | ((ar - m) << _SITE_BITS) | -m
    site_keys, ids = np.unique(keys, return_inverse=True)
    coords = np.stack([site_keys >> 2 * _SITE_BITS,
                       (site_keys >> _SITE_BITS) & _SITE_MASK,
                       site_keys & _SITE_MASK], axis=1)
    sq, sr = coords[:, 0] - coords[:, 2], coords[:, 1] - coords[:, 2]

    # Sorted by (line, position), sites run along v1 on lines of fixed r,
    # along v2 on lines of fixed q and along -v3 on lines of fixed q - r.
    src, dst = [], []
    for line, pos, d in ((sr, sq, (1, 0)), (sq, sr, (0, 1)), (sq - sr, sq, (1, 1))):
        order = np.argsort(pack(line, pos))
        a, c = order[:-1], order[1:]
        same = line[a] == line[c]
        a, c = a[same], c[same]
        (uq, ur), (dq, dr) = _FLANKS[d]
        joined = (b.faces_inside(sq[a] + uq, sr[a] + ur, True)
                  | b.faces_inside(sq[a] + dq, sr[a] + dr, False))
        src.append(a[joined])
        dst.append(c[joined])

    graph = make_graph(coords, np.concatenate(src), np.concatenate(dst),
                       ids[:len(q)])
    deg = graph.degrees()
    if deg.max() > 6:
        i = int(deg.argmax())
        raise InternalInconsistency(
            f"site {graph.site(i)} has {deg[i]} neighbours, bound is 6")
    return graph


def decide_lozenge(source) -> TileabilityVerdict:
    b = parse_lozenge(source) if isinstance(source, str) else source
    lh = lozenge_boundary_height(b)
    if not lh.valid:
        return TileabilityVerdict(False, "unbalanced-boundary", None,
                                  b.p, b.n, 0, 0)
    sub = build_tri_subdivision(b)
    graph = build_tri_graph(b, sub)
    g, bad = compute_gmax(graph, lh, metric=tri_alpha_array)
    if bad is not None:
        return TileabilityVerdict(False, "bad-pair", bad,
                                  b.p, b.n, graph.site_count, graph.edge_count)
    return TileabilityVerdict(True, "ok", None,
                              b.p, b.n, graph.site_count, graph.edge_count,
                              site_heights=(graph.coords, g))


# ---------------------------------------------------------------------------
# Area-sized references.  They import tiler.reference on call: it imports
# this module, and the decision path never loads it.


def lozenge_matching_decide(b: LozengeBoundary, cap: Optional[int] = None,
                            ) -> Optional[List[Tuple[Face, Face]]]:
    """Perfect matching between upward and downward unit triangles; a
    matching is a lozenge tiling and is returned, otherwise None."""
    from tiler.reference import _cap, _hopcroft_karp
    limit = _cap(cap if cap is not None else 10 ** 5)
    if b.n > limit:
        raise CapExceeded(f"region has {b.n} triangles, cap is {limit}")
    if b.n % 2 != 0:
        return None
    faces = sorted(b.faces())
    face_set = set(faces)
    ups = [f for f in faces if f[2]]
    downs = [f for f in faces if not f[2]]
    if len(ups) != len(downs):
        return None
    down_index = {f: i for i, f in enumerate(downs)}
    adj = [sorted(down_index[g] for g in face_neighbors(f) if g in face_set)
           for f in ups]
    match_up = _hopcroft_karp(len(ups), len(downs), adj)
    if any(m < 0 for m in match_up):
        return None
    return [(f, downs[m]) for f, m in zip(ups, match_up)]


def random_lozenge_region(rng, target_triangles: int) -> LozengeBoundary:
    """``tiler.reference.random_lozenge_region``, imported on call."""
    from tiler.reference import random_lozenge_region
    return random_lozenge_region(rng, target_triangles)
