"""Lozenge tileability on the triangular grid.

Vertices are points a*v1 + b*v2 + c*v3 for the three unit directions
v1, v2, v3 at 120 degrees apart (v1 + v2 + v3 = 0).  Since adding
(1, 1, 1) does not move the point, each vertex is stored uniquely as the
triple (a, b, c) of nonnegative integers with min{a, b, c} = 0;
``tri_point`` converts from the axial pair (q, r) = q*v1 + r*v2 used
internally for face bookkeeping, and (a - c, b - c) converts back.

Vertices are 3-colored by (a + b + c) mod 3; every edge changes the
color.  A lozenge tiling induces integer heights on the vertices of the
region: stepping along an edge that advances the color cycle changes the
height by +1 when the edge lies on a lozenge edge and by -2 when a
lozenge covers it, and the reverse signs hold against the cycle.  The
maximal plane height vanishing at x is the coordinate sum of y - x in
canonical form, the first array of ``tri_alpha_array(x, y)``.

The decision is ``solver.run_pipeline``, the one pipeline of both
lattices; this module supplies the triangular stages.  Parsing checks
the walk with the same array check, ``region.closed_walk``, on axial
coordinates, where the shoelace sum counts the triangles.  Along the
boundary the color rises by 1 exactly on the moves 1, 2 and 3, so the
boundary heights are the ``cumsum`` of the move signs, an int64 array in
walk order.  The subdivision covers the region by a quadtree of upward
and downward lattice-aligned triangles whose side halves until it
clears the boundary.  The site graph is ``approxgraph.join_sites`` over
the piece corners plus the boundary, with the three line families and
the upward face flanking each unit step (``_FAMILIES``), read between
two boundary vertices as a bit of the first one's corner mask: the six
faces around a boundary vertex that are in the region follow from the
walk's turn there, with no search.  Degrees are at most six (two per
family).  An untileable verdict's witness is the violated edge whose
endpoints come first in sorted site order.

Region membership comes from one index, the strip cuts: the boundary
edges that cross a horizontal strip of faces, held as one sorted array
of packed (row, position) keys.  A face is inside when an odd number of
its row's cuts sit at or left of it, so a batch of faces costs one
``np.searchsorted`` call, and the region's faces are the runs between
consecutive cuts.  The quadtree is built by the square subdivision's
climb, ``subdivision.climb``, on rhombus cells that each hold an upward
and a downward triangle, from one sort of the Z-order keys of the six
unit faces around each boundary vertex.  A triangle is crossed when a
boundary vertex lies in its closure, so the crossed triangles of a level
are the parents of those of the level below; this module supplies the
tables of which parent triangle a child sits in and which children a
parent has, and one membership test over the candidates keeps the
pieces.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from tiler.errors import InternalInconsistency
from tiler.approxgraph import ApproxGraph, join_sites
from tiler.region import (BoundaryHeight, closed_walk, corner_masks, crossing_keys,
                          odd_at_or_left, spans, turn_table, walk_back)
from tiler.solver import TileabilityVerdict, compute_gmax, run_pipeline
from tiler.subdivision import climb, zorder

TriPoint = Tuple[int, int, int]
Axial = Tuple[int, int]
Face = Tuple[int, int, bool]  # axial anchor q, anchor r, points-up

STEPS: Dict[int, Axial] = {1: (1, 0), 2: (0, 1), 3: (-1, -1),
                           -1: (-1, 0), -2: (0, -1), -3: (1, 1)}
_MOVE_OF = {str(k): k for k in STEPS}

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


def tri_alpha_array(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The coordinate sums of y - x and of x - y in canonical form, the
    maximum heights of y over plane height functions vanishing at x and
    the reverse, row by row over (m, 3) int64 arrays of vertices."""
    d = y - x
    a, b, c = d[:, 0], d[:, 1], d[:, 2]
    total = a + b + c
    return (total - 3 * np.minimum(np.minimum(a, b), c),
            3 * np.maximum(np.maximum(a, b), c) - total)


def face_neighbors(f: Face) -> Tuple[Face, Face, Face]:
    q, r, up = f
    if up:
        return ((q, r, False), (q + 1, r, False), (q, r - 1, False))
    return ((q, r, True), (q - 1, r, True), (q, r + 1, True))


# The six unit directions counterclockwise, from v1, as moves; sector k
# around a vertex lies between the k-th and the next.  Indexed by move + 3:
# the direction's place in that order.
_CCW = (1, -3, 2, -1, 3, -2)
_DIRECTION = np.array([_CCW.index(m) if m else 0 for m in range(-3, 4)], dtype=np.int64)
_TURNS = turn_table(6)

# The three line families: the directions v1, v2 and -v3, each with the
# sector of the upward face flanking the unit edge from (q, r) along it.
# Off the boundary the downward face agrees; boundary edges of moves -1,
# -2 and -3 have the upward one outside and are joined outright.
_FAMILIES = (((1, 0), 0), ((0, 1), 2), ((1, 1), 0))


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
    def corner_masks(self) -> np.ndarray:
        """The 6-bit mask of the region's faces around each vertex (q, r),
        in walk order: bits 0 to 5 are the faces (q, r) up, (q, r) down,
        (q - 1, r) up, (q - 1, r - 1) down, (q - 1, r - 1) up and
        (q, r - 1) down."""
        return corner_masks(_DIRECTION[self.tokens + 3], _TURNS)

    @cached_property
    def _cut_keys(self) -> np.ndarray:
        """Sorted ``pack(row, pos)`` keys of the strip cuts."""
        index = self.tokens + 3
        return crossing_keys(self.qr, (_STEP_Q[index], _STEP_R[index]), 2)

    def faces_inside(self, q: np.ndarray, r: np.ndarray, up) -> np.ndarray:
        """Whether the faces (q, r, up) are in the region, over int64 arrays
        q, r and a bool array (or bool) up, as a bool array."""
        return odd_at_or_left(self._cut_keys, r, 2 * q + up)

    def faces(self) -> Iterator[Face]:
        """All faces of the region, row by row.  Costs O(area)."""
        for r, lo, hi in spans(self._cut_keys):
            for pos in range(lo, hi):
                yield (pos // 2, r, pos % 2 == 1)


def _moves(text: str, commas: int) -> np.ndarray:
    """The moves of a word with ``commas`` commas.  When every token is 1,
    2, 3, -1, -2 or -3, the length counts the commas and minus signs, and
    ``np.fromstring`` decodes the word in C (its unmatched-data warning made
    an error; a trailing comma reads silently); others go token by token."""
    if text.isascii() and len(text) == 2 * commas + 1 + text.count("-"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tokens = np.fromstring(text, dtype=np.int64, sep=",")
            if len(tokens) == commas + 1 and ((tokens != 0) & (np.abs(tokens) <= 3)).all():
                return tokens
        except (ValueError, DeprecationWarning):
            pass
    raw = text.split(",")
    try:
        return np.array([_MOVE_OF[tok.strip()] for tok in raw], dtype=np.int64)
    except KeyError:
        i = next(i for i, tok in enumerate(raw) if tok.strip() not in _MOVE_OF)
        raise ValueError(f"invalid move {raw[i].strip()!r} at index {i}", i) from None


def parse_lozenge(text: str) -> LozengeBoundary:
    """Parse a comma-separated walk over the six unit directions
    1, 2, 3, -1, -2, -3 (for +-v1, +-v2, +-v3), with whitespace allowed
    around each token; words without it are decoded in C.  A clockwise
    walk is reversed; any other token raises ``ValueError`` with the token
    index as ``args[1]``, and so does a word of more than 2**21 - 1 moves,
    without an index."""
    commas = text.count(",")
    if commas >= _SITE_MASK:
        raise ValueError(f"boundary word has more than {_SITE_MASK} moves")
    tokens = _moves(text, commas)
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

# The quadtree is held as rhombus cells, keyed for ``climb``.  Cell (i, j)
# of level L is the parallelogram of side s = N >> L anchored at
# (Q0 + i*s, R0 + j*s); it holds the downward triangle (i, j) in slot 0
# and the upward one in slot 1, so its flags are _UP when its upward
# triangle is crossed and _DOWN when its downward one is.  A cell's
# quadrant in its parent is (i & 1) | (j & 1) << 1.
_UP, _DOWN = 2, 1

# An upward parent splits into the upward children of quadrants 0, 1 and
# 3 and the central downward one of quadrant 1; a downward parent into the
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

# The crossed faces of the unit cells around a boundary vertex.
_UNIT_FLAGS = np.array([_UP | _DOWN, _UP | _DOWN, _UP, _DOWN], dtype=np.int64)


class TriSubdivision:
    """Kept pieces of the triangle quadtree rooted at (Q0, R0).

    Array form, used by the site graph: ``piece_q``, ``piece_r``,
    ``piece_side`` and the bool ``piece_up`` give each piece's axial
    anchor, side and orientation.  ``pieces`` lists them as sorted
    ``(q, r, side, up)`` tuples, built on first access for rendering and
    the tests; the decision never builds it.
    """

    def __init__(self, Q0: int, R0: int, piece_q: np.ndarray, piece_r: np.ndarray,
                 piece_side: np.ndarray, piece_up: np.ndarray):
        self.Q0 = Q0
        self.R0 = R0
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
    faces' cell keys once and climbs with ``climb``; one membership test
    over the crossed unit faces and the uncrossed children keeps the
    pieces.
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
    keys = zorder(np.concatenate([x, x - 1, x - 1, x]), np.concatenate([y, y - 1, y, y - 1]), t)
    crossed, (level, i, j, up) = climb(np.sort(keys << 2 | np.repeat(_UNIT_FLAGS, len(x))),
                                       t, _PARENT, _CHILD_SLOTS)
    if crossed[0].tolist() != [_UP]:
        raise InternalInconsistency("root triangle misses the boundary")

    side = N >> level
    cq, cr = Q0 + i * side, R0 + j * side
    kept = b.faces_inside(cq, cr, up)
    return TriSubdivision(Q0, R0, cq[kept], cr[kept], side[kept], up[kept] == 1)


def _decode_tri(site_keys: np.ndarray):
    coords = np.stack([site_keys >> 2 * _SITE_BITS, (site_keys >> _SITE_BITS) & _SITE_MASK,
                       site_keys & _SITE_MASK], axis=1)
    return coords, coords[:, 0] - coords[:, 2], coords[:, 1] - coords[:, 2]


def build_tri_graph(b: LozengeBoundary, sub: TriSubdivision) -> ApproxGraph:
    """Sites joined along the three line families.

    Sites are the boundary vertices and the piece corners.  Lattice lines
    only meet the boundary at vertices, and every boundary vertex on a
    line is a site, so the open segment between consecutive sites lies
    on one side throughout: inside when either end is interior, else when
    the upward face on the first unit step from the earlier site is a
    region face (a bit of its corner mask) or that step is the boundary
    edge of a negative move.
    """
    q, r = b.qr
    pq, pr, ps, pup = sub.piece_q, sub.piece_r, sub.piece_side, sub.piece_up
    # Piece corners: the anchor, the corner across from it along v1 + v2,
    # and (q + s, r) for an upward piece or (q, r + s) for a downward one.
    aq = np.concatenate([q, pq, pq + ps, pq + ps * pup])
    ar = np.concatenate([r, pr, pr + ps, pr + ps * ~pup])
    m = np.minimum(np.minimum(aq, ar), 0)
    keys = ((aq - m) << 2 * _SITE_BITS) | ((ar - m) << _SITE_BITS) | -m
    tails = np.flatnonzero(b.tokens < 0)
    links = np.stack([tails, (tails + 1) % len(q)])
    return join_sites(keys, len(q), links, _decode_tri, _FAMILIES, b.corner_masks, (6, 6))


def decide_lozenge(source) -> TileabilityVerdict:
    b = parse_lozenge(source) if isinstance(source, str) else source
    return run_pipeline(b, b.n, lozenge_boundary_height(b), build_tri_subdivision,
                        build_tri_graph, compute_gmax, tri_alpha_array)[0]


# ---------------------------------------------------------------------------
# Area-sized references.  They import tiler.reference on call: it imports
# this module, and the decision path never loads it.


def lozenge_matching_decide(b: LozengeBoundary, cap: Optional[int] = None,
                            ) -> Optional[List[Tuple[Face, Face]]]:
    """Perfect matching between upward and downward unit triangles; a
    matching is a lozenge tiling and is returned, otherwise None."""
    from tiler.reference import perfect_matching
    pairs = perfect_matching(b.n, "triangles", cap, b.faces(), lambda f: f[2], face_neighbors)
    return None if pairs is None else list(pairs)


def random_lozenge_region(rng, target_triangles: int) -> LozengeBoundary:
    """``tiler.reference.random_lozenge_region``, imported on call."""
    from tiler.reference import random_lozenge_region
    return random_lozenge_region(rng, target_triangles)
