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
canonical form.

The decision is ``solver.run_pipeline``, the one pipeline of both
lattices; this module supplies the triangular stages.  Parsing checks
the walk with the same array check, ``region.closed_walk``, on axial
coordinates, where the shoelace sum counts the triangles.  Along the
boundary the color rises by 1 exactly on the moves 1, 2 and 3, so the
boundary heights are the ``cumsum`` of the move signs, an int64 array in
walk order.  The subdivision covers the region by a quadtree of upward
and downward lattice-aligned triangles whose side halves until it
clears the boundary.  Which of the six faces around a boundary vertex
are in the region follows from the walk's turn there, with no search:
its corner mask.  Those faces are the kept crossed unit faces of the
quadtree, and the decision builds none of them.  The site graph is
``approxgraph.join_sites`` over the boundary vertices, their neighbours
along the directions between two region faces (the other corners of
those unit faces) and the corners of the other pieces, with the three
line families and the upward face flanking each unit step
(``_FAMILIES``), read between two boundary vertices as a bit of the
first one's corner mask.  Each family also gives the bounds of its unit
step, which the join scales by each edge's length, and the boundary
edges joined outright all have bounds 2 and 1 (``_LINK_BOUNDS``).
Degrees are at most six (two per family).  An untileable verdict's
witness is the violated edge whose endpoints come first in sorted site
order.

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
parent has, and one membership test over the uncrossed children of
crossed triangles keeps the pieces.  The crossed unit faces are neither
decoded nor searched: the corner masks say which are inside.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from tiler.errors import InternalInconsistency
from tiler.approxgraph import ApproxGraph, join_sites
from tiler.region import (BoundaryHeight, closed_walk, corner_masks, crossing_keys,
                          odd_at_or_left, spans, turn_table, walk_back)
from tiler.solver import TileabilityVerdict, compute_gmax, run_pipeline
from tiler.subdivision import climb, groups, zorder

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
# The axial steps of the six directions in that order, and the face of
# each sector as (dq, dr, up): bits 0 to 5 of a corner mask.
_LEG_Q = np.array([1, 1, 0, -1, -1, 0], dtype=np.int64)
_LEG_R = np.array([0, 1, 1, 0, -1, -1], dtype=np.int64)
_SECTOR_FACE = np.array([(0, 0, 1), (0, 0, 0), (-1, 0, 1), (-1, -1, 0), (-1, -1, 1),
                         (0, -1, 0)], dtype=np.int64)


def _set_bits(masks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The set bits of an int8 array of 6-bit masks, as arrays of the
    mask's index and the bit's."""
    where = np.unpackbits(masks.view(np.uint8), bitorder="little").nonzero()[0]
    return where >> 3, where & 7


# The three line families: the directions v1, v2 and -v3, each with the
# sector of the upward face flanking the unit edge from (q, r) along it
# and the bounds of that unit step, forward and back.  Off the boundary
# the downward face agrees; boundary edges of moves -1, -2 and -3 have
# the upward one outside and are joined outright.
_FAMILIES = (((1, 0), 0, (1, 2)), ((0, 1), 2, (1, 2)), ((1, 1), 0, (2, 1)))
# Those boundary edges' bounds: a unit step along -v1, -v2 or v3 is
# (0, 1, 1) forward and (1, 0, 0) back in canonical form, so 2 and 1.
_LINK_BOUNDS = np.array([[2], [1]], dtype=np.int64)


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
        """All faces of the region, row by row, built on the first read
        (so after any cap check).  Costs O(area)."""
        r, pos = spans(self._cut_keys)
        yield from zip((pos >> 1).tolist(), r.tolist(), (pos & 1 == 1).tolist())


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
    """Kept pieces of the triangle quadtree rooted at (Q0, R0) over the
    boundary ``b``.

    Array form, used by the site graph: ``piece_q``, ``piece_r``,
    ``piece_side`` and the bool ``piece_up`` give the axial anchor, side
    and orientation of each kept uncrossed child of a crossed triangle.
    The kept crossed unit faces are not among them: they are the faces
    around the boundary vertices whose corner-mask bits are set, which the
    graph reads off the masks.  ``pieces`` lists both as sorted
    ``(q, r, side, up)`` tuples, built on first access for rendering and
    the tests; the decision never builds it.
    """

    def __init__(self, b: LozengeBoundary, Q0: int, R0: int, piece_q: np.ndarray,
                 piece_r: np.ndarray, piece_side: np.ndarray, piece_up: np.ndarray):
        self.b = b
        self.Q0 = Q0
        self.R0 = R0
        self.piece_q = piece_q
        self.piece_r = piece_r
        self.piece_side = piece_side
        self.piece_up = piece_up

    @cached_property
    def pieces(self) -> List[Piece]:
        q, r = self.b.qr
        row, k = _set_bits(self.b.corner_masks)
        dq, dr, up = _SECTOR_FACE[k].T
        units = zip((q[row] + dq).tolist(), (r[row] + dr).tolist(), repeat(1),
                    (up == 1).tolist())
        return sorted(set(units).union(zip(self.piece_q.tolist(), self.piece_r.tolist(),
                                           self.piece_side.tolist(), self.piece_up.tolist())))


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
    faces' cell keys once, merges the flags of equal cells and climbs
    with ``climb``; one membership test over the uncrossed children keeps
    the pieces.  The crossed unit faces are neither decoded nor searched:
    those inside are the set bits of the corner masks, and only the
    ``pieces`` view lists them.
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
    keys = np.sort(keys << 2 | np.repeat(_UNIT_FLAGS, len(x)))
    keys = np.bitwise_or.reduceat(keys, groups(keys, 2)[1])
    crossed, (level, i, j, up) = climb(keys, t, _PARENT, _CHILD_SLOTS)
    if crossed[0].tolist() != [_UP]:
        raise InternalInconsistency("root triangle misses the boundary")

    side = N >> level
    cq, cr = Q0 + i * side, R0 + j * side
    kept = b.faces_inside(cq, cr, up)
    return TriSubdivision(b, Q0, R0, cq[kept], cr[kept], side[kept], up[kept] == 1)


def _decode_tri(site_keys: np.ndarray):
    coords = np.stack([site_keys >> 2 * _SITE_BITS, (site_keys >> _SITE_BITS) & _SITE_MASK,
                       site_keys & _SITE_MASK], axis=1)
    return coords, coords[:, 0] - coords[:, 2], coords[:, 1] - coords[:, 2]


def build_tri_graph(b: LozengeBoundary, sub: TriSubdivision) -> ApproxGraph:
    """Sites joined along the three line families.

    Sites are the boundary vertices, the corners of the kept unit faces
    and the corners of the other pieces.  The unit faces around a boundary
    vertex c are those of the set bits of its corner mask m, and their
    corners are c and its neighbours along the directions on either side
    of them.  A direction with a region face on one side only is a
    boundary edge, whose far end is a boundary vertex; so the corners
    that are not boundary vertices are the neighbours along the directions
    between two region faces, the set bits of ``m & rotl(m)``, as the
    square graph's inner legs.  No unit face is built.

    Lattice lines only meet the boundary at vertices, and every boundary
    vertex on a line is a site, so the open segment between consecutive
    sites lies on one side throughout: inside when either end is
    interior, else when the upward face on the first unit step from the
    earlier site is a region face (a bit of its corner mask) or that step
    is the boundary edge of a negative move.
    """
    q, r = b.qr
    m = b.corner_masks
    row, d = _set_bits(m & (m << 1 | m >> 5))
    pq, pr, ps, pup = sub.piece_q, sub.piece_r, sub.piece_side, sub.piece_up
    # Piece corners: the anchor, the corner across from it along v1 + v2,
    # and (q + s, r) for an upward piece or (q, r + s) for a downward one.
    aq = np.concatenate([q, q[row] + _LEG_Q[d], pq, pq + ps, pq + ps * pup])
    ar = np.concatenate([r, r[row] + _LEG_R[d], pr, pr + ps, pr + ps * ~pup])
    low = np.minimum(np.minimum(aq, ar), 0)
    keys = ((aq - low) << 2 * _SITE_BITS) | ((ar - low) << _SITE_BITS) | -low
    tails = np.flatnonzero(b.tokens < 0)
    links = np.stack([tails, (tails + 1) % len(q)])
    return join_sites(keys, len(q), links, np.repeat(_LINK_BOUNDS, len(tails), axis=1),
                      _decode_tri, _FAMILIES, m, (6, 6))


def decide_lozenge(source) -> TileabilityVerdict:
    b = parse_lozenge(source) if isinstance(source, str) else source
    return run_pipeline(b, b.n, lozenge_boundary_height(b), build_tri_subdivision,
                        build_tri_graph, compute_gmax)[0]


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
