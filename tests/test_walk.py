"""Both parsers and their boundary heights against the Python walk of
``brute.py``, the exact messages of malformed words, the views a decision
must not build, and the even row counts the membership index relies on."""

import random
import re

import numpy as np
import pytest

import tiler.lozenge
import tiler.solver
from tiler import decide_lozenge, decide_tileable
from tiler.errors import EmptyInterior, NotClosed, SelfIntersecting
from tiler.lozenge import lozenge_boundary_height, parse_lozenge
from tiler.reference import (enumerate_lozenge_regions, enumerate_simply_connected,
                             random_lozenge_region, random_region)
from tiler.region import INVERSE, boundary_height, parse_boundary, unpack

from brute import lozenge_walk, square_walk, tri_axial

def square_variants(word):
    """The word, its clockwise reversal, and the word restarted a third
    of the way round."""
    k = len(word) // 3
    return [word, "".join(INVERSE[m] for m in reversed(word)), word[k:] + word[:k]]


def lozenge_variants(word):
    toks = word.split(",")
    k = len(toks) // 3
    return [word, ",".join(str(-int(t)) for t in reversed(toks)),
            ",".join(toks[k:] + toks[:k])]


def test_square_parse_and_heights_match_the_python_walk():
    rng = random.Random(808)
    words = [b.moves for b in enumerate_simply_connected(7)]
    words += [random_region(rng, rng.randrange(3, 200)).moves for _ in range(200)]
    for word in words:
        for w in square_variants(word):
            want = square_walk(w)
            b = parse_boundary(w)
            assert (b.moves, b.vertices, b.area) == (want.moves, want.vertices, want.area), w
            bh = boundary_height(b)
            assert bh.heights.dtype == np.int64
            assert bh.heights.tolist() == [want.heights[v] for v in want.vertices], w
            assert bh.valid == want.valid, w


def test_lozenge_parse_and_heights_match_the_python_walk():
    rng = random.Random(909)
    words = [b.word for b in enumerate_lozenge_regions(8)]
    words += [random_lozenge_region(rng, rng.randrange(4, 200)).word for _ in range(200)]
    for word in words:
        for w in lozenge_variants(word):
            want = lozenge_walk(w)
            b = parse_lozenge(w)
            assert (b.moves, b.vertices, b.n) == (want.moves, want.vertices, want.area), w
            assert b.axial == [tri_axial(v) for v in want.vertices]
            bh = lozenge_boundary_height(b)
            assert bh.heights.dtype == np.int64
            assert bh.heights.tolist() == [want.heights[v] for v in want.vertices], w
            assert bh.valid == want.valid, w


MALFORMED = [
    (parse_boundary, "", NotClosed, "empty boundary word"),
    (parse_boundary, "RRU", NotClosed, "walk ends at (2, 1), not at the origin"),
    (parse_boundary, "RL", EmptyInterior, "boundary encloses no area"),
    (parse_boundary, "RURDLULD", EmptyInterior, "boundary encloses no area"),
    (parse_boundary, "RULDLDRU", SelfIntersecting, "vertex (0, 0) visited twice"),
    (parse_boundary, "URURDLDL", SelfIntersecting, "vertex (1, 1) visited twice"),
    (parse_boundary, "RRXUULLDD", ValueError, "invalid move 'X' at index 2"),
    (parse_boundary, "r uéld", ValueError, "invalid move 'É' at index 2"),
    (parse_boundary, '{"moves": 5}', ValueError, 'JSON input needs a "moves" string'),
    (parse_lozenge, "1,2", NotClosed, "walk ends at (1, 1), not at the origin"),
    (parse_lozenge, "1,-1", EmptyInterior, "boundary encloses no area"),
    (parse_lozenge, "1,2,3,2,3,-2,-3", SelfIntersecting, "vertex (0, 0) visited twice"),
    # Clockwise: the named vertex is the first repeat of the walk as given.
    (parse_lozenge, "-1,1,3,1,-1,2,1", SelfIntersecting, "vertex (0, 0) visited twice"),
    (parse_lozenge, "1,2,x,-2", ValueError, "invalid move 'x' at index 2"),
    (parse_lozenge, "", ValueError, "invalid move '' at index 0"),
    # Whitespace around a token is accepted, inside one it is not.
    (parse_lozenge, " 1 ,\t2\n", NotClosed, "walk ends at (1, 1), not at the origin"),
    (parse_lozenge, "1,- 1", ValueError, "invalid move '- 1' at index 1"),
    (parse_lozenge, "+1,-1", ValueError, "invalid move '+1' at index 0"),
    (parse_lozenge, "1, 4 ,-1,-2", ValueError, "invalid move '4' at index 1"),
    (parse_lozenge, "1,2, ,-1,-2", ValueError, "invalid move '' at index 2"),
]


@pytest.mark.parametrize("parse, word, error, message", MALFORMED)
def test_malformed_words_give_exact_messages(parse, word, error, message):
    with pytest.raises(error, match=re.escape(message)) as err:
        parse(word)
    assert err.value.args[0] == message
    if " at index " in message:
        assert err.value.args[1] == int(message.rsplit(" ", 1)[1])


def test_deciding_builds_no_vertex_views():
    # Tileable, unbalanced and bad-pair regions of each lattice.
    for word in ("RRUULLDD", "RULD", "RDRURRULULDLLD"):
        b = parse_boundary(word)
        decide_tileable(b)
        assert "vertices" not in vars(b), word
    for word in ("1,1,-3,-3,2,2,-1,-1,3,3,-2,-2", "1,2,3", "1,-2,1,-3,-1,-3,-1,2,3,3"):
        b = parse_lozenge(word)
        decide_lozenge(b)
        assert not {"vertices", "axial", "moves"} & set(vars(b)), word


def test_tileable_verdicts_build_heights_on_first_read(monkeypatch):
    graphs = []

    def keep(module, name):
        build = getattr(module, name)

        def kept(*args):
            graphs.append(build(*args))
            return graphs[-1]
        monkeypatch.setattr(module, name, kept)

    keep(tiler.solver, "build_graph")
    keep(tiler.lozenge, "build_tri_graph")
    verdicts = [decide_tileable("RRUULLDD"), decide_lozenge("1,1,-3,-3,2,2,-1,-1,3,3,-2,-2")]
    assert len(graphs) == 2
    for v, graph in zip(verdicts, graphs):
        assert v.tileable
        assert "sites" not in vars(graph) and "heights" not in vars(v)
        assert v.heights == dict(zip(graph.sites, v.site_heights[1].tolist()))
        assert all(type(h) is int for h in v.heights.values())


def test_closed_walks_cross_every_row_an_even_number_of_times():
    # odd_at_or_left counts every key at or below a position, so each row
    # of the membership index must hold an even number of keys.
    rng = random.Random(1212)
    for _ in range(100):
        for keys in (random_region(rng, rng.randrange(3, 300))._edge_keys,
                     random_lozenge_region(rng, rng.randrange(3, 300))._cut_keys):
            rows, counts = np.unique(unpack(keys)[0], return_counts=True)
            assert len(rows) and (counts % 2 == 0).all()
