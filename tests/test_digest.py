"""The fast part of the committed differential digest.

``python tests/digest.py`` compares every group of the corpus with
``tests/golden/digest.json``; these tests compare the groups that take a
few seconds in all: every square region of area <= 8, every polyiamond
of <= 9 triangles, the first group of each random family, all 30
large benchmark words and the three oracle regions.
"""

import itertools

import pytest

import digest

FAST_GROUPS = {"sq-enum": 8, "tri-enum": 9, "sq-random": 1, "tri-random": 1,
               "sq-dilated": 1, "large": 30, "oracle": 3}


@pytest.mark.parametrize("family", sorted(FAST_GROUPS))
def test_outputs_match_the_committed_digest(family):
    want = digest.load()
    groups = list(itertools.islice(digest.FAMILIES[family](), FAST_GROUPS[family]))
    assert len(groups) == FAST_GROUPS[family]
    for name, regions in groups:
        assert digest.group_digest(regions) == want[name], name
