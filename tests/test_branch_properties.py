"""Properties of ``g0_branch`` on bounded random sums of parabolic
irreducible characters (hypothesis): it recovers every nonzero summand with
its Weyl dimension; a sum less one weight that is not a highest weight fails
with the earlier code's ValueError text, and a sum plus one weight gives the
earlier code's records or text."""

from hypothesis import given, settings
from hypothesis import strategies as st

import branch_reference as reference
from demazure.characters import GradedCharacter, g0_branch, parabolic_character
from demazure.rootdata import root_system
from test_branch_reference import _branch as _outcome

SYSTEMS = [root_system(f, n) for f, n in (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3))]


@st.composite
def sums(draw, repeat=False):
    """(rs, nodes, summands): a random node subset and up to four
    (lam, level, grade, c), lam dominant on the nodes with entries <= 2 and
    c in 0..3; lam is kept small enough for the earlier code to peel.  With
    ``repeat``, the first two distinct lam come back at every grade 0..3 and
    level 1, 2, each time with a c of its own, so that grade slices and levels
    share finite weights with different multiplicities."""
    rs = draw(st.sampled_from(SYSTEMS))
    nodes = tuple(i for i in range(1, rs.rank + 1) if draw(st.booleans()))
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        lam = tuple(draw(st.integers(0 if i in nodes else -2, 2)) for i in range(1, rs.rank + 1))
        if sum(lam[i - 1] for i in nodes) > 6 - rs.rank:
            lam = tuple(0 if i in nodes else c for i, c in enumerate(lam, 1))
        summands.append((lam, draw(st.integers(1, 3)), draw(st.integers(0, 2)),
                         draw(st.integers(0, 3))))
    if repeat:
        summands = [(lam, level, grade, draw(st.integers(0, 3)))
                    for lam in list(dict.fromkeys(lam for lam, _, _, _ in summands))[:2]
                    for level in (1, 2) for grade in range(4)]
    return rs, nodes, summands


def _sum(rs, nodes, summands):
    """The character of the summands and its highest weights with their multiplicities."""
    char, want = GradedCharacter(), {}
    for lam, level, grade, c in summands:
        char = char + parabolic_character(rs, lam, nodes, level=level, grade=grade).scale(c)
        want[(lam, level, grade)] = want.get((lam, level, grade), 0) + c
    return char, {key: c for key, c in want.items() if c}


@settings(max_examples=80, deadline=None)
@given(sums(), st.data())
def test_branch_recovers_summands(case, data):
    rs, nodes, summands = case
    char, want = _sum(rs, nodes, summands)
    records = g0_branch(rs, char, nodes)
    assert {(r.finite, r.level, r.grade): r.multiplicity for r in records} == want
    assert len(records) == len(want)
    assert [r.grade for r in records] == sorted(r.grade for r in records)
    for r in records:
        assert r.dimension == parabolic_character(rs, r.finite, nodes).dimension()
    lower = sorted(key for key in char.terms if key not in want)
    if lower:  # a sum less a weight that is not a highest weight never peels
        broken = char - GradedCharacter({data.draw(st.sampled_from(lower)): 1})
        assert "ValueError" in _outcome(g0_branch, rs, broken, nodes)
        assert _outcome(g0_branch, rs, broken, nodes) == _outcome(reference.g0_branch, rs,
                                                                  broken, nodes)
    # one more weight, which peels only when it is fixed by the nodes' Weyl group
    extra = (tuple(data.draw(st.integers(-2, 2)) for _ in range(rs.rank)),
             data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2)))
    grown = char + GradedCharacter({extra: 1})
    assert _outcome(g0_branch, rs, grown, nodes) == _outcome(reference.g0_branch, rs,
                                                             grown, nodes)


@settings(max_examples=60, deadline=None)
@given(sums(repeat=True), st.data())
def test_branch_of_weights_repeated_across_grades_and_levels(case, data):
    """One finite weight in several grade slices and levels, with different
    multiplicities: the records equal the earlier code's; with one weight
    that is not a highest weight taken out of grade 1 or 2, both fail at
    that grade with the same ValueError text."""
    rs, nodes, summands = case
    char, want = _sum(rs, nodes, summands)
    records = _outcome(g0_branch, rs, char, nodes)
    assert records == _outcome(reference.g0_branch, rs, char, nodes)
    assert {(r.finite, r.level, r.grade): r.multiplicity for r in records} == want
    middle = sorted(key for key in char.terms if key not in want and key[2] in (1, 2))
    if middle:
        key = data.draw(st.sampled_from(middle))
        broken = char - GradedCharacter({key: 1})
        failed = _outcome(g0_branch, rs, broken, nodes)
        assert isinstance(failed, str) and failed.startswith("ValueError")
        assert "grade %d" % key[2] in failed
        assert failed == _outcome(reference.g0_branch, rs, broken, nodes)
