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
def sums(draw):
    """(rs, nodes, summands): a random node subset and up to four
    (lam, level, grade, c), lam dominant on the nodes with entries <= 2 and
    c in 0..3; lam is kept small enough for the earlier code to peel."""
    rs = draw(st.sampled_from(SYSTEMS))
    nodes = tuple(i for i in range(1, rs.rank + 1) if draw(st.booleans()))
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        lam = tuple(draw(st.integers(0 if i in nodes else -2, 2)) for i in range(1, rs.rank + 1))
        if sum(lam[i - 1] for i in nodes) > 6 - rs.rank:
            lam = tuple(0 if i in nodes else c for i, c in enumerate(lam, 1))
        summands.append((lam, draw(st.integers(1, 3)), draw(st.integers(0, 2)),
                         draw(st.integers(0, 3))))
    return rs, nodes, summands


@settings(max_examples=80, deadline=None)
@given(sums(), st.data())
def test_branch_recovers_summands(case, data):
    rs, nodes, summands = case
    char, want = GradedCharacter(), {}
    for lam, level, grade, c in summands:
        char = char + parabolic_character(rs, lam, nodes, level=level, grade=grade).scale(c)
        want[(lam, level, grade)] = want.get((lam, level, grade), 0) + c
    want = {key: c for key, c in want.items() if c}
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
