"""Properties of ``build_crystal`` on random dominant weights of at most 500
vertices over A2, B2, C2, G2, A3, B3 and C3 (hypothesis): the vertex weights
are the irreducible character, every edge is undone by the raising
operator, and phi_i - eps_i is the weight's i-th coordinate."""

import collections
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from demazure.characters import finite_character
from demazure.crystal import build_crystal, eps, phi, root_operator_e
from demazure.rootdata import root_system

SYSTEMS = [root_system(f, n) for f, n in (("A", 2), ("B", 2), ("C", 2), ("G", 2),
                                          ("A", 3), ("B", 3), ("C", 3))]


def dim(rs, lam):
    return prod(rs.pairings([c + 1 for c in lam])) // prod(rs.pairings((1,) * rs.rank))


@st.composite
def weights(draw):
    """(rs, lam): lam dominant with entries up to 6, its largest entry
    lowered until dim V(lam) <= 500."""
    rs = draw(st.sampled_from(SYSTEMS))
    lam = [draw(st.integers(0, 6)) for _ in range(rs.rank)]
    while dim(rs, lam) > 500:
        lam[lam.index(max(lam))] -= 1
    return rs, tuple(lam)


@settings(max_examples=30, deadline=None)
@given(weights())
def test_crystal_laws(case):
    rs, lam = case
    b = build_crystal(rs, lam)
    want = {fin: mult for (fin, _, _), mult in finite_character(rs, lam).terms.items()}
    assert collections.Counter(v.weight() for v in b.vertices) == want
    for u, v, i in b.edges:
        assert root_operator_e(rs, i, v) == u
    for v in b.vertices:
        wt = v.weight()
        for i in range(1, rs.rank + 1):
            assert phi(rs, i, v) - eps(rs, i, v) == wt[i - 1]
