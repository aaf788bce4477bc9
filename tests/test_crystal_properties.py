"""Properties of ``build_crystal`` on random dominant weights of at most 500
vertices over A2, B2, C2, G2, A3, B3 and C3 (hypothesis): the vertex weights
are the irreducible character, every edge is undone by the raising
operator, and phi_i - eps_i is the weight's i-th coordinate.  The weights
of ``tensor_crystal`` of two such crystals, at most 500 pairs, are the
product of the two characters, and the product runs the root operators on
the factors' paths only."""

import collections
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from demazure.characters import finite_character
from demazure import crystal
from demazure.crystal import build_crystal, eps, phi, root_operator_e, tensor_crystal
from demazure.rootdata import root_system

SYSTEMS = [root_system(f, n) for f, n in (("A", 2), ("B", 2), ("C", 2), ("G", 2),
                                          ("A", 3), ("B", 3), ("C", 3))]


def dim(rs, lam):
    return prod(rs.pairings([c + 1 for c in lam])) // prod(rs.pairings((1,) * rs.rank))


@st.composite
def weights(draw, count=1):
    """(rs, lam, ...): ``count`` weights lam dominant with entries up to 6,
    the largest entry of them all lowered until the product of the dim
    V(lam) is at most 500."""
    rs = draw(st.sampled_from(SYSTEMS))
    lams = [[draw(st.integers(0, 6)) for _ in range(rs.rank)] for _ in range(count)]
    while prod(dim(rs, lam) for lam in lams) > 500:
        lam = max(lams, key=max)
        lam[lam.index(max(lam))] -= 1
    return (rs,) + tuple(map(tuple, lams))


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


@settings(max_examples=30, deadline=None)
@given(weights(count=2))
def test_tensor_weights_are_the_character_product(case):
    rs, lam, nu = case
    t = tensor_crystal(rs, build_crystal(rs, lam), build_crystal(rs, nu))
    want = finite_character(rs, lam).tensor(finite_character(rs, nu))
    assert collections.Counter(v.weight() for v in t.vertices) == \
        {fin: mult for (fin, _, _), mult in want.terms.items()}


def test_tensor_lowers_only_the_factor_paths(monkeypatch):
    """At most rank root operator calls per factor vertex, none on a concatenation."""
    rs = SYSTEMS[5]  # B3
    b1, b2 = build_crystal(rs, (0, 1, 1)), build_crystal(rs, (1, 0, 1))
    calls = []
    lower = crystal.root_operator_f
    monkeypatch.setattr(crystal, "root_operator_f",
                        lambda rs, i, path: calls.append(path) or lower(rs, i, path))
    t = tensor_crystal(rs, b1, b2)
    assert len(t.vertices) == len(b1.vertices) * len(b2.vertices)
    assert len(calls) <= rs.rank * (len(b1.vertices) + len(b2.vertices))
    assert set(calls) <= set(b1.vertices) | set(b2.vertices)
