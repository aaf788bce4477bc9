"""The table of affine simple roots and the one chamber walk against the
earlier callback walk (``walk_reference``), and the table against the
Euclidean realizations, which share no code with the package."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walk_reference as reference
from demazure.characters import GradedCharacter, demazure_operator, parabolic_character
from demazure.rootdata import root_system
from demazure.weights import (AffineWeight, affine_reflect, dominance_algorithm,
                              finite_dominance)
from realizations import inner, realization

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
         ("D", 4), ("G", 2), ("F", 4), ("E", 6)]


@st.composite
def cases(draw):
    """(rs, affine weight, pick seed, character, nodes, weight dominant on the
    nodes): coordinates in -3..3, levels 1..3, up to four character terms, and
    at most two (one from rank 4 on) on-node units in the parabolic weight."""
    rs = root_system(*draw(st.sampled_from(TYPES)))
    coords = st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank).map(tuple)
    w = AffineWeight(draw(coords), draw(st.integers(1, 3)), draw(st.integers(-3, 3)))
    terms = draw(st.dictionaries(st.tuples(coords, st.integers(1, 3), st.integers(0, 3)),
                                 st.integers(-3, 3), min_size=1, max_size=4))
    nodes = tuple(i for i in range(1, rs.rank + 1) if draw(st.booleans()))
    lam = [c if i not in nodes else 0 for i, c in enumerate(draw(coords), 1)]
    for _ in range(draw(st.integers(0, 2 if rs.rank < 4 else 1))):
        if nodes:
            lam[draw(st.sampled_from(nodes)) - 1] += 1
    return rs, w, draw(st.integers(0, 2**32)), GradedCharacter(terms), nodes, tuple(lam)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_walk_and_operators_match_reference(case):
    rs, w, seed, char, nodes, lam = case
    assert dominance_algorithm(rs, w) == reference.dominance_algorithm(rs, w)
    assert (dominance_algorithm(rs, w, pick=random.Random(seed).choice)
            == reference.dominance_algorithm(rs, w, pick=random.Random(seed).choice))
    assert finite_dominance(rs, w.finite) == reference.finite_dominance(rs, w.finite)
    for i in range(rs.rank + 1):
        assert affine_reflect(rs, i, w) == reference.affine_reflect(rs, i, w)
        assert demazure_operator(rs, i, char) == reference.demazure_operator(rs, i, char)
    assert (parabolic_character(rs, lam, nodes, level=w.level, grade=w.degree)
            == reference.parabolic_character(rs, lam, nodes, level=w.level, grade=w.degree))


def _roots(real):
    """Every root of the realization: the simple roots closed under reflections."""
    roots, frontier = set(real["alpha"]), list(real["alpha"])
    while frontier:
        v = frontier.pop()
        for a in real["alpha"]:
            c = 2 * inner(real, v, a) / inner(real, a, a)
            u = tuple(x - c * y for x, y in zip(v, a))
            if u not in roots:
                roots.add(u)
                frontier.append(u)
    return roots


@pytest.mark.parametrize("family,rank", [t for t in TYPES if t[0] != "E"])
def test_alpha_table_matches_realization(family, rank):
    rs, real = root_system(family, rank), realization(family, rank)
    alpha, omega = real["alpha"], real["omega"]

    def pair(u, v):  # u(h_v) = 2 (u, v) / (v, v)
        return 2 * inner(real, u, v) / inner(real, v, v)

    # theta is the root of greatest height; a root's i-th simple-root
    # coordinate is 2 (root, omega_i) / (alpha_i, alpha_i)
    theta = max(_roots(real), key=lambda r: sum(2 * inner(real, r, w) / inner(real, a, a)
                                                for w, a in zip(omega, alpha)))
    want = [tuple(-pair(theta, a) for a in alpha) + (1, pair(theta, theta))]
    want += [tuple(pair(b, a) for a in alpha) + (0, -pair(b, theta)) for b in alpha]
    assert rs._alphas == tuple(want)
    assert all(type(c) is int for row in rs._alphas for c in row)
    assert rs._alphas[0][-1] == 2
