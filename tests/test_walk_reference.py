"""The table of affine simple roots, the one chamber walk and the packed
operator loop against the earlier callback walk and tuple operator loop
(``walk_reference``), and the table against the Euclidean realizations, which
share no code with the package.  Characters compare as lists of items, so the
term insertion order is checked too."""

import random
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walk_reference as reference
from demazure import acceptance
from demazure import characters as ch
from demazure.characters import (GradedCharacter, _apply_word, demazure_character,
                                 demazure_operator, finite_character, parabolic_character)
from demazure.rootdata import root_system
from demazure.weights import (AffineWeight, affine_reflect, dominance_algorithm,
                              finite_dominance)
from realizations import inner, realization

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
         ("D", 4), ("G", 2), ("F", 4), ("E", 6)]
BIG = 10**20


def _outcome(compute, *args, **kwargs):
    """compute(*args, **kwargs) as its list of items, or the budget error it raises."""
    try:
        return list(compute(*args, **kwargs).terms.items())
    except RuntimeError as exc:
        return str(exc)


def _applied(rs, word, char):
    """The packed operator loop on char, decoded."""
    return ch._decode(_apply_word(rs, word, char), rs.rank)


def _set_budget(budget):
    """Set the term budget of the package and of the reference; return the old one."""
    old, ch._TERM_BUDGET, reference._TERM_BUDGET = ch._TERM_BUDGET, budget, budget
    return old


def _reference_character(rs, mu, k):
    """The reference composition: D along the reference walk's word."""
    lam, word = reference.dominance_algorithm(rs, AffineWeight(mu, k, 0))
    return reference._apply_word(rs, reversed(word),
                                 GradedCharacter.from_weight(lam.finite, k, lam.degree))


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
        assert (list(demazure_operator(rs, i, char).terms.items())
                == list(reference.demazure_operator(rs, i, char).terms.items()))
    assert (list(parabolic_character(rs, lam, nodes, level=w.level, grade=w.degree).terms.items())
            == list(reference.parabolic_character(rs, lam, nodes, level=w.level,
                                                  grade=w.degree).terms.items()))


@st.composite
def wide_cases(draw):
    """(rs, affine weight, character): walk coordinates in -3..3, levels 1..3,
    and up to four character terms whose coordinates, levels and grades lie in
    -3..3, -300..300 or -10^20..10^20."""
    rs = root_system(*draw(st.sampled_from(TYPES)))
    coords = st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank).map(tuple)
    w = AffineWeight(draw(coords), draw(st.integers(1, 3)), 0)
    wide = st.one_of(st.integers(-3, 3), st.integers(-300, 300), st.integers(-BIG, BIG))
    wide_coords = st.lists(wide, min_size=rs.rank, max_size=rs.rank).map(tuple)
    terms = draw(st.dictionaries(st.tuples(wide_coords, wide, wide),
                                 st.integers(-3, 3), min_size=1, max_size=4))
    return rs, w, GradedCharacter(terms)


@settings(max_examples=150, deadline=None)
@given(wide_cases())
def test_wide_operators_and_characters_match_reference(case):
    """Wide terms and Demazure characters at a term budget of 2,000 on both
    sides, which keeps the thousands of terms a wide pairing emits quick; past
    the budget both must raise one text."""
    rs, w, char = case
    budget = _set_budget(2000)
    try:
        for i in range(rs.rank + 1):
            assert (_outcome(demazure_operator, rs, i, char)
                    == _outcome(reference.demazure_operator, rs, i, char))
        assert (_outcome(demazure_character, rs, w.finite, w.level)
                == _outcome(_reference_character, rs, w.finite, w.level))
    finally:
        _set_budget(budget)


@pytest.mark.parametrize("family,rank,fin,level,grade", [
    ("A", 1, (0,), 10**23, 0), ("A", 2, (1, -2), BIG, -BIG), ("G", 2, (-BIG, 2), 1, 3),
    ("C", 3, (BIG, -1, BIG), -BIG, 5),
    # D_2 takes the first coordinate to 600, three times any field of the input
    ("G", 2, (0, 200), 200, 0)])
def test_wide_fields_match_reference(family, rank, fin, level, grade):
    rs = root_system(family, rank)
    char = GradedCharacter({(fin, level, grade): 1, ((0,) * rank, level, grade + 1): -2})
    for i in range(rank + 1):
        assert (_outcome(demazure_operator, rs, i, char)
                == _outcome(reference.demazure_operator, rs, i, char))
    word = tuple(range(1, rank + 1)) * 2
    assert _outcome(_applied, rs, word, char) == _outcome(reference._apply_word, rs, word, char)


def test_acceptance_characters_match_reference():
    """The calls of ``acceptance.character_operators`` on its mixed random
    characters: every node once and twice, and both sides of each braid."""
    rng = random.Random(0)
    for n in range(40):
        rs = root_system(*[("A", 1), ("A", 2), ("B", 2), ("C", 2)][n % 4])
        c = acceptance._random_character(rs, rng)
        for i in range(rs.rank + 1):
            once = demazure_operator(rs, i, c)
            assert _outcome(lambda: once) == _outcome(reference.demazure_operator, rs, i, c)
            assert (_outcome(demazure_operator, rs, i, once)
                    == _outcome(reference.demazure_operator, rs, i, once))
        words = [] if rs.rank == 1 else [(1, 2, 1), (2, 1, 2)] if rs.family == "A" \
            else [(1, 2, 1, 2), (2, 1, 2, 1)]
        for word in words:
            assert (_outcome(_applied, rs, word[::-1], c)
                    == _outcome(reference._apply_word, rs, word[::-1], c))


@pytest.mark.parametrize("compute,oracle", [
    (lambda: demazure_character(root_system("A", 2), (-2, -1), 1),
     lambda: _reference_character(root_system("A", 2), (-2, -1), 1)),
    (lambda: finite_character(root_system("C", 3), (1, 0, 1)),
     lambda: reference.parabolic_character(root_system("C", 3), (1, 0, 1), (1, 2, 3))),
], ids=["demazure", "finite"])
def test_budget_errors_match_reference(compute, oracle):
    """At each small budget, both raise one text, count included, or give one
    character; the one-application and the summed bound both fire."""
    fired = set()
    for budget in range(0, 60, 3):
        old = _set_budget(budget)
        try:
            try:
                want = list(oracle().terms.items())
            except RuntimeError as exc:
                want = str(exc)
                fired.add(traceback.extract_tb(exc.__traceback__)[-1].name)
            assert _outcome(compute) == want
        finally:
            _set_budget(old)
    assert fired == {"demazure_operator", "_apply_word"}


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
