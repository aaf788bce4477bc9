import random

import pytest

from demazure.rootdata import root_system
from demazure.weights import (AffineWeight, affine_pairing, affine_reflect,
                              dominance_algorithm, finite_dominance,
                              is_affine_dominant, sign_sets, signed_roots)

FAMILIES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
            ("C", 2), ("C", 3), ("G", 2)]


def test_sign_sets_a2():
    rs = root_system("A", 2)
    plus, minus = sign_sets(rs, (1, -2))
    assert {r.coords for r in plus} == {(1, 0)}
    assert {r.coords for r in minus} == {(0, 1), (1, 1)}


def test_sign_sets_zero_pairing_in_both():
    rs = root_system("C", 2)
    plus, minus = sign_sets(rs, (0, 1))
    # alpha1 pairs to zero, so it sits in both sets
    assert {r.coords for r in plus} == {(1, 0), (0, 1), (1, 1), (2, 1)}
    assert {r.coords for r in minus} == {(1, 0)}


def test_affine_reflect_node0_a1():
    rs = root_system("A", 1)
    w = AffineWeight((-1,), 1, 0)
    assert affine_reflect(rs, 0, w) == AffineWeight((3,), 1, -2)


def test_affine_pairing_node0():
    rs = root_system("A", 2)
    w = AffineWeight((1, -2), 2, 0)
    assert affine_pairing(rs, w, 0) == 2 - (1 - 2) == 3
    assert affine_pairing(rs, w, 1) == 1
    assert affine_pairing(rs, w, 2) == -2


@pytest.mark.parametrize("i", [-1, 3, 5, True, False, 1.0, 0.0, "0"])
def test_affine_pairing_rejects_nodes_outside_0_to_rank(i):
    rs = root_system("A", 2)
    w = AffineWeight((1, -2), 2, 0)
    with pytest.raises(ValueError, match=r"node .* is not an affine node of 0\.\.2"):
        affine_pairing(rs, w, i)
    with pytest.raises(ValueError, match=r"node .* is not an affine node of 0\.\.2"):
        affine_reflect(rs, i, w)


# True and 1.0 equal node 1 but are not ints; 0 and 1 are nodes, but the walk offers
# only node 2, the one negative pairing of (1, -2) at level 2
@pytest.mark.parametrize("node", [-1, 3, True, 1.0, 2.0, 0, 1])
def test_dominance_rejects_a_pick_outside_0_to_rank(node):
    with pytest.raises(ValueError, match="node .* is not one of the negative nodes"):
        dominance_algorithm(root_system("A", 2), AffineWeight((1, -2), 2, 0),
                            pick=lambda negative: node)


def test_affine_reflect_involution_and_level():
    rng = random.Random(0)
    for family, rank in FAMILIES:
        rs = root_system(family, rank)
        for _ in range(20):
            w = AffineWeight(tuple(rng.randint(-4, 4) for _ in range(rank)),
                             rng.randint(1, 3), rng.randint(-3, 3))
            for i in range(rank + 1):
                w2 = affine_reflect(rs, i, w)
                assert w2.level == w.level
                assert affine_reflect(rs, i, w2) == w


def test_dominance_frozen_examples():
    rs = root_system("A", 2)
    lam, word = dominance_algorithm(rs, AffineWeight((1, -2), 2, 0))
    assert lam == AffineWeight((1, 1), 2, 0)
    assert word == (2, 1)

    rs1 = root_system("A", 1)
    lam, word = dominance_algorithm(rs1, AffineWeight((2,), 1, 0))
    assert lam == AffineWeight((0,), 1, 1)
    assert word == (0,)

    lam, word = dominance_algorithm(rs1, AffineWeight((1,), 1, 0))
    assert lam == AffineWeight((1,), 1, 0) and word == ()


def test_dominance_rejects_level_zero():
    rs = root_system("A", 1)
    with pytest.raises(ValueError):
        dominance_algorithm(rs, AffineWeight((2,), 0, 0))


@pytest.mark.parametrize("level", (0, 1.5, 2.0, True))
def test_dominance_takes_an_int_level(level):
    """Level 1.5 once walked to AffineWeight((0.5, 0.5), 1.5, 0.5), and True
    walked as level 1."""
    with pytest.raises(ValueError, match="level must be an int >= 1, not %r" % (level,)):
        dominance_algorithm(root_system("A", 2), AffineWeight((1, -2), level, 0))


def _roundtrip(rs, w):
    lam, word = dominance_algorithm(rs, w)
    assert is_affine_dominant(rs, lam)
    back = lam
    for i in reversed(word):
        back = affine_reflect(rs, i, back)
    return back


def test_dominance_roundtrip_seeded():
    rng = random.Random(1)
    for _ in range(200):
        family, rank = FAMILIES[rng.randrange(len(FAMILIES))]
        rs = root_system(family, rank)
        w = AffineWeight(tuple(rng.randint(-4, 4) for _ in range(rank)),
                         rng.randint(1, 3), rng.randint(-3, 3))
        assert _roundtrip(rs, w) == w


def test_dominance_tiebreak_independent():
    rng = random.Random(2)
    for _ in range(50):
        family, rank = FAMILIES[rng.randrange(len(FAMILIES))]
        rs = root_system(family, rank)
        w = AffineWeight(tuple(rng.randint(-3, 3) for _ in range(rank)),
                         rng.randint(1, 2), 0)
        lam, _ = dominance_algorithm(rs, w)
        lam2, _ = dominance_algorithm(rs, w, pick=rng.choice)
        assert lam == lam2


def test_finite_dominance():
    rng = random.Random(3)
    for family, rank in FAMILIES:
        rs = root_system(family, rank)
        for _ in range(20):
            mu = tuple(rng.randint(-4, 4) for _ in range(rank))
            lam, word = finite_dominance(rs, mu)
            assert rs.is_dominant(lam)
            assert rs.weyl_apply(word, mu) == lam
            assert rs.weyl_apply(tuple(reversed(word)), lam) == mu


# The two walk loops as they stood before they were folded into one shared
# helper, kept verbatim as the differential oracle.
_STEP_LIMIT = 10**6


def _reference_dominance_algorithm(rs, w, *, pick=None):
    if w.level < 1:
        raise ValueError("dominance walk needs level >= 1")
    word = []
    for _ in range(_STEP_LIMIT):
        negative = [i for i in range(rs.rank + 1) if affine_pairing(rs, w, i) < 0]
        if not negative:
            return w, tuple(word)
        i = negative[0] if pick is None else pick(negative)
        w = affine_reflect(rs, i, w)
        word.append(i)
    raise RuntimeError("dominance walk exceeded step limit")


def _reference_finite_dominance(rs, mu):
    steps = []
    for _ in range(_STEP_LIMIT):
        negative = [i for i in range(1, rs.rank + 1) if mu[i - 1] < 0]
        if not negative:
            return mu, tuple(reversed(steps))
        i = negative[0]
        mu = rs.reflect(i, mu)
        steps.append(i)
    raise RuntimeError("dominance walk exceeded step limit")


WALK_FAMILIES = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("D", 4), ("E", 6),
                 ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", WALK_FAMILIES)
def test_walks_match_reference(family, rank):
    rs = root_system(family, rank)
    rng = random.Random(rank * 100 + ord(family))
    for _ in range(60):
        mu = tuple(rng.randint(-3, 3) for _ in range(rank))
        assert finite_dominance(rs, mu) == _reference_finite_dominance(rs, mu)
        for level in (1, 2, 3):
            w = AffineWeight(mu, level, rng.randint(-3, 3))
            assert dominance_algorithm(rs, w) == _reference_dominance_algorithm(rs, w)
            seed = rng.random()
            assert (dominance_algorithm(rs, w, pick=random.Random(seed).choice)
                    == _reference_dominance_algorithm(
                        rs, w, pick=random.Random(seed).choice))


# The per-root sign rule as it stood before signed_roots, kept verbatim as
# the differential oracle.
def _reference_relation_signs(pair: int) -> tuple[str, ...]:
    """Signs of the relations imposed at a root alpha with pair = mu(h_alpha):
    '+' when pair <= 0, '-' when pair >= 0, both ('+' first) when it is 0."""
    if pair > 0:
        return ("-",)
    if pair < 0:
        return ("+",)
    return ("+", "-")


@pytest.mark.parametrize("family,rank", WALK_FAMILIES + [("E", 8)])
def test_signed_roots_match_reference(family, rank):
    rs = root_system(family, rank)
    rng = random.Random(rank * 100 + ord(family))
    for _ in range(40):
        mu = tuple(rng.randint(-3, 3) for _ in range(rank))
        want = [(root, sign) for root in rs.positive_roots
                for sign in _reference_relation_signs(rs.pairing(mu, root))]
        got = list(signed_roots(rs, mu))
        assert [(root, sign) for root, sign, _ in got] == want
        assert all(x == (-1 if sign == "+" else 1) * rs.pairing(mu, root)
                   for root, sign, x in got)


@pytest.mark.parametrize("mu", [(1, -1, -5), (1, 0, 0), (1,), ()])
def test_finite_dominance_rejects_wrong_length(mu):
    with pytest.raises(ValueError, match="coordinates"):
        finite_dominance(root_system("A", 2), mu)
