import itertools

import pytest

from demazure.rootdata import Root, root_system

from realizations import oracle_d, oracle_pairing, realization

COUNTS = [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10),
    ("B", 2, 4), ("B", 3, 9), ("B", 4, 16),
    ("C", 2, 4), ("C", 3, 9), ("C", 4, 16),
    ("D", 4, 12), ("D", 5, 20),
    ("E", 6, 36), ("E", 7, 63),
    ("F", 4, 24), ("G", 2, 6),
]


@pytest.mark.parametrize("family,rank,npos", COUNTS)
def test_positive_root_counts(family, rank, npos):
    rs = root_system(family, rank)
    assert len(rs.positive_roots) == npos
    assert len(set(rs.positive_roots)) == npos


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 3),
                                         ("E", 5), ("E", 9), ("F", 3), ("G", 3),
                                         ("H", 2)])
def test_rank_validation(family, rank):
    with pytest.raises(ValueError):
        root_system(family, rank)


def test_a2_all_long():
    rs = root_system("A", 2)
    assert [r.coords for r in rs.positive_roots] == [(0, 1), (1, 0), (1, 1)]
    assert all(rs.d(r) == 1 for r in rs.positive_roots)


def test_c2_lengths_and_pairings():
    rs = root_system("C", 2)
    table = {r.coords: (rs.d(r), rs.coroot_vector(r)) for r in rs.positive_roots}
    # alpha1 and alpha1+alpha2 short, alpha2 and 2alpha1+alpha2 long
    assert table == {
        (1, 0): (2, (1, 0)),
        (0, 1): (1, (0, 1)),
        (1, 1): (2, (1, 2)),
        (2, 1): (1, (1, 1)),
    }
    assert rs.theta.coords == (2, 1)


def test_g2_lengths():
    rs = root_system("G", 2)
    d = {r.coords: rs.d(r) for r in rs.positive_roots}
    assert d == {(1, 0): 3, (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1, (3, 2): 1}
    assert rs.theta.coords == (3, 2)
    assert rs.root_weight(rs.theta) == (0, 1)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3),
                                         ("B", 2), ("B", 3),
                                         ("C", 2), ("C", 3),
                                         ("D", 4), ("F", 4), ("G", 2)])
def test_realization_oracle(family, rank):
    """Lengths and coroot pairings agree with explicit Euclidean vectors."""
    rs = root_system(family, rank)
    real = realization(family, rank)
    for root in rs.positive_roots:
        assert oracle_d(real, root.coords) == rs.d(root)
        for i in range(rank):
            unit = tuple(1 if j == i else 0 for j in range(rank))
            assert oracle_pairing(real, unit, root.coords) == rs.coroot_vector(root)[i]


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in COUNTS])
def test_theta_is_dominant_long_and_highest(family, rank):
    rs = root_system(family, rank)
    assert rs.d(rs.theta) == 1
    wt = rs.root_weight(rs.theta)
    assert all(c >= 0 for c in wt)
    heights = [r.height for r in rs.positive_roots]
    assert rs.theta.height == max(heights) and heights.count(max(heights)) == 1


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)])
def test_reflections_permute_roots(family, rank):
    rs = root_system(family, rank)
    wts = {rs.root_weight(r) for r in rs.positive_roots}
    wts |= {tuple(-c for c in w) for w in wts}
    for i in range(1, rank + 1):
        assert {rs.reflect(i, w) for w in wts} == wts


def test_pairing_matches_root_weight():
    # mu(h_alpha_i) is the i-th fundamental coordinate
    for family, rank, _ in COUNTS:
        rs = root_system(family, rank)
        assert rs.theta_weight == rs.root_weight(rs.theta)
        for r in rs.positive_roots:
            wt = rs.root_weight(r)
            for i in range(1, rank + 1):
                assert rs.pairing(wt, rs.simple_root(i)) == wt[i - 1]
            assert [rs.pairing(tuple(1 if j == i else 0 for j in range(rank)), r)
                    for i in range(rank)] == list(rs.coroot_vector(r))


def test_weyl_apply_composition_order():
    rs = root_system("A", 2)
    mu = (1, -2)
    assert rs.weyl_apply((1, 2), mu) == rs.reflect(1, rs.reflect(2, mu))
    assert rs.weyl_apply((), mu) == mu


def test_simple_reflection_involution():
    rs = root_system("C", 3)
    for mu in itertools.product((-2, 0, 1, 3), repeat=3):
        for i in (1, 2, 3):
            assert rs.reflect(i, rs.reflect(i, mu)) == mu


def test_root_coordinates_inverse():
    for family, rank in [("A", 3), ("C", 2), ("G", 2), ("D", 4)]:
        rs = root_system(family, rank)
        for r in rs.positive_roots:
            coords = rs.root_coordinates(rs.root_weight(r))
            assert tuple(int(c) for c in coords) == r.coords


def test_simple_root_accessor_bounds():
    rs = root_system("A", 2)
    assert rs.simple_root(1) == Root((1, 0))
    with pytest.raises(ValueError):
        rs.simple_root(0)
    with pytest.raises(ValueError):
        rs.simple_root(3)
