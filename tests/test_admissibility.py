import itertools
import random

import pytest

from demazure import admissibility
from demazure.admissibility import (balanced_split, candidate_splits,
                                    enumerate_dominant_splits,
                                    find_1_admissible, is_preadmissible,
                                    is_r_admissible, minimal_r,
                                    profile_bound_scan, pull_back, root_profile)
from demazure.rootdata import Root, root_system
from demazure.weights import finite_dominance

A2 = root_system("A", 2)
C2 = root_system("C", 2)


def test_preadmissible_basic():
    ok, wit = is_preadmissible(C2, (2, 1), ((1, 1), (1, 0)))
    assert ok and wit == ()
    # breaking sign inheritance on alpha2
    ok, wit = is_preadmissible(C2, (2, 1), ((2, 2), (0, -1)))
    assert not ok
    assert any(w[0] == Root((0, 1)) for w in wit)


def test_preadmissible_zero_pairing_forces_zero():
    # mu = varpi2 pairs to 0 on alpha1: parts +/-varpi1 break it
    ok, wit = is_preadmissible(C2, (0, 1), ((1, 1), (-1, 0)))
    assert not ok
    assert any(w[0] == Root((1, 0)) for w in wit)


def test_split_sum_validation():
    with pytest.raises(ValueError):
        is_preadmissible(C2, (2, 1), ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        is_r_admissible(C2, (2, 1), ((2, 1),), 0)


@pytest.mark.parametrize("r", (1.5, 2.0, True, False, "1"))
def test_r_must_be_an_int(r):
    """1.5 once passed as a 1-admissible split, and True as r = 1."""
    with pytest.raises(ValueError, match="r must be an int >= 1"):
        is_r_admissible(C2, (2, 1), ((1, 1), (1, 0)), r)


@pytest.mark.parametrize("r", (1.5, True, 0))
def test_profile_m_takes_an_int_r(r):
    """m(1.5) once gave a float and m(True) acted as m(1)."""
    prof = root_profile(C2, ((1, 1), (1, 0)), C2.positive_roots[0], "-")
    with pytest.raises(ValueError, match="r must be an int >= 1, not %r" % (r,)):
        prof.m(r)


@pytest.mark.parametrize("search", [
    lambda k: balanced_split(C2, (2, 1), k),
    lambda k: list(enumerate_dominant_splits(C2, (2, 1), k)),
    lambda k: find_1_admissible(C2, (2, 1), k),
], ids=["balanced_split", "enumerate_dominant_splits", "find_1_admissible"])
@pytest.mark.parametrize("k", (True, 2.0, 0))
def test_split_searches_take_an_int_k(search, k):
    """k = True once gave the 1-part split ((2, 1),), and balanced_split at
    k = 2.0 raised TypeError."""
    with pytest.raises(ValueError, match="k must be an int >= 1, not %r" % (k,)):
        search(k)


def test_root_profile_c2_example():
    split = ((1, 1), (1, 0))
    prof = root_profile(C2, split, Root((1, 1)), "-")
    assert prof.values == (3, 1)
    assert prof.x == 3 and prof.t == 2
    assert prof.counts == (1, 0, 1)
    assert prof.m(1) == 1 and prof.m(2) == 3
    assert prof.weighted_count() == 2


def test_profile_conservation():
    rng = random.Random(5)
    for _ in range(40):
        rs = [A2, C2][rng.randrange(2)]
        k = rng.randint(1, 3)
        lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
        split = balanced_split(rs, lam, k)
        for root in rs.positive_roots:
            pair = rs.pairing(lam, root)
            sign = "-" if pair >= 0 else "+"
            prof = root_profile(rs, split, root, sign)
            assert sum(prof.values) == abs(pair)
            assert sum(prof.counts) == k
            assert prof.counts[0] >= 1


def test_c2_featured_splits():
    mu = (2, 1)
    bad = ((1, 1), (1, 0))  # varpi1+varpi2, varpi1
    rep1 = is_r_admissible(C2, mu, bad, 1)
    assert rep1.preadmissible and not rep1.admissible
    fails = rep1.failures
    assert len(fails) == 1
    assert fails[0].profile.root == Root((1, 1)) and not fails[0].condition_a
    assert is_r_admissible(C2, mu, bad, 2).admissible

    good = ((2, 0), (0, 1))  # 2varpi1, varpi2
    assert is_r_admissible(C2, mu, good, 1).admissible
    assert is_r_admissible(C2, mu, good, 2).admissible


def test_condition_b_theta_case():
    rep = is_r_admissible(C2, (2, 1), ((2, 0), (0, 1)), 1)
    theta_recs = [rec for rec in rep.records if rec.profile.root == Root((2, 1))]
    assert [rec.condition_b for rec in theta_recs] == [True]


def test_minimal_r():
    assert minimal_r(C2, (2, 1), ((1, 1), (1, 0))) == 2
    assert minimal_r(C2, (2, 1), ((2, 0), (0, 1))) == 1
    assert minimal_r(C2, (2, 1), ((2, 2), (0, -1))) is None  # not pre-admissible
    assert minimal_r(C2, (2, 1), ((1, 1), (1, 0)), r_max=1) is None


def test_minimal_r_stabilizes_at_profile_bound():
    rng = random.Random(6)
    for _ in range(30):
        rs = [A2, C2][rng.randrange(2)]
        k = rng.randint(1, 3)
        lam = tuple(rng.randint(0, 4) for _ in range(rs.rank))
        split = balanced_split(rs, lam, k)
        big = max((root_profile(rs, split, root, "-").x
                   for root in rs.positive_roots), default=1)
        r = minimal_r(rs, lam, split)
        assert r is not None and r <= max(big, 1)
        assert is_r_admissible(rs, lam, split, max(big, 1)).admissible


def test_enumerate_dominant_splits_order_and_count():
    rs = root_system("A", 1)
    splits = list(enumerate_dominant_splits(rs, (2,), 2))
    assert splits == [(((2,), (0,))), ((1,), (1,)), ((0,), (2,))]
    # product of per-node stars-and-bars counts
    assert len(list(enumerate_dominant_splits(A2, (2, 1), 3))) == 6 * 3
    with pytest.raises(ValueError):
        next(enumerate_dominant_splits(A2, (-1, 0), 2))


def test_enumerated_pullbacks_are_preadmissible():
    rng = random.Random(7)
    for _ in range(25):
        rs = [A2, C2, root_system("B", 2)][rng.randrange(3)]
        mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        k = rng.randint(1, 3)
        lam, word = finite_dominance(rs, mu)
        for split in itertools.islice(enumerate_dominant_splits(rs, lam, k), 10):
            cand = pull_back(rs, word, split)
            assert tuple(map(sum, zip(*cand))) == mu
            ok, _ = is_preadmissible(rs, mu, cand)
            assert ok


def test_admissibility_permutation_invariant():
    mu = (2, 1)
    for split in [((1, 1), (1, 0)), ((2, 0), (0, 1))]:
        for r in (1, 2):
            direct = is_r_admissible(C2, mu, split, r).admissible
            swapped = is_r_admissible(C2, mu, (split[1], split[0]), r).admissible
            assert direct == swapped


def test_find_1_admissible_c2():
    assert find_1_admissible(C2, (2, 1), 2) == ((2, 0), (0, 1))


def test_search_stops_past_the_candidate_budget(monkeypatch):
    """A2 (4, 2) in three parts: 28, 15 and 4 failed candidates come before
    its three 1-admissible ones, and 40 after them.  The budget counts
    failed candidates in a row."""
    search = admissibility._admissible_candidates
    found = list(search(A2, (4, 2), 3))
    assert len(found) == 3 and found[0] == find_1_admissible(A2, (4, 2), 3)
    monkeypatch.setattr(admissibility, "_CANDIDATE_BUDGET", 40)
    assert list(search(A2, (4, 2), 3)) == found
    monkeypatch.setattr(admissibility, "_CANDIDATE_BUDGET", 39)
    rows = search(A2, (4, 2), 3)
    assert [next(rows) for _ in found] == found
    with pytest.raises(RuntimeError, match="candidate budget exceeded: 39 candidates"):
        next(rows)
    monkeypatch.setattr(admissibility, "_CANDIDATE_BUDGET", 28)
    assert find_1_admissible(A2, (4, 2), 3) == found[0]
    monkeypatch.setattr(admissibility, "_CANDIDATE_BUDGET", 27)
    with pytest.raises(RuntimeError, match="candidate budget exceeded"):
        find_1_admissible(A2, (4, 2), 3)


def test_balanced_split_a3_boxes():
    rs = root_system("A", 3)
    assert balanced_split(rs, (5, 4, 7), 2) == ((3, 2, 3), (2, 2, 4))


def test_balanced_split_c2():
    assert balanced_split(C2, (2, 1), 2) == ((1, 1), (1, 0))


def test_balanced_split_nondominant_sum_and_admissible():
    split = balanced_split(A2, (1, -2), 2)
    assert tuple(map(sum, zip(*split))) == (1, -2)
    assert is_r_admissible(A2, (1, -2), split, 1).admissible


def test_balanced_split_type_a_properties():
    """Parts pair within 1 of each other on every root, spread <= 1,
    and the split is 1-admissible."""
    for rank in (1, 2, 3):
        rs = root_system("A", rank)
        for lam in itertools.product(range(4), repeat=rank):
            for k in (1, 2, 3):
                split = balanced_split(rs, lam, k)
                for root in rs.positive_roots:
                    vals = [rs.pairing(p, root) for p in split]
                    assert max(vals) - min(vals) <= 1
                assert is_r_admissible(rs, lam, split, 1).admissible


def test_profile_bound_scan_bc():
    for family in ("B", "C"):
        rs = root_system(family, 2)
        report = profile_bound_scan(rs, 2, 2)
        assert report.t_bound <= 2
        assert report.missing_escapes == ()


def test_balanced_split_rejects_wrong_length():
    with pytest.raises(ValueError, match="coordinates"):
        balanced_split(A2, (1, 0, 0), 2)


def test_find_1_admissible_rejects_wrong_length():
    with pytest.raises(ValueError, match="coordinates"):
        find_1_admissible(A2, (1, -1, -5), 2)


@pytest.mark.parametrize("lam", [(1,), (1, 0, 0)])
def test_enumerate_dominant_splits_rejects_wrong_length(lam):
    with pytest.raises(ValueError, match="coordinates, rank is 2"):
        next(enumerate_dominant_splits(A2, lam, 2))


@pytest.mark.parametrize("mu,split", [((1,), ((1, 0), (0, 0))),
                                      ((1, 0), ((1, 0), (0,))),
                                      ((1, 0), ((1, 0, 0), (0, 0)))])
def test_split_rejects_wrong_lengths(mu, split):
    with pytest.raises(ValueError, match="coordinates, rank is 2"):
        is_r_admissible(A2, mu, split, 1)


@pytest.mark.parametrize("mu", [(1, -2), (-2, -1), (3, 0), (0, 0)])
def test_candidate_splits_pull_back_the_dominant_enumeration(mu):
    lam, word = finite_dominance(C2, mu)
    for k in (1, 2, 3):
        want = [pull_back(C2, word, s) for s in enumerate_dominant_splits(C2, lam, k)]
        got = list(candidate_splits(C2, mu, k))
        assert got == want
        assert all(tuple(map(sum, zip(*s))) == mu for s in got)
        assert all(is_preadmissible(C2, mu, s)[0] for s in got)
