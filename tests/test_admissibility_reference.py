"""Differential test of the one-pass admissibility tests against the earlier
implementation, kept verbatim in ``admissibility_reference``."""

import random

import pytest

import admissibility_reference as ref
from demazure import admissibility as new
from demazure.rootdata import root_system

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
         ("G", 2), ("D", 4)]


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)


def random_splits(rs, rng, count):
    """Seeded splits with parts of coordinates in -3..3 (mostly not
    preadmissible) and candidate and balanced splits (preadmissible)."""
    for _ in range(count):
        k = rng.randint(1, 3)
        split = tuple(tuple(rng.randint(-3, 3) for _ in range(rs.rank))
                      for _ in range(k))
        yield tuple(map(sum, zip(*split))), split
        mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        cands = list(new.candidate_splits(rs, mu, k))
        yield mu, rng.choice(cands)
        yield mu, new.balanced_split(rs, mu, k)


@pytest.mark.parametrize("family,rank", TYPES)
def test_reports_match_reference(family, rank):
    rs = root_system(family, rank)
    rng = random.Random(f"{family}{rank}")
    seen_pre = set()
    for mu, split in random_splits(rs, rng, 100):
        pre = new.is_preadmissible(rs, mu, split)
        assert pre == ref.is_preadmissible(rs, mu, split)
        seen_pre.add(pre[0])
        for r in (1, 2):
            assert new.is_r_admissible(rs, mu, split, r) == \
                ref.is_r_admissible(rs, mu, split, r)
        for r_max in (None, 1, 2):
            assert new.minimal_r(rs, mu, split, r_max) == \
                ref.minimal_r(rs, mu, split, r_max)
        for root in rs.positive_roots:
            for sign in "+-":
                assert new.root_profile(rs, split, root, sign) == \
                    ref.root_profile(rs, split, root, sign)
    assert seen_pre == {True, False}


@pytest.mark.parametrize("family,rank", TYPES)
def test_find_1_admissible_matches_reference(family, rank):
    rs = root_system(family, rank)
    rng = random.Random(f"find-{family}{rank}")
    for _ in range(15):
        mu = tuple(rng.randint(-2, 2) for _ in range(rank))
        k = rng.randint(1, 3)
        assert new.find_1_admissible(rs, mu, k) == ref.find_1_admissible(rs, mu, k)


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("B", 3), ("C", 3)])
def test_profile_bound_scan_matches_reference(family, rank):
    rs = root_system(family, rank)
    assert new.profile_bound_scan(rs, 3, 3) == ref.profile_bound_scan(rs, 3, 3)


BAD_INPUTS = [
    ((2, 1), ()),                       # no parts
    ((2, 1), ((1, 1), (1,))),           # short part
    ((2, 1), ((1, 1), (1, 0, 0))),      # long part
    ((2,), ((1, 1), (1, 0))),           # short mu
    ((2, 1, 0), ((1, 1), (1, 0))),      # long mu
    ((2, 2), ((1, 1), (1, 0))),         # parts sum to another weight
    (None, ((1, 1), (1, 0))),           # mu is not a sequence
    ((2, 1), ((1, 1), 1)),              # a part is not a sequence
]


@pytest.mark.parametrize("mu,split", BAD_INPUTS)
def test_wrong_inputs_raise_as_before(mu, split):
    rs = root_system("C", 2)
    assert outcome(new.is_preadmissible, rs, mu, split) == \
        outcome(ref.is_preadmissible, rs, mu, split)
    for r in (0, 1):
        assert outcome(new.is_r_admissible, rs, mu, split, r) == \
            outcome(ref.is_r_admissible, rs, mu, split, r)
    assert outcome(new.minimal_r, rs, mu, split) == outcome(ref.minimal_r, rs, mu, split)
    assert isinstance(outcome(new.is_r_admissible, rs, mu, split, 1), type)


def test_wrong_find_inputs_raise_as_before():
    rs = root_system("C", 2)
    for mu, k in [((1,), 2), ((1, 0, 0), 2), ((1, 1), 0), ((1, 1), -1)]:
        got = outcome(new.find_1_admissible, rs, mu, k)
        assert isinstance(got, type) and got == outcome(ref.find_1_admissible, rs, mu, k)
