"""Differential test of the one-pass admissibility tests against the earlier
implementation, kept verbatim in ``admissibility_reference``."""

import contextlib
import itertools
import random
import signal

import pytest

import admissibility_reference as ref
from demazure import admissibility as new
from demazure.rootdata import root_system
from demazure.weights import finite_dominance

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


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once ``seconds`` of wall time have
    passed, so a scan that stops advancing fails instead of stalling."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def dominant_split(rs, rng, mu, k):
    """A seeded split of mu into k parts, preadmissible: random cuts of each
    coordinate of the dominant conjugate, pulled back."""
    lam, word = finite_dominance(rs, mu)
    columns = []
    for c in lam:
        cuts = sorted(rng.randint(0, c) for _ in range(k - 1))
        columns.append([b - a for a, b in zip((0, *cuts), (*cuts, c))])
    return new.pull_back(rs, word, tuple(zip(*columns)))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                         ("B", 3), ("C", 2), ("C", 3), ("G", 2)])
def test_minimal_r_matches_reference_on_wide_grid(family, rank):
    """Coordinates in -15..15 and k <= 4 reach r well past r_max = 7, so the
    skips over failing runs of r are exercised at every d."""
    rs = root_system(family, rank)
    rng = random.Random(f"minimal-r-{family}{rank}")
    answers = set()
    with deadline(60):
        for _ in range(250):
            mu = tuple(rng.randint(-15, 15) for _ in range(rank))
            split = dominant_split(rs, rng, mu, rng.randint(1, 4))
            for r_max in (None, 1, 2, 3, 7):
                got = new.minimal_r(rs, mu, split, r_max)
                assert got == ref.minimal_r(rs, mu, split, r_max), (mu, split, r_max)
                answers.add(got)
    assert None in answers and max(a for a in answers if a is not None) > 7


N = 10 ** 12
LARGE_CASES = [
    # A1, sign '+': condition A alone, past r > W/(d*k), then to a block's end
    ((-10 ** 6,), ((-300000,), (-700000,)), 233334),
    ((-N,), ((-3 * N // 10,), (-7 * N // 10,)), 233333333334),
    ((-10 ** 100,), ((-3 * 10 ** 99,), (-7 * 10 ** 99,)), 7 * 10 ** 99 // 3 + 1),
    # A1, sign '-': B fails until 3r >= 2N, then A fails to the end of q = 1
    ((2 * N,), ((0,), (N,), (N,)), N),
    ((202,), ((0,), (101,), (101,)), 101),
]


@pytest.mark.parametrize("mu,split,want", LARGE_CASES)
def test_minimal_r_large_values_in_bounded_time(mu, split, want):
    rs = root_system("A", 1)
    with deadline(5):
        assert new.minimal_r(rs, mu, split) == want
        assert new.minimal_r(rs, mu, split, want) == want
        assert new.minimal_r(rs, mu, split, want - 1) is None
    if want < 1000:
        assert ref.minimal_r(rs, mu, split) == want


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("C", 3), ("G", 2)])
def test_split_enumeration_order_matches_eager_form(family, rank):
    rs = root_system(family, rank)
    for lam in itertools.product(range(4 if rank == 2 else 3), repeat=rank):
        for k in range(1, 5):
            assert list(new.enumerate_dominant_splits(rs, lam, k)) == \
                list(ref.enumerate_dominant_splits(rs, lam, k)), (lam, k)


@pytest.mark.parametrize("lam,k,first", [
    ((10 ** 6,), 3, ((10 ** 6,), (0,), (0,))),
    ((1,), 3000, ((1,),) + ((0,),) * 2999),
])
def test_first_split_comes_back_at_once(lam, k, first):
    """The eager form builds 5 * 10**11 compositions for the first case and
    recurses 3,000 deep for the second."""
    rs = root_system("A", 1)
    with deadline(2):
        splits = new.enumerate_dominant_splits(rs, lam, k)
        assert next(splits) == first
        assert next(splits) == ((lam[0] - 1,), (1,)) + ((0,),) * (k - 2)
