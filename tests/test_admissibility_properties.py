"""Property tests of the one-pass admissibility tests against the earlier
implementation kept in ``admissibility_reference``: random splits that are
mostly not preadmissible, and candidate, balanced and random dominant
splits pulled back, which are; parts as tuples and as lists, coordinates in
-3..3 and up to 10^12 in size."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import admissibility_reference as ref
from demazure import admissibility as new
from demazure.rootdata import root_system
from demazure.weights import finite_dominance

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2)]
BIG = 10**12


@st.composite
def cases(draw):
    """(rs, mu, split, small): small is False when a coordinate may be as
    large as 10^12, where the reference's minimal_r, which tries r one at a
    time up to the largest profile value, runs only under an r_max."""
    rs = root_system(*draw(st.sampled_from(TYPES)))
    small = draw(st.booleans())
    coord = st.integers(-3, 3) if small else st.integers(-BIG, BIG)
    k = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("random", "candidate", "balanced", "cuts")))
    if kind == "random":
        split = tuple(tuple(draw(coord) for _ in range(rs.rank)) for _ in range(k))
        return rs, tuple(map(sum, zip(*split))), split, small
    mu = tuple(draw(coord) for _ in range(rs.rank))
    if kind == "candidate":
        cands = list(itertools.islice(new.candidate_splits(rs, mu, k), 50))
        return rs, mu, draw(st.sampled_from(cands)), small
    if kind == "balanced":
        return rs, mu, new.balanced_split(rs, mu, k), small
    lam, word = finite_dominance(rs, mu)  # random cuts of each dominant coordinate
    columns = []
    for c in lam:
        cuts = sorted(draw(st.integers(0, c)) for _ in range(k - 1))
        columns.append([b - a for a, b in zip((0, *cuts), (*cuts, c))])
    return rs, mu, new.pull_back(rs, word, tuple(zip(*columns))), small


@settings(max_examples=300, deadline=None)
@given(cases(), st.booleans())
def test_one_pass_matches_reference(case, as_lists):
    rs, mu, split, small = case
    parts = [list(p) for p in split] if as_lists else split
    assert new.is_preadmissible(rs, mu, parts) == ref.is_preadmissible(rs, mu, split)
    for r in (1, 2, 3):
        got, want = new.is_r_admissible(rs, mu, parts, r), ref.is_r_admissible(rs, mu, split, r)
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
    for r_max in ((None, 1, 2) if small else (1, 2)):
        assert new.minimal_r(rs, mu, parts, r_max) == ref.minimal_r(rs, mu, split, r_max)


def test_reprs_match_reference():
    """One report with records and one with sign witnesses print as before."""
    rs = root_system("C", 2)
    for split in (((1, 1), (1, 0)), ((2, 2), (0, -1))):
        got, want = new.is_r_admissible(rs, (2, 1), split, 1), ref.is_r_admissible(rs, (2, 1), split, 1)
        assert repr(got) == repr(want)
        assert bool(got.records) != bool(got.sign_witnesses)


def test_part_memo_keeps_at_most_its_bound():
    """More distinct parts than the memo keeps: it never holds more, and a
    part it has dropped is paired again to the same report."""
    rs, memo = root_system("A", 1), new._part_pairings
    assert memo.cache_info().maxsize == new._PAIRINGS_BOUND
    for n in range(new._PAIRINGS_BOUND + 100):
        new.is_r_admissible(rs, (2 * n + 1,), ((n,), (n + 1,)), 1)
        assert memo.cache_info().currsize <= new._PAIRINGS_BOUND
    assert new.is_r_admissible(rs, (1,), [[0], [1]], 1) == ref.is_r_admissible(rs, (1,), ((0,), (1,)), 1)


def test_part_memo_keeps_floats_apart():
    """A part of floats equal to a part of ints reads its own pairings."""
    rs = root_system("A", 2)
    for split in (((1, 0), (0, 1)), ((1.0, 0), (0, 1.0)), ((1, 0), (0, 1))):
        got, want = new.is_r_admissible(rs, (1, 1), split, 1), ref.is_r_admissible(rs, (1, 1), split, 1)
        assert repr(got) == repr(want)
