"""The packed character memo and product behind ``embedding_certificate``: a
differential oracle against the factor loop that computes every character
afresh and multiplies by the earlier tuple loop (``tensor_reference``),
certificates far from zero and with failures, the memo's safety (fresh
objects, the term bound, budget errors), a guard that a repeated
certificate applies no operator, and a property that every certificate
carries the verdict of its own ``is_r_admissible`` call."""

import random
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tensor_reference
from demazure import acceptance, characters
from demazure.admissibility import candidate_splits, is_r_admissible
from demazure.characters import (GradedCharacter, demazure_character,
                                 embedding_certificate)
from demazure.rootdata import root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Every test starts from an empty memo and leaves the shared one alone."""
    monkeypatch.setattr(characters, "_memo", OrderedDict())
    monkeypatch.setattr(characters, "_memo_terms", 0)


def reference_certificate(rs, mu, split, r):
    """(lhs, rhs, failures) by the factor loop with no memo: every character
    from demazure_character, the product in split order by the tuple loop."""
    mu = tuple(mu)
    split = tuple(tuple(p) for p in split)
    k = len(split)
    lhs = demazure_character(rs, mu, r * k)
    rhs = None
    for part in split:
        factor = demazure_character(rs, part, r)
        rhs = factor if rhs is None else tensor_reference.tensor(rhs, factor)
    failures = []
    for (fin, lvl, grade), mult in lhs.sorted_terms():
        have = rhs.coefficient(fin, lvl, grade)
        if mult > have:
            failures.append((fin, grade, mult, have))
    extremal_ok = (lhs.coefficient(mu, r * k, 0) == 1
                   and rhs.coefficient(mu, r * k, 0) == 1)
    if not extremal_ok:
        failures.append((mu, 0, lhs.coefficient(mu, r * k, 0),
                         rhs.coefficient(mu, r * k, 0)))
    return lhs, rhs, tuple(failures)


def candidate_deck():
    """Every pulled-back dominant-split candidate over A2, C2 and G2 with
    |mu_i| <= 1, k <= 3 and r <= 2."""
    deck = []
    for rs in (A2, C2, G2):
        for mu in [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]:
            for k in (1, 2, 3):
                for split in candidate_splits(rs, mu, k):
                    deck.extend((rs, mu, split, r) for r in (1, 2))
    return deck


def assert_matches_reference(cert, rs, mu, split, r):
    lhs, rhs, failures = reference_certificate(rs, mu, split, r)
    assert list(cert.lhs.terms.items()) == list(lhs.terms.items())
    assert list(cert.rhs.terms.items()) == list(rhs.terms.items())
    assert cert.failures == failures
    assert cert.certified == (not failures)


def test_memo_matches_factor_loop_on_misses_and_hits():
    deck = candidate_deck()
    assert len(deck) > 200
    for seed in (1, 2):
        order = list(deck)
        random.Random(seed).shuffle(order)
        for rs, mu, split, r in order:
            cert = embedding_certificate(rs, mu, split, r)
            assert cert.report == is_r_admissible(rs, mu, split, r)
            assert_matches_reference(cert, rs, mu, split, r)


@pytest.mark.parametrize("mu,split,r", [
    ((10**12,), ((6 * 10**11,), (4 * 10**11,)), 10**12),
    ((-1000,), ((-600,), (-400,)), 1000),
])
def test_certificates_far_from_zero_match_factor_loop(mu, split, r):
    cert = embedding_certificate(A1, mu, split, r)
    assert cert.certified
    assert_matches_reference(cert, A1, mu, split, r)


def test_inadmissible_probe_with_failures_matches_factor_loop(monkeypatch):
    """Every certificate tried, inadmissible splits included, certifies, so
    this probe keeps only the grade-0 terms of each level-1 factor: then 15
    lhs terms of grades 1 and 2 fail, and the failures come sorted by grade,
    then weight, not in the lhs insertion order."""
    computed = characters.demazure_character

    def grade_zero_factors(rs, mu, k):
        char = computed(rs, mu, k)
        return char if k > 1 else GradedCharacter(
            {key: c for key, c in char.terms.items() if key[2] == 0})

    monkeypatch.setattr(characters, "demazure_character", grade_zero_factors)
    monkeypatch.setitem(globals(), "demazure_character", grade_zero_factors)
    mu, split = (-3, -1), ((-2, -2), (-1, 1))
    cert = embedding_certificate(A2, mu, split, 1)
    assert not cert.split_admissible and not cert.certified
    assert len(cert.failures) == 15 and {grade for _, grade, _, _ in cert.failures} == {1, 2}
    inserted = [(key[0], key[2]) for key, mult in cert.lhs.terms.items()
                if mult > cert.rhs.terms.get(key, 0)]
    assert inserted != [failure[:2] for failure in cert.failures]
    assert_matches_reference(cert, A2, mu, split, 1)


def test_mutating_a_certificate_leaves_the_next_unchanged():
    for mu, split in [((1, -2), ((1, -2),)), ((1, -2), ((0, -1), (1, -1)))]:
        for _ in range(3):
            cert = embedding_certificate(A2, mu, split, 1)
            assert_matches_reference(cert, A2, mu, split, 1)
            cert.lhs.terms.clear()
            cert.rhs.terms[((9, 9), 1, 0)] = 7
            for key in list(cert.rhs.terms)[:1]:
                cert.rhs.terms[key] += 5


def stored_terms():
    return sum(len(flat) // (rs.rank + 2) for (rs, _, _), flat in characters._memo.items())


def test_memo_stays_within_its_term_bound(monkeypatch):
    monkeypatch.setattr(characters, "_MEMO_TERMS", 60)
    deck = [item for item in candidate_deck() if item[0] is C2]
    for rs, mu, split, r in deck:
        cert = embedding_certificate(rs, mu, split, r)
        assert characters._memo_terms == stored_terms() <= 60
    distinct = {(mu, r * len(split)) for _, mu, split, r in deck}
    distinct |= {(part, r) for _, _, split, r in deck for part in split}
    assert len(characters._memo) < len(distinct)
    assert_matches_reference(cert, rs, mu, split, r)


def test_character_larger_than_the_bound_is_returned_not_kept(monkeypatch):
    mu, split = (-1, -1), ((-1, 0), (0, -1))
    lhs = demazure_character(G2, mu, 2)
    monkeypatch.setattr(characters, "_MEMO_TERMS", len(lhs.terms) - 1)
    computed = []

    def counted(rs, mu, k):
        computed.append((mu, k))
        return demazure_character(rs, mu, k)

    monkeypatch.setattr(characters, "demazure_character", counted)
    for _ in range(2):
        cert = embedding_certificate(G2, mu, split, 1)
        assert list(cert.lhs.terms.items()) == list(lhs.terms.items())
        assert [key[1:] for key in characters._memo] == [((-1, 0), 1), ((0, -1), 1)]
    # the second certificate computes only the character that is not kept
    assert computed == [(mu, 2), ((-1, 0), 1), ((0, -1), 1), (mu, 2)]
    assert_matches_reference(cert, G2, mu, split, 1)


def test_budget_error_is_not_kept(monkeypatch):
    monkeypatch.setattr(characters, "_TERM_BUDGET", 20)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="character budget exceeded"):
            embedding_certificate(G2, (-1, -1), ((-1, -1),), 2)
    assert not characters._memo


def test_repeated_certificate_applies_no_operator(monkeypatch):
    applied = []
    apply_word = characters._apply_word

    def counted(rs, word, char):
        applied.extend(word := tuple(word))
        return apply_word(rs, word, char)

    monkeypatch.setattr(characters, "_apply_word", counted)
    args = (A2, (1, -2), ((0, -1), (1, -1)), 1)
    first = embedding_certificate(*args)
    assert applied
    applied.clear()
    again = embedding_certificate(*args)
    assert applied == []
    assert again.lhs == first.lhs and again.rhs == first.rhs
    assert again.lhs is not first.lhs and again.rhs is not first.rhs


@pytest.mark.parametrize("r", (1.5, 2.0, True))
def test_r_must_be_an_int(r):
    with pytest.raises(ValueError, match="r must be an int >= 1"):
        embedding_certificate(C2, (2, 1), ((1, 1), (1, 0)), r)


@st.composite
def splits(draw):
    """(rs, mu, split, r) over A1 and A2 with parts in -2..2, k <= 3 and r <= 2:
    mostly not preadmissible, some admissible."""
    rs = draw(st.sampled_from((A1, A2)))
    part = st.tuples(*[st.integers(-2, 2)] * rs.rank)
    split = tuple(draw(st.lists(part, min_size=1, max_size=3)))
    return rs, tuple(map(sum, zip(*split))), split, draw(st.integers(1, 2))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(splits())
def test_certificate_reports_its_own_verdict(case):
    rs, mu, split, r = case
    cert, report = embedding_certificate(*case), is_r_admissible(*case)
    assert cert.report == report and cert.split_admissible == report.admissible
    assert_matches_reference(cert, rs, mu, split, r)


def test_embedding_grid_checks_each_candidate_once(monkeypatch):
    calls = []
    original = characters.is_r_admissible

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(characters, "is_r_admissible", counted)
    name, ok, detail = acceptance.embedding_grid()
    assert name == "embedding-grid" and ok
    # one per certificate: each admissible candidate and the two displayed cases
    assert len(calls) == int(detail.split()[0]) + 2 > 2
