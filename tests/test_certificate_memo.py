"""The packed character memo and product behind ``embedding_certificate``: a
differential oracle against the factor loop that computes every character
afresh and multiplies by the earlier tuple loop (``tensor_reference``),
certificates far from zero and with failures, the memo's safety (fresh
objects, the term bound, budget errors), a guard that a repeated
certificate applies no operator, and the ``report=`` keyword."""

import copy
import pickle
import random
from collections import OrderedDict

import pytest

import tensor_reference
from demazure import acceptance, characters
from demazure.admissibility import (AdmissibilityReport, candidate_splits,
                                    is_r_admissible)
from demazure.characters import (GradedCharacter, demazure_character,
                                 embedding_certificate)
from demazure.rootdata import root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)
B2 = root_system("B", 2)


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


def test_report_is_reused_and_checked():
    mu, split = (2, 1), ((1, 1), (1, 0))
    report = is_r_admissible(C2, mu, split, 2)
    cert = embedding_certificate(C2, [2, 1], [[1, 1], [1, 0]], 2, report=report)
    assert cert.report is report
    assert cert == embedding_certificate(C2, mu, split, 2)
    for other in [((2, 1), ((1, 0), (1, 1)), 2), ((2, 1), split, 1),
                  ((1, 1), ((1, 1),), 2)]:
        with pytest.raises(ValueError, match="report is for another"):
            embedding_certificate(C2, *other, report=report)
    bad = AdmissibilityReport((2, 1), ((1, 1), (1, 1)), 2, True, (), ())
    with pytest.raises(ValueError, match="split sums to"):
        embedding_certificate(C2, mu, ((1, 1), (1, 1)), 2, report=bad)


def test_report_of_another_root_system_is_refused():
    """B2 finds the split 1-admissible and C2 does not: B2's report, read or
    not, copied or not, gives a C2 certificate no verdict."""
    mu, split = (2, 1), ((1, 1), (1, 0))
    theirs = is_r_admissible(B2, mu, split, 1)
    assert theirs.admissible and not is_r_admissible(C2, mu, split, 1).admissible
    for report in (theirs, copy.deepcopy(theirs), pickle.loads(pickle.dumps(theirs))):
        with pytest.raises(ValueError, match="report is for another root system"):
            embedding_certificate(C2, mu, split, 1, report=report)
        assert report.records and not embedding_certificate(B2, mu, split, 1, report=report).failures
        with pytest.raises(ValueError, match="report is for another root system"):
            embedding_certificate(C2, mu, split, 1, report=report)
    assert not embedding_certificate(C2, mu, split, 1, report=copy.copy(
        is_r_admissible(C2, mu, split, 1))).split_admissible


@pytest.mark.parametrize("r", (1.5, 2.0, True))
def test_r_must_be_an_int(r):
    """Also with a report at the int equal to r, which the mu, split and r
    comparison alone lets through."""
    mu, split = (2, 1), ((1, 1), (1, 0))
    for report in (None, is_r_admissible(C2, mu, split, int(r))) if r == int(r) else (None,):
        with pytest.raises(ValueError, match="r must be an int >= 1"):
            embedding_certificate(C2, mu, split, r, report=report)


def test_embedding_grid_checks_each_candidate_once(monkeypatch):
    calls = []
    original = characters.is_r_admissible

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(characters, "is_r_admissible", counted)
    name, ok, _ = acceptance.embedding_grid()
    assert name == "embedding-grid" and ok
    assert len(calls) == 2  # the two displayed cases, which pass no report
