"""Differential oracles for the string-walk ``demazure_operator`` and for
``g0_branch`` by Weyl's character formula, against the earlier code kept
verbatim in ``branch_reference.py``, plus sha256 pins of the records of five
larger modules taken from the earlier code."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import branch_reference as reference
from demazure.characters import (GradedCharacter, demazure_character,
                                 demazure_operator, finite_character, g0_branch)
from demazure.rootdata import root_system

PINNED = json.loads((Path(__file__).parent / "data" / "branch_records.json").read_text())

OPERATOR_TYPES = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3),
                  ("B", 3), ("C", 3), ("D", 4), ("F", 4)]
BRANCH_TYPES = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3),
                ("B", 3), ("C", 3), ("D", 4)]


def _string_class(rs, i, fin, lvl):
    m = lvl - rs.pairing(fin, rs.theta) if i == 0 else fin[i - 1]
    return "m>=0" if m >= 0 else "m=-1" if m == -1 else "m<=-2"


def _operator_characters(rs, i, rng, count=8):
    """Seeded characters whose terms pair with h_i to m >= 0, m = -1 and
    m <= -2, with mixed levels, grades and signed multiplicities."""
    out = []
    for _ in range(count):
        terms = {}
        for m in (rng.randint(0, 6), -1, -rng.randint(2, 7), rng.randint(-7, 6)):
            fin = [rng.randint(-4, 4) for _ in range(rs.rank)]
            lvl = rng.randint(1, 4)
            if i:
                fin[i - 1] = m
            else:
                lvl = m + rs.pairing(fin, rs.theta)
            terms[(tuple(fin), lvl, rng.randint(0, 3))] = rng.choice((-3, -2, -1, 1, 2, 3))
        out.append(GradedCharacter(terms))
    return out


@pytest.mark.parametrize("family,rank", OPERATOR_TYPES)
def test_operator_matches_reference(family, rank):
    rs = root_system(family, rank)
    rng = random.Random("operator %s%d" % (family, rank))
    for i in range(rank + 1):
        classes = set()
        chars = _operator_characters(rs, i, rng)
        chars.append(demazure_character(rs, (-1,) + (0,) * (rank - 1), 1))
        for char in chars:
            classes.update(_string_class(rs, i, fin, lvl) for fin, lvl, _ in char.terms)
            new, old = demazure_operator(rs, i, char), reference.demazure_operator(rs, i, char)
            # the same terms, inserted in the same order
            assert list(new.terms.items()) == list(old.terms.items())
        assert classes == {"m>=0", "m=-1", "m<=-2"}


def _branch(branch, rs, char, nodes):
    try:
        return branch(rs, char, nodes)
    except ValueError as exc:
        return "ValueError: %s" % exc


def _shift(char, grade):
    return GradedCharacter({(fin, lvl, g + grade): c for (fin, lvl, g), c in char.terms.items()})


def _branch_cases(rs, rng):
    """Seeded (character, nodes): Demazure characters, mixed-level sums of
    them, sums of finite irreducibles and signed perturbations, each under
    every node subset or under a random one (the empty subset included)."""
    n = rs.rank
    chars = []
    while len(chars) < 4:
        mu = tuple(rng.randint(-3, 0) if rng.random() < 0.85 else rng.randint(0, 1)
                   for _ in range(n))
        if n > 2 and sum(mu) < -2:
            continue
        char = demazure_character(rs, mu, rng.randint(1, 2))
        # at most 150 terms, so that the earlier branching stays quick
        if len(char.terms) <= 150:
            chars.append(char)
    # two levels in one grade slice
    mixed = [chars[0] + demazure_character(rs, (0,) * n, 3),
             chars[2] + _shift(chars[1], rng.randint(0, 1))]
    # a term removed, a weight added or a multiplicity doubled: slices that
    # are mostly not nonnegative combinations
    broken = []
    for char in chars[:3]:
        key = rng.choice(sorted(char.terms))
        fin = tuple(rng.randint(-2, 2) for _ in range(n))
        broken += [char - GradedCharacter({key: 1}),
                   char + GradedCharacter({(fin, key[1], key[2]): rng.choice((-1, 1))}),
                   char + GradedCharacter({key: char.terms[key]})]
    # two finite irreducibles, whose weights may lie in two cosets of the
    # root lattice: the first and the last fundamental weight, and a random pair
    ends = [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)]
    while len(ends) < 4:
        lam = tuple(rng.randint(0, 2) for _ in range(n))
        if n <= 2 or sum(lam) <= 2:
            ends.append(lam)
    cosets = [finite_character(rs, ends[0]) + finite_character(rs, ends[1]),
              finite_character(rs, ends[2]) + finite_character(rs, ends[3])]
    subsets = [nodes for size in range(n + 1)
               for nodes in itertools.combinations(range(1, n + 1), size)]
    cases = [(char, nodes) for char in chars[:2] + mixed[:1] + cosets for nodes in subsets]
    for char in chars[2:] + mixed[1:] + broken:
        cases.append((char, rng.choice(subsets)))
    # an irreducible less one term other than its highest weight never peels
    irrep = finite_character(rs, ends[0])
    cases.append((irrep - GradedCharacter({min(irrep.terms): 1}), subsets[-1]))
    return cases


@pytest.mark.parametrize("family,rank", BRANCH_TYPES)
def test_g0_branch_matches_reference(family, rank):
    rs = root_system(family, rank)
    rng = random.Random("branch %s%d" % (family, rank))
    results = []
    for char, nodes in _branch_cases(rs, rng):
        new = _branch(g0_branch, rs, char, nodes)
        # records and their order, or the same ValueError message
        assert new == _branch(reference.g0_branch, rs, char, nodes)
        results.append(new)
    assert any(isinstance(r, tuple) and len({rec.level for rec in r}) > 1 for r in results)
    assert any(isinstance(r, str) and "not a nonnegative" in r for r in results)
    assert any(r == () or isinstance(r, tuple) and all(rec.dimension == 1 for rec in r)
               for r in results)


def _digest(records):
    rows = [[list(r.finite), r.level, r.grade, r.multiplicity, r.dimension] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("entry", PINNED, ids=lambda e: "%s%d %s k=%d" % (
    e["type"], e["rank"], ",".join(map(str, e["mu"])), e["k"]))
def test_g0_branch_pinned_records(entry):
    rs = root_system(entry["type"], entry["rank"])
    char = demazure_character(rs, entry["mu"], entry["k"])
    records = g0_branch(rs, char, range(1, rs.rank + 1))
    assert len(records) == entry["records"]
    assert _digest(records) == entry["sha256"]
