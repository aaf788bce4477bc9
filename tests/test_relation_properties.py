"""Properties of the relation sets on bounded random presentations
(hypothesis), and the fail-fast tuple and value budgets under a memory cap."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demazure.relations import (Relation, demazure_p, generalized_weyl_p,
                                relations_M, relations_Mpp, relations_Mprime,
                                simplified_demazure_relations, weyl_p)
from demazure.rootdata import root_system
from capped_run import run_capped
from relations_reference import _relation_sort_key

SYSTEMS = [root_system(f, n) for f, n in (("A", 1), ("A", 2), ("B", 2), ("C", 2),
                                          ("G", 2), ("A", 3), ("B", 3))]


@st.composite
def presentations(draw):
    """(rs, mu, family, k): |mu(h_alpha)| <= 8, so no family has more than
    eight slots."""
    rs = draw(st.sampled_from(SYSTEMS))
    mu = tuple(draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank)))
    if max(map(abs, rs.pairings(mu))) > 8:  # keep the signs only
        mu = tuple((c > 0) - (c < 0) for c in mu)
    k = draw(st.integers(1, 3))
    preset = draw(st.sampled_from(("demazure", "weyl", "genweyl")))
    if preset == "weyl" and max(mu) <= 0:
        return rs, mu, weyl_p(rs, mu), k
    if preset == "genweyl":
        return rs, mu, generalized_weyl_p(rs, mu), k
    return rs, mu, demazure_p(rs, mu, k), k


def _sets(rs, mu, fam, k):
    return (relations_M(fam), relations_Mprime(fam), relations_Mpp(fam),
            simplified_demazure_relations(rs, mu, k))


PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(presentations())
def test_sets_sorted_and_rows_round_trip(case):
    for rels in _sets(*case):
        assert list(rels) == sorted(rels, key=_relation_sort_key)
        keys = [_relation_sort_key(r) for r in rels]
        assert len(set(keys)) == len(keys)
        for rel in rels:
            copy = Relation(rel.root, rel.sign, rel.factors, rel.kind, rel.index, rel.tags)
            assert copy == rel and hash(copy) == hash(rel) and repr(copy) == repr(rel)


def _monomial_keys(rels):
    return {(r.root, r.sign, r.index, r.factors) for r in rels}


@PROPERTY
@given(presentations())
def test_mprime_and_mpp_monomials_lie_in_m(case):
    m, mprime, mpp, _ = _sets(*case)
    fam = case[2]
    assert _monomial_keys(mprime) <= _monomial_keys(m)
    # M ranges over 1 <= i <= cutoff; the '-' boundary power sits at index 1
    # also when the cutoff is 0, and then has no M row to match
    assert _monomial_keys(
        r for r in mpp if r.kind == "monomial"
        and 1 <= r.index <= fam.pfunction(r.root, r.sign).cutoff) <= _monomial_keys(m)


def _relations_capped(*args):
    """`demazure relations --type A --rank 1 *args` in a subprocess under the
    512 MB address-space cap: (completed process, wall seconds)."""
    return run_capped("-m", "demazure", "relations", "--type", "A", "--rank", "1", *args,
                      timeout=120)


def test_m_budget_fails_fast_in_bounded_memory():
    """A single family with 10,000 slots: the sparse search reaches the tuple
    budget long before memory grows with the slot count.  Under the 512 MB
    address-space cap a dense search would end in MemoryError instead."""
    proc, seconds = _relations_capped("--mu=-10000", "--preset", "demazure", "--k", "1",
                                      "--set", "M")
    assert proc.returncode == 2, proc.stderr
    assert "tuple budget exceeded" in proc.stderr
    assert proc.stdout == ""
    assert seconds < 30


# Each family or set below would fill memory before it finished: a p family
# with 10^7 or 10^8 values, or 300,001 pure powers in one Mpp set.
BUDGET_RUNS = [
    ("--preset", "demazure", "--k", "1", "--mu=-100000000", "--set", "M"),
    ("--preset", "demazure", "--k", "1", "--mu=-100000000", "--set", "Mprime"),
    ("--preset", "demazure", "--k", "1", "--mu=-100000000", "--set", "Mpp"),
    ("--preset", "weyl", "--mu=-100000000", "--set", "M"),
    ("--preset", "demazure", "--k", "1", "--mu=-10000000", "--set", "Mprime"),
    ("--preset", "demazure", "--k", "1", "--mu=-300000", "--set", "Mpp"),
]


@pytest.mark.parametrize("args", BUDGET_RUNS, ids=lambda a: " ".join(a[1::2]))
def test_family_and_mpp_budgets_fail_fast_in_bounded_memory(args):
    """Under the 512 MB address-space cap each run exits 2 with a budget
    error, not 1 with a MemoryError traceback."""
    proc, seconds = _relations_capped(*args)
    assert proc.returncode == 2, proc.stderr
    assert "budget exceeded" in proc.stderr
    assert proc.stdout == ""
    assert seconds < 30
