"""Differential oracle for the relation sets: the rows that ``demazure.relations``
builds in key order against the earlier builders kept verbatim in
``relations_reference.py``, which sort each whole set on ``Root`` keys, and
the row-only p families against the earlier all-pairs tables.

Every set is compared row for row as (root coordinates, sign, factors,
kind, index, tags), so both the rows and their order must agree.  Each
family must give the table's p function on every (positive root, sign),
list the table's applicable pairs in key order, classify and report
convexity as the table does, and reject a pair that is not (positive
root, '+'/'-').  All of it runs on the weight universe of the
``relations-growth`` benchmark for every type and preset, on the box-walk
oracle cases, on A1 x = 1..30 and on every small weight of E6, E7 and E8."""

import itertools

import pytest

import relations_reference as reference
from demazure import relations
from demazure.rootdata import Root, root_system
from test_relations import _oracle_cases, _small_weights

SETS = ("relations_M", "relations_Mprime", "relations_Mpp")
# the types and presets (with the level the simplified set is given) of
# the relations-growth universe
GROWTH_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                ("D", 4), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
GROWTH_PRESETS = (("demazure", 1), ("demazure", 2), ("demazure", 3), ("weyl", 1),
                  ("genweyl", 2))


def _rows(rels):
    return [(r.root.coords, r.sign, r.factors, r.kind, r.index, r.tags) for r in rels]


def _family(module, rs, mu, preset, k):
    if preset == "demazure":
        return module.demazure_p(rs, mu, k)
    if preset == "weyl":
        return module.weyl_p(rs, mu)
    return module.generalized_weyl_p(rs, mu)


def _assert_same(rs, mu, preset, k):
    fam, table = _family(relations, rs, mu, preset, k), _family(reference, rs, mu, preset, k)
    for root in rs.positive_roots:
        for sign in "+-":
            assert fam.pfunction(root, sign) == table.pfunction(root, sign), (root, sign)
    assert list(fam.applicable_pairs()) == sorted(table.applicable_pairs())
    assert relations.mmmr_classify(fam) == reference.mmmr_classify(table)
    if preset == "demazure":
        assert relations.convexity_report(fam) == reference.convexity_report(table)
    theta = rs.positive_roots[-1]
    for root, sign in ((theta, "0"), (theta, None), (Root((0,) * rs.rank), "+"),
                       (Root(tuple(-c for c in theta.coords)), "-"), (theta.coords, "+")):
        with pytest.raises(KeyError):
            fam.pfunction(root, sign)
    for name in SETS:
        assert _rows(getattr(relations, name)(fam)) == \
            _rows(getattr(reference, name)(fam)), (rs, mu, preset, k, name)
    if k is not None:
        assert _rows(relations.simplified_demazure_relations(rs, mu, k)) == \
            _rows(reference.simplified_demazure_relations(rs, mu, k)), (rs, mu, k)


def _largest_pairing(rs, mu):
    """max |mu(h_alpha)|; a family of any preset has at most one slot more."""
    return max(map(abs, rs.pairings(mu)))


def _growth_weights(rs):
    """Weights with one or two coordinates +-1, as in the relations-growth
    universe, kept to those pairing at most 4 with every root."""
    for support in (1, 2):
        for nodes in itertools.combinations(range(rs.rank), support):
            for signs in itertools.product((-1, 1), repeat=support):
                mu = [0] * rs.rank
                for node, sign in zip(nodes, signs):
                    mu[node] = sign
                if _largest_pairing(rs, mu) <= 4:
                    yield tuple(mu)


@pytest.mark.parametrize("family,rank", GROWTH_TYPES, ids=lambda v: str(v))
@pytest.mark.parametrize("preset,k", GROWTH_PRESETS, ids=lambda v: str(v))
def test_growth_universe_matches_reference(family, rank, preset, k):
    rs = root_system(family, rank)
    mus = [mu for mu in _growth_weights(rs) if preset != "weyl" or max(mu) <= 0]
    assert mus
    for mu in mus[:12]:  # the E7 and E8 lists are long; these take a few seconds
        _assert_same(rs, mu, preset, k)


@pytest.mark.parametrize(
    "rs,mu,preset,k", _oracle_cases(),
    ids=lambda v: v.family + str(v.rank) if hasattr(v, "family") else str(v))
def test_oracle_cases_match_reference(rs, mu, preset, k):
    _assert_same(rs, mu, preset, k)


@pytest.mark.parametrize("x", range(1, 31))
def test_a1_matches_reference(x):
    a1 = root_system("A", 1)
    for k in (1, 2):
        _assert_same(a1, (-x,), "demazure", k)
    if x <= 12:  # the '-' families repeat the '+' rows with the sign flipped
        _assert_same(a1, (x,), "demazure", 1)


@pytest.mark.parametrize("rank", (6, 7, 8))
def test_e_small_weights_match_reference(rank):
    rs = root_system("E", rank)
    for mu in _small_weights(rs):
        for preset, k in (("demazure", 1), ("demazure", 2), ("demazure", 3),
                          ("weyl", None), ("genweyl", None)):
            if preset != "weyl" or max(mu) <= 0:
                _assert_same(rs, mu, preset, k)
