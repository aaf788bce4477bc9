import functools
import itertools

import pytest

from demazure import relations
from demazure.relations import (IsoClass, PFunction, Relation, classify_xi,
                                convexity_report, demazure_p, expand_x_element,
                                generalized_weyl_p, is_partition, mmmr_classify,
                                relations_M, relations_Mpp, relations_Mprime,
                                s_sets, simplified_demazure_relations, sm_pair,
                                weyl_p, xi_tuple)
from demazure.rootdata import Root, root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)


# -- p functions ------------------------------------------------------------

@pytest.mark.parametrize("make", [demazure_p, simplified_demazure_relations],
                         ids=["demazure_p", "simplified_demazure_relations"])
@pytest.mark.parametrize("k", (0, 1.5, 2.0, True))
def test_level_k_must_be_an_int(make, k):
    """demazure_p at k = 1.5 once raised TypeError from range, and
    simplified_demazure_relations at k = 2.0 gave float factors."""
    with pytest.raises(ValueError, match="k must be an int >= 1, not %r" % (k,)):
        make(A1, (-3,), k)


def test_demazure_p_a1_example():
    fam = demazure_p(A1, (-5,), 2)
    p = fam.pfunction(Root((1,)), "+")
    assert p.values == (5, 3, 1, 0)
    assert p.cutoff == 3
    assert fam.pfunction(Root((1,)), "-").values == (0,)


def test_demazure_p_a2_example():
    fam = demazure_p(A2, (1, -2), 2)
    p = fam.pfunction(Root((0, 1)), "+")
    assert p.values == (2, 0) and p.cutoff == 1


def test_demazure_p_zero_pairing():
    fam = demazure_p(C2, (0, 1), 2)
    a1 = Root((1, 0))
    assert fam.pfunction(a1, "+").cutoff == 0
    assert fam.pfunction(a1, "-").cutoff == 0
    assert (a1, "+") in dict.fromkeys(fam.applicable_pairs())
    assert (a1, "-") in dict.fromkeys(fam.applicable_pairs())


def test_weyl_p():
    fam = weyl_p(A2, (-2, -1))
    theta = Root((1, 1))
    assert fam.pfunction(theta, "+").values == (3, 2, 1, 0)
    assert fam.pfunction(theta, "-").values == (0,)
    with pytest.raises(ValueError):
        weyl_p(A2, (1, -1))


def test_generalized_weyl_boundary():
    fam = generalized_weyl_p(A2, (1, -2))
    a1, a2 = Root((1, 0)), Root((0, 1))
    # boundary values pin p^-(1) = max{0, mu(h)} and p^+(0) = max{0, -mu(h)}
    assert fam.pfunction(a1, "-")(1) == 1
    assert fam.pfunction(a1, "-")(0) == 1  # the standard extension
    assert fam.pfunction(a2, "+")(0) == 2
    assert fam.pfunction(a2, "+").values == (2, 1, 0)


def test_pfunction_rejects_negative_argument():
    with pytest.raises(ValueError):
        PFunction((1, 0), 1)(-1)


# -- xi, convexity, classification -------------------------------------------

def test_xi_examples():
    fam = demazure_p(A1, (-5,), 2)
    xi = xi_tuple(fam.pfunction(Root((1,)), "+"))
    assert xi == (2, 2, 1)
    assert is_partition(xi)
    assert classify_xi(xi) is IsoClass.FIRST
    assert classify_xi((2,)) is IsoClass.BOTH
    assert classify_xi(()) is IsoClass.BOTH
    assert classify_xi((3, 1, 1)) is IsoClass.SECOND
    assert classify_xi((2, 2, 1, 1)) is IsoClass.NEITHER


def test_xi_sum_and_last_entry():
    for mu, k in [((-5,), 2), ((-7,), 3), ((-1,), 1)]:
        fam = demazure_p(A1, mu, k)
        p = fam.pfunction(Root((1,)), "+")
        xi = xi_tuple(p)
        assert sum(xi) == p(0)
        if xi:
            assert xi[-1] >= 1


def _graded_family_single(x, d_root, k):
    """demazure_p on a rank-2 system arranged so one root has the wanted d."""
    rs, root, mu = {
        1: (A1, Root((1,)), (-x,)),
        2: (C2, Root((1, 0)), (-x, 0)),
        3: (G2, Root((1, 0)), (-x, 0)),
    }[d_root]
    return demazure_p(rs, mu, k), root


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_convexity_exhaustive(d, k):
    """No convexity violations, equality exactly in the stated cases,
    and the xi tuple is always a partition, for |pairing| <= 12."""
    for x in range(-12, 13):
        fam, root = _graded_family_single(x, d, k)
        report = convexity_report(fam)
        assert report.ok, (d, k, x, report.violations, report.equality_mismatches)
        for sign in "+-":
            assert is_partition(xi_tuple(fam.pfunction(root, sign)))


def test_convexity_rejects_other_families():
    with pytest.raises(ValueError):
        convexity_report(weyl_p(A2, (-1, -1)))


def test_classify_never_neither_on_graded():
    for x in range(13):
        for d in (1, 2, 3):
            for k in (1, 2, 3, 4):
                fam, _ = _graded_family_single(x, d, k)
                assert all(v is not IsoClass.NEITHER
                           for v in mmmr_classify(fam).values())


# -- minimal tuples ----------------------------------------------------------

def _brute_minimal(target, nslots):
    cand = [a for a in itertools.product(range(target + 1), repeat=nslots)
            if sum((j + 1) * a[j] for j in range(nslots)) >= target]
    cand_set = set(cand)

    def dominated(a):
        for j in range(nslots):
            if a[j] > 0:
                b = a[:j] + (a[j] - 1,) + a[j + 1:]
                if b in cand_set:
                    return True
        return False

    return sorted(a for a in cand if not dominated(a))


def _as_factors(dense, lo=0):
    """Dense minimal tuples as the sparse factors _minimal_tuples yields,
    ((lo + j, a_j), ...) over the used slots from the top, in factor order."""
    return sorted(tuple((lo + j, a[j]) for j in reversed(range(len(a))) if a[j])
                  for a in dense)


def test_minimal_tuples_match_brute_force():
    from demazure.relations import _minimal_tuples
    for target in range(0, 11):
        for nslots in range(1, 6):
            assert list(_minimal_tuples(target, nslots)) == \
                _as_factors(_brute_minimal(target, nslots))


# The box walk that generated minimal tuples before the direct search, kept
# verbatim as the differential oracle; cached, because it is slow.
@functools.lru_cache(maxsize=None)
def _box_walk_minimal(target: int, nslots: int) -> list[tuple[int, ...]]:
    """Minimal a in Z_+^nslots with sum_j (j+1) a_j >= target (product order)."""
    if target <= 0:
        return [(0,) * nslots]
    cap = target + nslots - 1  # minimal elements weigh less than target + max weight
    out = []
    for a in itertools.product(*[range(cap // (j + 1) + 1) for j in range(nslots)]):
        total = sum((j + 1) * a[j] for j in range(nslots))
        if total < target:
            continue
        if all(total - (j + 1) < target for j in range(nslots) if a[j] > 0):
            out.append(a)
    return sorted(out)


@pytest.mark.parametrize("nslots", range(1, 9))
def test_minimal_tuples_match_box_walk(nslots):
    from demazure.relations import _minimal_tuples
    for target in range(0, 13):
        for lo in (0, 3):
            assert list(_minimal_tuples(target, nslots, lo=lo)) == \
                _as_factors(_box_walk_minimal(target, nslots), lo)


def _small_weights(rs):
    """Weights whose relation families have at most a few slots."""
    r = rs.rank
    mus = [(-1,) + (0,) * (r - 1), (0,) * (r - 1) + (-2,)]
    if r > 1:
        mus.append((1,) + (0,) * (r - 2) + (-1,))
    return mus


def _oracle_cases():
    cases = [(A1, (-x,), "demazure", 1) for x in range(1, 10)]
    cases.append((C2, (-6, 0), "demazure", 1))
    for family, rank in [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4),
                         ("E", 6), ("F", 4), ("G", 2)]:
        rs = root_system(family, rank)
        for mu in _small_weights(rs):
            cases += [(rs, mu, "demazure", 1), (rs, mu, "demazure", 2),
                      (rs, mu, "genweyl", None)]
            if all(c <= 0 for c in mu):
                cases.append((rs, mu, "weyl", None))
    return cases


@pytest.mark.parametrize(
    "rs,mu,preset,k", _oracle_cases(),
    ids=lambda v: v.family + str(v.rank) if hasattr(v, "family") else str(v))
def test_relation_sets_match_box_walk(monkeypatch, rs, mu, preset, k):
    fam = {"demazure": lambda: demazure_p(rs, mu, k), "weyl": lambda: weyl_p(rs, mu),
           "genweyl": lambda: generalized_weyl_p(rs, mu)}[preset]()
    got = relations_M(fam), relations_Mprime(fam)
    monkeypatch.setattr(relations, "_minimal_tuples",
                        lambda target, nslots, budget=None, lo=0:
                        _as_factors(_box_walk_minimal(target, nslots), lo))
    assert got == (relations_M(fam), relations_Mprime(fam))


def test_relations_m_budget():
    assert len(relations_M(demazure_p(A1, (-30,), 1))) == 42677
    with pytest.raises(RuntimeError, match="tuple budget exceeded"):
        relations_M(demazure_p(A1, (-60,), 1))
    # (10, 10) has 76 minimal tuples; one call stops at its own budget
    from demazure.relations import _minimal_tuples
    assert len(list(_minimal_tuples(10, 10, budget=76))) == 76
    with pytest.raises(RuntimeError, match="tuple budget exceeded"):
        list(_minimal_tuples(10, 10, budget=75))


def test_relations_m_a1_example():
    fam = demazure_p(A1, (-5,), 2)
    rels = [r for r in relations_M(fam) if r.index == 2]
    assert {r.factors for r in rels} == {((2, 2),), ((3, 1),)}


def test_tuple_degrees_strictly_decreasing():
    fam = demazure_p(C2, (-2, -3), 2)
    for rel in relations_M(fam):
        degs = [d for d, _ in rel.factors]
        assert degs == sorted(degs, reverse=True)
        lo = rel.index
        assert all(lo <= d for d in degs)


def test_mprime_subset_of_m():
    for mu, k in [((-5,), 2), ((-4,), 1), ((-7,), 3)]:
        fam = demazure_p(A1, mu, k)
        m = {(r.root, r.sign, r.index, r.factors) for r in relations_M(fam)}
        mp = {(r.root, r.sign, r.index, r.factors) for r in relations_Mprime(fam)}
        assert mp <= m


def test_mprime_always_keeps_top_annihilator():
    # 0 = xi_{s+1} < xi_s >= 1, so (x (x) t^s) v = 0 survives the filter
    for mu, k in [((-5,), 2), ((-6,), 2), ((-3,), 3)]:
        fam = demazure_p(A1, mu, k)
        p = fam.pfunction(Root((1,)), "+")
        tops = [r for r in relations_Mprime(fam)
                if r.index == p.cutoff and r.factors == ((p.cutoff, 1),)]
        assert len(tops) == 1


def test_mpp_monomials_and_parts():
    fam = demazure_p(A1, (-5,), 2)
    rels = relations_Mpp(fam)
    root = Root((1,))
    monos = {r.factors[0] for r in rels if r.kind == "monomial" and r.sign == "+"}
    assert monos == {(0, 6), (1, 4), (2, 2), (3, 1)}
    cart = [r for r in rels if r.kind == "cartan"]
    assert [(r.sign, r.factors) for r in cart] == [("-", ((1, 1),))]


def test_mpp_monomials_are_minimal_m_tuples():
    for mu, k in [((-5,), 2), ((-4,), 3)]:
        fam = demazure_p(A1, mu, k)
        m = {(r.root, r.sign, r.index, r.factors) for r in relations_M(fam)}
        for rel in relations_Mpp(fam):
            if rel.kind == "monomial" and rel.index and rel.index >= 1:
                assert (rel.root, rel.sign, rel.index, rel.factors) in m


def test_relation_validation():
    with pytest.raises(ValueError):
        Relation(Root((1,)), "+", ((1, 1), (2, 1)), "tuple")
    with pytest.raises(ValueError):
        Relation(Root((1,)), "+", ((1, 0),), "monomial")


# -- divided-power supports ---------------------------------------------------

def _partitions_at_most(parts, total):
    """Number of partitions of total into at most `parts` parts."""
    if total == 0:
        return 1
    count = 0

    def rec(remaining, max_part, slots):
        nonlocal count
        if remaining == 0:
            count += 1
            return
        if slots == 0:
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, slots - 1)

    rec(total, total, parts)
    return count


def test_s_sets_counts():
    for r in range(13):
        for s in range(13):
            assert len(s_sets(r, s)) == _partitions_at_most(r, s)


def test_s_sets_windows():
    assert s_sets(2, 3, upper=2) == ()  # cannot reach weight 3 with p <= 1 and 2 parts
    assert s_sets(2, 3, upper=3) == (((1, 1), (2, 1)),)
    assert s_sets(2, 4, lower=2) == (((2, 2),),)
    assert s_sets(0, 0) == ((),)
    assert s_sets(0, 1) == ()
    for vec in s_sets(3, 7, lower=1):
        assert all(p >= 1 for p, _ in vec)


def test_expand_x_special_cases():
    # x(1, s) is the single factor x (x) t^s
    for s in range(5):
        assert expand_x_element("plain", 1, s) == ((((s, 1),), ((s, 1),)),)
        assert expand_x_element("t_shifted", 1, s) == ((((s, 1),), ((s + 1, 1),)),)
    # from-k at full weight collapses to the divided power (x (x) t^k)^(r)
    for r, k in [(2, 1), (3, 2), (4, 3)]:
        assert expand_x_element("from_k", r, k * r, k) == ((((k, r),), ((k, r),)),)


def test_expand_x_validation():
    with pytest.raises(ValueError):
        expand_x_element("bogus", 1, 1)
    with pytest.raises(ValueError):
        expand_x_element("from_k", 1, 1)


# -- sm decomposition and the short presentation ------------------------------

def test_sm_pair():
    assert sm_pair(5, 2) == (3, 1)
    assert sm_pair(4, 2) == (2, 2)
    assert sm_pair(0, 3) == (0, 3)
    assert sm_pair(1, 6) == (1, 1)
    with pytest.raises(ValueError):
        sm_pair(-1, 2)


def test_sm_recombination():
    """x = (s-1)L + m splits consistently: dropping j from x moves the
    stage down by q-1 or q according to the remainder overflow."""
    for L in range(1, 7):
        for x in range(0, 31):
            s, m = sm_pair(x, L)
            for j in range(0, x + 1):
                s1, m1 = sm_pair(x - j, L)
                if j == 0:
                    q, m2 = 0, L
                else:
                    q, m2 = sm_pair(j, L)
                if m1 + m2 <= L:
                    assert (s, m) == (s1 + q - 1, m1 + m2)
                else:
                    assert (s, m) == (s1 + q, m1 + m2 - L)


def test_simplified_relations_a1():
    # x = 5, step = 2: power (x+ (x) t^2)^2 and annihilator (x+ (x) t^3)
    rels = simplified_demazure_relations(A1, (-5,), 2)
    plus = [r for r in rels if r.sign == "+" and "simplified" in r.tags]
    assert {r.factors for r in plus} == {((2, 2),), ((3, 1),)}


def test_simplified_relations_a2_alpha2():
    rels = simplified_demazure_relations(A2, (1, -2), 2)
    a2 = Root((0, 1))
    mine = [r for r in rels if r.root == a2]
    simp = [r for r in mine if "simplified" in r.tags]
    # m = 2 = step, so no power relation; only the degree-1 annihilator
    assert [r.factors for r in simp] == [((1, 1),)]
    boundary = [r for r in mine if "mathieu" in r.tags]
    assert {(r.sign, r.factors, r.kind) for r in boundary} == {
        ("-", ((1, 1),), "cartan"),
        ("+", ((0, 3),), "monomial"),
    }


def test_simplified_relations_a2_alpha1():
    rels = simplified_demazure_relations(A2, (1, -2), 2)
    a1 = Root((1, 0))
    mathieu = [r for r in rels if r.root == a1 and "mathieu" in r.tags]
    # mu(h) = 1 <= step: (x^- (x) t) v = 0 and x^+ (x) C[t] annihilates
    assert {(r.sign, r.factors, r.kind) for r in mathieu} == {
        ("-", ((1, 1),), "monomial"),
        ("+", ((0, 1),), "cartan"),
    }


def test_simplified_relations_never_degree_zero_minus():
    """Lowering generators act from t-degree 1 up; degree-0 minus powers
    must never be emitted."""
    import random
    rng = random.Random(4)
    for _ in range(60):
        rs = [A1, A2, C2, G2][rng.randrange(4)]
        mu = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
        for rel in simplified_demazure_relations(rs, mu, rng.randint(1, 3)):
            if rel.sign == "-":
                assert all(d >= 1 for d, _ in rel.factors)


def test_simplified_redundancy_tags_k1():
    rels = simplified_demazure_relations(G2, (-1, -1), 1)
    short = Root((1, 0))  # d = 3, x = 1 -> m = 1: power stays essential
    long_ = Root((0, 1))  # d = 1: both tagged redundant
    for r in rels:
        if "simplified" not in r.tags:
            continue
        if r.root == short and r.factors[0][1] > 1:
            assert "redundant-k1" not in r.tags
        if r.root == long_:
            assert "redundant-k1" in r.tags


def test_boundary_exponent_matches_p():
    """The degree-(s-1) power exponent is p(s-1) + 1."""
    for mu, k in [((-5,), 2), ((-7,), 3)]:
        fam = demazure_p(A1, mu, k)
        p = fam.pfunction(Root((1,)), "+")
        s = p.cutoff
        rels = simplified_demazure_relations(A1, mu, k)
        powers = [r for r in rels if "simplified" in r.tags
                  and r.factors[0][0] == s - 1]
        if p(s - 1) != k:  # m < step
            assert powers and powers[0].factors[0][1] == p(s - 1) + 1


@pytest.mark.parametrize("build", [
    lambda mu: demazure_p(A2, mu, 1), lambda mu: weyl_p(A2, mu),
    lambda mu: generalized_weyl_p(A2, mu),
    lambda mu: simplified_demazure_relations(A2, mu, 1)])
@pytest.mark.parametrize("mu", [(-1,), (-1, 0, 0)])
def test_relation_builders_reject_wrong_length(build, mu):
    with pytest.raises(ValueError, match="coordinates, rank is 2"):
        build(mu)
