import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demazure.admissibility import balanced_split, is_r_admissible
from demazure.characters import (GradedCharacter, demazure_character,
                                 demazure_operator, embedding_certificate,
                                 finite_character, g0_branch,
                                 parabolic_character)
from demazure.rootdata import root_system
from realizations import embed_root, embed_weight, inner, realization

A1 = root_system("A", 1)
A2 = root_system("A", 2)
B2 = root_system("B", 2)
C2 = root_system("C", 2)
G2 = root_system("G", 2)


def characters(rs):
    """One to six terms at level 2: coordinates in -4..4, grades 0..3 and
    multiplicities in -3..3 (a zero one is dropped)."""
    term = st.tuples(st.tuples(*[st.integers(-4, 4)] * rs.rank), st.just(2), st.integers(0, 3))
    return st.dictionaries(term, st.integers(-3, 3), min_size=1, max_size=6).map(GradedCharacter)


def test_character_container_basics():
    c = GradedCharacter({((1, 0), 2, 0): 1, ((0, 1), 2, 1): 0})
    assert ((0, 1), 2, 1) not in c.terms  # zeros dropped
    assert c.coefficient((1, 0), 2, 0) == 1
    assert c.dimension() == 1
    d = c + c
    assert d.coefficient((1, 0), 2, 0) == 2
    assert (d - c) == c
    assert c.scale(3).dimension() == 3


def test_subtraction_drops_cancelled_terms():
    a = GradedCharacter({((1, 0), 2, 0): 3, ((0, 1), 2, 1): -1, ((2, 0), 2, 1): 1})
    b = GradedCharacter({((0, 1), 2, 1): -1, ((1, 0), 2, 0): 1, ((0, 0), 2, 2): 4})
    assert list((a - b).terms.items()) == [(((1, 0), 2, 0), 2), (((2, 0), 2, 1), 1),
                                           (((0, 0), 2, 2), -4)]
    assert (a - a).terms == {} and (a - GradedCharacter()) == a
    assert (a - b) + b == a


def test_tensor_adds_all_slots():
    a = GradedCharacter.from_weight((1, 0), 1, 2)
    b = GradedCharacter.from_weight((0, -1), 3, 1)
    t = a.tensor(b)
    assert t.terms == {((1, -1), 4, 3): 1}


def test_tensor_rejects_different_lengths():
    with pytest.raises(ValueError):
        GradedCharacter.from_weight((1, 0), 1).tensor(GradedCharacter.from_weight((1,), 1))
    with pytest.raises(ValueError):
        GradedCharacter.from_weight((1,), 1).tensor(GradedCharacter.from_weight((1, 0), 1))


def test_tensor_rank_check_boundary():
    # ranks 2 and 3 raise in either order, also when only one term of a
    # factor has the other rank; an empty factor pairs with any rank
    rank2 = GradedCharacter({((1, 0), 1, 0): 1, ((0, 1), 1, 1): 2})
    rank3 = GradedCharacter({((1, 0, 0), 1, 0): 1, ((0, 0, 1), 2, 1): -1})
    mixed = GradedCharacter({((0, 0), 1, 0): 1, ((0, 0, 1), 1, 0): 1})
    for a, b in ((rank2, rank3), (rank3, rank2), (rank2, mixed), (mixed, rank2)):
        with pytest.raises(ValueError, match="different ranks"):
            a.tensor(b)
    assert rank2.tensor(GradedCharacter()) == GradedCharacter()
    assert GradedCharacter().tensor(rank3) == GradedCharacter()
    assert rank2.tensor(rank2).dimension() == 9
    assert rank3.tensor(rank3).terms[((2, 0, 0), 2, 0)] == 1


def test_operator_string_cases():
    # m >= 0 expands down the string
    c = demazure_operator(A2, 1, GradedCharacter.from_weight((2, 0), 1))
    assert sorted(c.terms) == [((-2, 2), 1, 0), ((0, 1), 1, 0), ((2, 0), 1, 0)]
    # m == -1 kills the term
    c = demazure_operator(A2, 1, GradedCharacter.from_weight((-1, 0), 1))
    assert c.terms == {}
    # m <= -2 contributes negatively on the interior of the string
    c = demazure_operator(A2, 1, GradedCharacter.from_weight((-3, 0), 1))
    assert c.terms == {((-1, -1), 1, 0): -1, ((1, -2), 1, 0): -1}
    with pytest.raises(ValueError):
        demazure_operator(A2, 3, GradedCharacter.from_weight((0, 0), 1))


@pytest.mark.parametrize("i", [True, False, 1.0, 0.0, -1, 3])
def test_operator_nodes_are_ints_in_0_to_rank(i):
    with pytest.raises(ValueError, match=r"node .* is not an affine node of 0\.\.2"):
        demazure_operator(A2, i, GradedCharacter.from_weight((1, 0), 1))


@pytest.mark.parametrize("mult", [1.5, "x"])
def test_operator_refuses_a_multiplicity_that_is_not_an_int(mult):
    char = GradedCharacter({((1, 0), 1, 0): mult})
    with pytest.raises(ValueError, match="multiplicity .* is not an int"):
        demazure_operator(A2, 1, char)
    with pytest.raises(ValueError, match="not an int"):
        char.tensor(GradedCharacter.from_weight((0, 0), 1))


def test_operator_node_zero_moves_grade():
    c = demazure_operator(A1, 0, GradedCharacter.from_weight((0,), 1, 1))
    assert c.terms == {((0,), 1, 1): 1, ((2,), 1, 0): 1}


@pytest.mark.parametrize("rs,i,fin", [(A1, 1, (1, 2)), (A1, 0, (1, 2)), (A2, 0, (3,)),
                                      (A2, 2, (3,)), (A2, 1, ())])
def test_operator_rejects_terms_of_the_wrong_rank(rs, i, fin):
    char = GradedCharacter({((0,) * rs.rank, 1, 0): 1, (fin, 1, 0): 1})
    with pytest.raises(ValueError, match="coordinates"):
        demazure_operator(rs, i, char)


@pytest.mark.parametrize("term", [((1, 0), 1.5, 0), ((1.0, 0), 1, 0), ((1, 0), 1, 0.0),
                                  ((1, "0"), 1, 0), ((1, 0), None, 0)])
def test_operator_rejects_terms_that_are_not_int(term):
    char = GradedCharacter({((0, 0), 1, 0): 1, term: 1})
    for i in range(3):
        with pytest.raises(ValueError, match="not an int") as err:
            demazure_operator(A2, i, char)
        assert repr(term) in str(err.value)


def test_a_bool_entry_is_refused():
    """A bool once passed as 0 or 1: the operator gave {((1, 0), 1, 0): 1,
    ((-1, 1), 1, 0): 1} and the tensor {((1, 0), 2, 0): 1}."""
    char = GradedCharacter({((True, 0), 1, 0): True})
    with pytest.raises(ValueError, match="not an int"):
        demazure_operator(A2, 1, char)
    with pytest.raises(ValueError, match="not an int"):
        char.tensor(GradedCharacter.from_weight((0, 0), 1))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("slot", ["coordinate", "level", "grade", "multiplicity"])
def test_each_entry_must_be_an_int(slot, bad):
    """One rule for the operator at every node 0..rank and for the tensor, on either side."""
    term = {"coordinate": ((1, bad), 1, 0), "level": ((1, 0), bad, 0),
            "grade": ((1, 0), 1, bad), "multiplicity": ((1, 0), 1, 0)}[slot]
    char = GradedCharacter({((0, 0), 1, 0): 1, term: bad if slot == "multiplicity" else 2})
    one = GradedCharacter.from_weight((0, 0), 1)
    calls = [lambda i=i: demazure_operator(A2, i, char) for i in range(A2.rank + 1)]
    for call in calls + [lambda: char.tensor(one), lambda: one.tensor(char)]:
        with pytest.raises(ValueError, match="has an entry that is not an int") as err:
            call()
        assert repr(term) in str(err.value)


def test_frozen_a1_character():
    c = demazure_character(A1, (2,), 1)
    assert c.terms == {((2,), 1, 0): 1, ((0,), 1, 1): 1}


def _q_binomial(n, j):
    """Coefficients of the Gaussian binomial [n, j]_q, lowest degree first,
    from [n, j] = [n-1, j-1] + q^j [n-1, j]."""
    if j < 0 or j > n:
        return []
    if j == 0 or j == n:
        return [1]
    low, high = _q_binomial(n - 1, j - 1), [0] * j + _q_binomial(n - 1, j)
    return [a + b for a, b in itertools.zip_longest(low, high, fillvalue=0)]


@pytest.mark.parametrize("n", range(1, 11))
def test_a1_local_weyl_graded_character(n):
    """D((-n,), 1) for sl2 is the local Weyl module W(n): weight n-2j carries
    [n, j]_q and no other weight occurs (Chari-Loktev)."""
    want = {((n - 2 * j,), 1, g): c for j in range(n + 1)
            for g, c in enumerate(_q_binomial(n, j)) if c}
    assert demazure_character(A1, (-n,), 1).terms == want


def test_frozen_a2_dim5_character():
    c = demazure_character(A2, (1, -2), 2)
    want = {(1, 1), (2, -1), (-1, 2), (0, 0), (1, -2)}
    assert c.dimension() == 5
    assert {fin for (fin, lvl, g) in c.terms} == want
    assert all(g == 0 and lvl == 2 for (_, lvl, g) in c.terms)
    assert all(mult == 1 for mult in c.terms.values())


def test_frozen_factor_characters_and_tensor():
    f1 = demazure_character(A2, (0, -1), 1)
    f2 = demazure_character(A2, (1, -1), 1)
    assert {fin for (fin, _, _) in f1.terms} == {(1, 0), (-1, 1), (0, -1)}
    assert {fin for (fin, _, _) in f2.terms} == {(0, 1), (1, -1)}
    t = f1.tensor(f2)
    assert t.dimension() == 6
    assert t.coefficient((0, 0), 2, 0) == 2


def test_level_zero_rejected():
    with pytest.raises(ValueError):
        demazure_character(A2, (1, 0), 0)


def test_level_true_rejected():
    """k = True once gave the level-1 character."""
    with pytest.raises(ValueError, match="level must be an int >= 1, not True"):
        demazure_character(A2, (1, 0), True)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([A1, A2, C2]), st.data())
def test_idempotence_on_random_characters(rs, data):
    c, i = data.draw(characters(rs)), data.draw(st.integers(0, rs.rank))
    once = demazure_operator(rs, i, c)
    assert demazure_operator(rs, i, once) == once


def _braid_holds(rs, i, j, m, c):
    """D_i D_j D_i ... c == D_j D_i D_j ... c, m operators on each side."""
    sides = []
    for word in ((i, j) * m, (j, i) * m):
        out = c
        for letter in reversed(word[:m]):
            out = demazure_operator(rs, letter, out)
        sides.append(out)
    return sides[0] == sides[1]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(A2, 3), (B2, 4), (C2, 4)]), st.data())
def test_braid_relations_rank_two(system, data):
    rs, m = system
    assert _braid_holds(rs, 1, 2, m, data.draw(characters(rs)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_braid_relation_g2(data):
    """(1,2,1,2,1,2) = (2,1,2,1,2,1)."""
    assert _braid_holds(G2, 1, 2, 6, data.draw(characters(G2)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2)), st.data())
def test_braid_relations_affine_node_a2(j, data):
    """(0,j,0) = (j,0,j) for j = 1, 2: in affine A2 node 0 joins both nodes."""
    assert _braid_holds(A2, 0, j, 3, data.draw(characters(A2)))


def test_word_independence_via_random_tie_breaks():
    rng = random.Random(13)
    for rs in (A1, A2, C2):
        for _ in range(20):
            mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            k = rng.randint(1, 3)
            base = demazure_character(rs, mu, k)
            again = demazure_character(rs, mu, k, pick=rng.choice)
            assert base == again


def test_positivity_and_normalization():
    rng = random.Random(14)
    for _ in range(40):
        rs = [A1, A2, C2][rng.randrange(3)]
        mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        k = rng.randint(1, 3)
        c = demazure_character(rs, mu, k)
        assert all(mult > 0 for mult in c.terms.values())
        assert all(g >= 0 and lvl == k for (_, lvl, g) in c.terms)
        assert c.coefficient(mu, k, 0) == 1


def test_parabolic_character_dims():
    assert finite_character(A1, (3,)).dimension() == 4
    assert finite_character(A2, (1, 0)).dimension() == 3
    assert finite_character(A2, (1, 1)).dimension() == 8
    assert finite_character(C2, (1, 0)).dimension() == 4
    assert finite_character(C2, (0, 1)).dimension() == 5
    assert finite_character(C2, (1, 1)).dimension() == 16
    assert finite_character(B2, (0, 1)).dimension() == 4  # spin
    # single node inside a bigger system
    c = parabolic_character(A2, (2, -1), (1,))
    assert c.dimension() == 3
    with pytest.raises(ValueError):
        parabolic_character(A2, (-1, 0), (1,))


def test_parabolic_character_is_weyl_symmetric():
    for lam in itertools.product(range(3), repeat=2):
        c = finite_character(C2, lam)
        for i in (1, 2):
            reflected = {(tuple(C2.reflect(i, fin)), lvl, g): m
                         for (fin, lvl, g), m in c.terms.items()}
            assert GradedCharacter(reflected) == c


def test_g0_branch_frozen_example():
    c = demazure_character(A2, (1, -2), 2)
    recs = g0_branch(A2, c, (2,))
    assert {(r.finite, r.multiplicity, r.dimension) for r in recs} == {
        ((1, 1), 1, 2), ((-1, 2), 1, 3)}
    # full-node branching fails here: the slice is not stable under node 1
    with pytest.raises(ValueError):
        g0_branch(A2, c, (1, 2))


def test_g0_branch_empty_nodes_gives_singletons():
    c = demazure_character(A2, (1, -2), 2)
    recs = g0_branch(A2, c, ())
    assert len(recs) == 5
    assert all(r.dimension == 1 and r.multiplicity == 1 for r in recs)


def test_g0_branch_antidominant_full_nodes():
    c = demazure_character(A1, (-2,), 1)
    recs = g0_branch(A1, c, (1,))
    assert {(r.finite, r.grade, r.dimension) for r in recs} == {
        ((2,), 0, 3), ((0,), 1, 1)}
    c = demazure_character(A2, (-1, -1), 1)
    recs = g0_branch(A2, c, (1, 2))
    assert {(r.finite, r.grade, r.dimension) for r in recs} == {
        ((1, 1), 0, 8), ((0, 0), 1, 1)}


def test_g0_branch_recovers_full_irreducible():
    rng = random.Random(15)
    for rs in (A2, C2):
        for _ in range(10):
            lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            c = finite_character(rs, lam)
            recs = g0_branch(rs, c, range(1, rs.rank + 1))
            assert len(recs) == 1
            assert recs[0].finite == lam and recs[0].multiplicity == 1
            assert recs[0].dimension == c.dimension()
            # branching to a single node partitions the dimension
            sub = g0_branch(rs, c, (1,))
            assert sum(r.multiplicity * r.dimension for r in sub) == c.dimension()


def test_embedding_certificate_frozen():
    cert = embedding_certificate(A2, (1, -2), ((0, -1), (1, -1)), 1)
    assert cert.certified and cert.split_admissible
    assert cert.verdict() == "Certified"
    assert cert.failures == ()
    assert cert.k == 2
    assert cert.lhs.dimension() == 5 and cert.rhs.dimension() == 6


def test_embedding_certificate_inadmissible_flag():
    cert = embedding_certificate(C2, (2, 1), ((1, 1), (1, 0)), 1)
    assert not cert.split_admissible
    cert2 = embedding_certificate(C2, (2, 1), ((1, 1), (1, 0)), 2)
    assert cert2.split_admissible and cert2.certified
    cert3 = embedding_certificate(C2, (2, 1), ((2, 0), (0, 1)), 1)
    assert cert3.split_admissible and cert3.certified


def test_embedding_certificate_keeps_report():
    for split, r in [(((1, 1), (1, 0)), 1), (((1, 1), (1, 0)), 2), (((2, 0), (0, 1)), 1)]:
        cert = embedding_certificate(C2, (2, 1), split, r)
        assert cert.report == is_r_admissible(C2, (2, 1), split, r)
        assert cert.split_admissible == cert.report.admissible


def test_embedding_certificate_balanced_grid():
    rng = random.Random(16)
    for _ in range(12):
        rs = [A1, A2, C2][rng.randrange(3)]
        mu = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        k = rng.randint(2, 3)
        r = rng.randint(1, 2)
        split = balanced_split(rs, mu, k)
        cert = embedding_certificate(rs, mu, split, r)
        if cert.split_admissible:
            assert cert.certified, (rs.family, mu, k, r, split, cert.failures)


def test_parabolic_character_rejects_wrong_length():
    for finite in [(1, 0, 0), (1,)]:
        with pytest.raises(ValueError, match="coordinates"):
            parabolic_character(A2, finite, (1,))


def test_finite_character_rejects_wrong_length():
    with pytest.raises(ValueError, match="coordinates"):
        finite_character(A2, (1, 0, 0))


@pytest.mark.parametrize("nodes", [(5,), (0,), (1, 3)])
def test_g0_branch_rejects_nodes_outside_rank(nodes):
    char = finite_character(A2, (1, 0))
    with pytest.raises(ValueError, match="not a finite node") as branch:
        g0_branch(A2, char, nodes)
    with pytest.raises(ValueError) as parabolic:
        parabolic_character(A2, (1, 0), nodes)
    assert str(branch.value) == str(parabolic.value)


@pytest.mark.parametrize("mu", [(1,), (1, 0, 0)])
def test_demazure_character_rejects_wrong_length(mu):
    with pytest.raises(ValueError, match="coordinates, rank is 2"):
        demazure_character(A2, mu, 1)
    with pytest.raises(ValueError, match="coordinates, rank is 2"):
        embedding_certificate(A2, mu, (mu,), 1)


# -- Weyl dimension formula, from the Euclidean realizations only -------------

WEYL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
              ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2),
              ("F", 4)]


def closure_positive_roots(real):
    """Simple-root coordinates of the positive roots: the simple roots closed
    under the simple reflections s_i(beta) = beta - <beta, alpha_i^vee> alpha_i,
    with the coroot pairing taken in the realization."""
    alpha = real["alpha"]
    n = len(alpha)
    found = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for beta in found:  # found grows while it is read
        vec = embed_root(real, beta)
        for i in range(n):
            c = 2 * inner(real, vec, alpha[i]) / inner(real, alpha[i], alpha[i])
            assert c.denominator == 1
            refl = tuple(b - int(c) * (j == i) for j, b in enumerate(beta))
            if min(refl) >= 0 and refl not in found:
                found.append(refl)
    return found


def weyl_dimension(real, roots, lam):
    """prod over the given positive roots of (lam + rho, alpha) / (rho, alpha),
    rho the sum of the fundamental weights."""
    rho = embed_weight(real, (1,) * len(lam))
    shifted = embed_weight(real, tuple(c + 1 for c in lam))
    dim = 1
    for coords in roots:
        a = embed_root(real, coords)
        dim *= inner(real, shifted, a) / inner(real, rho, a)
    assert dim.denominator == 1
    return int(dim)


@pytest.mark.parametrize("family,rank", WEYL_TYPES)
def test_finite_character_dimension_is_weyl_formula(family, rank):
    real = realization(family, rank)
    roots = closure_positive_roots(real)
    assert len(roots) == len(root_system(family, rank).positive_roots)
    rs = root_system(family, rank)
    weights = [lam for lam in itertools.product(range(3), repeat=rank) if sum(lam) <= 2]
    if family != "F":
        weights.append((1,) * rank)
    for lam in weights:
        assert finite_character(rs, lam).dimension() == weyl_dimension(real, roots, lam)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2),
                                         ("A", 3), ("B", 3), ("C", 3)])
def test_g0_branch_dimensions_are_levi_weyl_formula(family, rank):
    real = realization(family, rank)
    roots = closure_positive_roots(real)
    rs = root_system(family, rank)
    ends = (1,) + (0,) * (rank - 2) + (1,)
    # an anti-dominant extremal weight makes the graded module g-stable
    chars = [finite_character(rs, ends),
             demazure_character(rs, tuple(-c for c in ends), 1)]
    for size in range(rank + 1):
        for nodes in itertools.combinations(range(1, rank + 1), size):
            levi = [beta for beta in roots
                    if all(c == 0 or j + 1 in nodes for j, c in enumerate(beta))]
            for char in chars:
                records = g0_branch(rs, char, nodes)
                assert sum(rec.multiplicity * rec.dimension for rec in records) \
                    == char.dimension()
                for rec in records:
                    assert rec.dimension == weyl_dimension(real, levi, rec.finite)
