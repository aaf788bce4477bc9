"""Differential oracles for the closed forms of the character, admissibility
and relation layers: parabolic characters along one walk's word, the
character term budget, the plain ``RootProfile`` properties and the graded
p-values."""

import itertools
import random
import tracemalloc

import pytest

import walk_reference as reference
from demazure import characters as ch
from demazure.admissibility import RootProfile
from demazure.characters import (GradedCharacter, demazure_character,
                                 demazure_operator, finite_character, g0_branch,
                                 parabolic_character)
from demazure.relations import _ZERO, PFunction, _graded_values
from demazure.rootdata import RootSystem, root_system


# -- the fixed-point parabolic character, verbatim from before the walk --------

def fixed_point_parabolic_character(rs: RootSystem, finite, nodes, *, level=0, grade=0) -> GradedCharacter:
    """Character of the irreducible module with highest weight ``finite``
    for the sub-root-system generated by ``nodes``.

    Iterates the Demazure operators on the nodes to a fixed point, which for
    a weight dominant on the nodes is the full character of the parabolic
    irreducible.
    """
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    finite = rs.check_weight(finite)
    if any(finite[i - 1] < 0 for i in nodes):
        raise ValueError("weight %r not dominant on nodes %r" % (finite, nodes))
    char = GradedCharacter.from_weight(finite, level, grade)
    for _ in range(10 ** 4):
        prev = char.terms
        for i in nodes:
            char = demazure_operator(rs, i, char)
        if char.terms == prev:
            return char
    raise RuntimeError("parabolic character failed to stabilize")


GRID_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
              ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5),
              ("E", 6), ("F", 4), ("G", 2)]


def _grid_cases(family, rank, count=40):
    """Seeded (finite, nodes): every node subset is possible, the off-node
    coordinates lie in -3..3, and the node coordinates in 0..2 sum to at
    most 4 (at most 2 from rank 4 on, so the irreducibles stay small)."""
    rng = random.Random("%s%d" % (family, rank))
    most = 4 if rank <= 3 else 2
    cases = [((2,) * rank, ()), ((1,) + (0,) * (rank - 1), range(1, rank + 1))]
    while len(cases) < count:
        nodes = tuple(i for i in range(1, rank + 1) if rng.random() < 0.5)
        finite = tuple(rng.randint(0, 2) if i in nodes else rng.randint(-3, 3)
                       for i in range(1, rank + 1))
        if sum(finite[i - 1] for i in nodes) <= most:
            cases.append((finite, nodes))
    return cases


@pytest.mark.parametrize("family,rank", GRID_TYPES)
def test_parabolic_character_matches_fixed_point(family, rank):
    rs = root_system(family, rank)
    for finite, nodes in _grid_cases(family, rank):
        want = fixed_point_parabolic_character(rs, finite, nodes, level=2, grade=1)
        assert parabolic_character(rs, finite, nodes, level=2, grade=1) == want


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2),
                                         ("A", 3), ("B", 3), ("C", 3)])
def test_g0_branch_matches_fixed_point(monkeypatch, family, rank):
    rs = root_system(family, rank)
    rng = random.Random(7 * rank + ord(family))
    # anti-dominant, so every slice is a sum of Levi irreducibles; rank 3
    # stays at level 1 with coordinate sum -2..0 to keep the branching quick
    low, k = (2, 2) if rank == 2 else (1, 1)
    weights = set()
    while len(weights) < 3:
        mu = tuple(-rng.randint(0, low) for _ in range(rank))
        if rank == 2 or sum(mu) >= -2:
            weights.add(mu)
    chars = [demazure_character(rs, mu, rng.randint(1, k)) for mu in sorted(weights)]
    node_sets = [nodes for size in range(rank + 1)
                 for nodes in itertools.combinations(range(1, rank + 1), size)]
    new = [g0_branch(rs, char, nodes) for char in chars for nodes in node_sets]
    monkeypatch.setattr(ch, "parabolic_character", fixed_point_parabolic_character)
    old = [g0_branch(rs, char, nodes) for char in chars for nodes in node_sets]
    assert new == old


# -- the character term budget -------------------------------------------------

def _terms_out(monkeypatch, compute):
    """Output terms summed over the operator applications of compute(),
    counted letter by letter with the reference operator at the kernel's seam."""
    seen, apply_word = [], ch._apply_word

    def counting(rs, word, char):
        for i in word:
            char = reference.demazure_operator(rs, i, char)
            seen.append(len(char.terms))
        return ch._pack(char.terms)

    monkeypatch.setattr(ch, "_apply_word", counting)
    compute()
    monkeypatch.setattr(ch, "_apply_word", apply_word)
    return sum(seen)


@pytest.mark.parametrize("compute", [
    lambda: demazure_character(root_system("A", 2), (-2, -1), 1),
    lambda: finite_character(root_system("C", 3), (1, 0, 1)),
    lambda: parabolic_character(root_system("B", 3), (2, -1, 1), (1, 3), level=1),
], ids=["demazure", "finite", "parabolic"])
def test_term_budget_boundary(monkeypatch, compute):
    total = _terms_out(monkeypatch, compute)
    assert total > 0
    monkeypatch.setattr(ch, "_TERM_BUDGET", total)
    compute()
    monkeypatch.setattr(ch, "_TERM_BUDGET", total - 1)
    with pytest.raises(RuntimeError, match="character budget exceeded"):
        compute()


@pytest.mark.parametrize("terms,emitted", [({((5,), 5, 0): 1}, 6),
                                           ({((-7,), 1, 0): 1}, 6),
                                           ({((3,), 1, 0): 2, ((-4,), 1, 1): -1}, 7)])
def test_operator_budget_boundary(monkeypatch, terms, emitted):
    # D_1 emits m + 1 terms for a term of pairing m >= 0 and -m - 1 for m <= -2
    rs, char = root_system("A", 1), GradedCharacter(terms)
    monkeypatch.setattr(ch, "_TERM_BUDGET", emitted)
    assert len(demazure_operator(rs, 1, char).terms) == emitted
    monkeypatch.setattr(ch, "_TERM_BUDGET", emitted - 1)
    with pytest.raises(RuntimeError, match="character budget exceeded"):
        demazure_operator(rs, 1, char)


def test_one_application_is_bounded():
    # D_1 on the dominant (10^6) at level 10^6 would emit 10^6 + 1 terms
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="character budget exceeded"):
            demazure_character(root_system("A", 1), (-10**6,), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


# -- RootProfile against the formulas ------------------------------------------

def test_root_profile_fields_match_formulas():
    rs = root_system("C", 2)
    root = rs.positive_roots[0]
    rng = random.Random(3)
    for _ in range(300):
        values = tuple(rng.randint(-4, 6) for _ in range(rng.randint(1, 6)))
        prof = RootProfile(root, rng.choice("+-"), rng.choice((1, 2)), values)
        top, bottom = max(values), min(values)
        counts = [0] * (top - bottom + 1)
        for v in values:
            counts[top - v] += 1
        assert prof.x == top
        assert prof.t == top - bottom
        assert prof.counts == tuple(counts)
        assert prof.weighted_count() == sum(j * c for j, c in enumerate(counts))


# -- graded p-values against the loop they replace ------------------------------

def _loop_graded_values(x, step):
    if x <= 0:
        return _ZERO
    vals = []
    s = 0
    while x - step * s > 0:
        vals.append(x - step * s)
        s += 1
    vals.append(0)
    return PFunction(tuple(vals), s)


def test_graded_values_match_loop():
    for x in range(-5, 61):
        for step in range(1, 10):
            assert _graded_values(x, step, 0) == _loop_graded_values(x, step)
