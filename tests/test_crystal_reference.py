"""Differential test of the integer path crystal against the earlier
Fraction implementation, kept verbatim in ``fraction_crystal``."""

import itertools
import random
from fractions import Fraction

import pytest

import fraction_crystal as ref
from demazure import crystal
from demazure.rootdata import root_system

GRID = [(family, rank, lam)
        for family, rank in [("A", 1), ("A", 2), ("C", 2), ("B", 2)]
        for lam in itertools.product(range(4), repeat=rank)]
SMALL = [("G", 2, (1, 1)), ("G", 2, (2, 0)), ("B", 3, (1, 0, 1)),
         ("C", 3, (0, 1, 1)), ("D", 4, (1, 0, 0, 1)), ("F", 4, (0, 0, 0, 1))]


def same_graph(new, old):
    assert [v.steps for v in new.vertices] == [v.steps for v in old.vertices]
    index = {v: pos for pos, v in enumerate(new.vertices)}
    old_index = {v: pos for pos, v in enumerate(old.vertices)}
    assert [(index[u], index[v], i) for u, v, i in new.edges] == \
        [(old_index[u], old_index[v], i) for u, v, i in old.edges]
    assert crystal.to_dot(new) == ref.to_dot(old)


def outcome(op, rs, i, path):
    """op(rs, i, path), or the type and text of the exception it raises."""
    try:
        return op(rs, i, path)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


OPERATORS = [(crystal.phi, ref.phi), (crystal.eps, ref.eps),
             (crystal.root_operator_e, ref.root_operator_e),
             (crystal.root_operator_f, ref.root_operator_f)]


def same_operators(rs, path, nodes=None, operators=OPERATORS):
    """phi, eps, e_i and f_i agree on one path, at every node and by default
    at -1, 0 and rank + 1 too, including the type and text of raised errors."""
    old = ref.Path(path.steps, path.rank)
    for i in nodes or range(-1, rs.rank + 2):
        for new_op, old_op in operators:
            got, want = outcome(new_op, rs, i, path), outcome(old_op, rs, i, old)
            if isinstance(want, ref.Path):
                assert got.steps == want.steps
                assert got == crystal.Path(want.steps, rs.rank)
            else:
                assert got == want


@pytest.mark.parametrize("family,rank,lam", GRID + SMALL,
                         ids=["%s%d-%s" % (f, r, "".join(map(str, lam)))
                              for f, r, lam in GRID + SMALL])
def test_build_crystal_matches_fraction_reference(family, rank, lam):
    rs = root_system(family, rank)
    new = crystal.build_crystal(rs, lam)
    same_graph(new, ref.build_crystal(rs, lam))
    if len(new.vertices) <= 64:
        for v in new.vertices:
            same_operators(rs, v)
            assert isinstance(crystal.phi(rs, 1, v), int)


@pytest.mark.parametrize("family,rank,lam", [("G", 2, (2, 2)), ("D", 4, (1, 1, 1, 1))])
def test_every_vertex_and_node_matches_fraction_reference(family, rank, lam):
    """The operators on every vertex of a crystal too large for the graph test;
    on D4 only f_i, the operator ``build_crystal`` calls, as the reference's
    other three would double the time of the test."""
    rs = root_system(family, rank)
    operators = OPERATORS[3:] if family == "D" else OPERATORS
    for v in crystal.build_crystal(rs, lam).vertices:
        same_operators(rs, v, range(1, rank + 1), operators)


def factor(mod, rs, lam, word=None, nodes=None):
    """B(lam) from ``mod`` (the package or the reference), cut to the word's
    Demazure subcrystal and to the arrows of ``nodes`` when they are given."""
    b = mod.build_crystal(rs, lam)
    if word is not None:
        b = mod.demazure_subcrystal(rs, b, word, lam)
    return b if nodes is None else mod.filter_arrows(b, nodes)


def fundamentals(rank):
    units = [(tuple(int(j == i) for j in range(rank)),) for i in range(rank)]
    return list(itertools.product(units, repeat=2))


# (type, rank, products): each product lists its factors as arguments of
# ``factor``, multiplied left to right, so three factors give (b1 * b2) * b3
TENSORS = [(f, r, fundamentals(r)) for f, r in [("A", 2), ("B", 2), ("C", 2), ("G", 2),
                                                 ("A", 3)]] + [
    ("A", 2, [(((2, 1), (1, 2)), ((1, 1), (2, 1))), (((1, 1), (1,)), ((2, 0), (2, 1)))]),
    ("B", 2, [(((1, 1), (2, 1)), ((0, 2), (1, 2)))]),
    ("G", 2, [(((1, 0), (1, 2)), ((1, 0), (2, 1, 2)))]),
    ("C", 3, [(((0, 1, 1), (3, 2)), ((1, 0, 0), (1,)))]),
    ("A", 2, [(((2, 1), None, (1,)), ((1, 1),)), (((1, 1),), ((1, 1), (1, 2), (2,)))]),
    ("B", 2, [(((1, 1), None, (2,)), ((1, 0), (1,)))]),
    ("A", 2, [(((1, 0),), ((1, 1), (1, 2)), ((0, 1), (2,)))]),
    ("A", 3, [(((0, 1, 0), (2,)), ((1, 0, 0),), ((0, 0, 1), (3, 2)))]),
    ("B", 2, [(((0, 1),), ((1, 0), (1,)), ((0, 1), None, (1,)))]),
]
TENSOR_IDS = (["%s-%d" % (f, r) for f, r, _ in TENSORS[:5]]
              + ["A2-demazure", "B2-demazure", "G2-demazure", "C3-demazure", "A2-filtered",
                 "B2-filtered", "A2-nested", "A3-nested", "B2-nested-filtered"])


@pytest.mark.parametrize("family,rank,products", TENSORS, ids=TENSOR_IDS)
def test_tensor_of_fundamentals_matches_fraction_reference(family, rank, products):
    """tensor_crystal against the concatenation loop of the reference: every
    pair of fundamental crystals, then Demazure-subcrystal factors, a
    ``filter_arrows`` factor (whose missing arrows the product still has, as
    the paths decide) and nested three-factor products."""
    rs = root_system(family, rank)
    for factors in products:
        new, old = factor(crystal, rs, *factors[0]), factor(ref, rs, *factors[0])
        for args in factors[1:]:
            new = crystal.tensor_crystal(rs, new, factor(crystal, rs, *args))
            old = ref.tensor_crystal(rs, old, factor(ref, rs, *args))
        same_graph(new, old)
        assert new.highest.steps == old.highest.steps


# rational paths that are not LS paths: off-lattice corners, zigzags and
# windows that dip, so that splits need a larger denominator or raise
HANDMADE = [
    ("A", 2, ((1, 0), (Fraction(1, 2), 0))),
    ("A", 2, ((Fraction(1, 3), 0), (Fraction(-1, 2), Fraction(1, 2)))),
    ("A", 2, ((Fraction(5, 2), Fraction(-1, 3)), (Fraction(-3, 4), 1))),
    ("A", 2, ((-1, 1), (1, -1), (Fraction(3, 2), 0))),
    ("A", 2, ((Fraction(-1, 2), 0), (Fraction(7, 3), Fraction(1, 5)))),
    ("B", 2, ((Fraction(2, 3), Fraction(1, 3)), (Fraction(-1, 7), 2), (1, -1))),
    ("C", 2, ((0, Fraction(-1, 2)), (Fraction(3, 5), Fraction(4, 3)))),
    ("G", 2, ((Fraction(1, 2), Fraction(3, 2)), (Fraction(-5, 3), 1), (2, 0))),
    ("A", 1, ((Fraction(3, 2),), (Fraction(-1, 3),), (Fraction(5, 6),))),
    ("A", 1, ((Fraction(1, 2),), (Fraction(-2, 1),), (Fraction(5, 2),))),
    ("A", 3, ((Fraction(1, 2), 0, Fraction(-1, 3)), (0, Fraction(5, 4), 0),
              (Fraction(-3, 2), 1, 1))),
    # h_1 rises by 2 in one run, so f_1 crosses M + 1 half-way in and den doubles
    ("A", 2, ((2, -1),)),
    ("A", 2, ((-2, 1),)),
    ("A", 2, ((Fraction(1, 3), Fraction(2, 3)), (Fraction(5, 3), -1))),
    ("A", 2, ((1, 0), (Fraction(-3, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(-3, 2)))),
    ("G", 2, ((3, -1),)),
    ("G", 2, ((Fraction(2, 3), Fraction(1, 3)), (1, -2))),
    # h dips inside the window: f_1 of the first and e_1 of the second raise
    ("A", 1, ((Fraction(1, 2),), (Fraction(-1, 4),), (1,))),
    ("A", 1, ((-1,), (Fraction(1, 4),), (Fraction(-1, 2),))),
]


@pytest.mark.parametrize("family,rank,steps", HANDMADE)
def test_rational_paths_match_fraction_reference(family, rank, steps):
    rs = root_system(family, rank)
    path = crystal.Path(steps, rank)
    old = ref.Path(steps, rank)
    assert path.steps == old.steps
    assert repr(path) == repr(old)
    assert path.endpoint() == old.endpoint()
    same_operators(rs, path)
    # walk down and up the strings, comparing every path on the way
    for i in range(1, rank + 1):
        for op in (crystal.root_operator_f, crystal.root_operator_e):
            p = path
            for _ in range(4):
                try:
                    p = op(rs, i, p)
                except ValueError:
                    break
                if p is None:
                    break
                same_operators(rs, p)


def test_windows_that_dip_and_crossings_off_the_grid():
    a1, a2 = root_system("A", 1), root_system("A", 2)
    up = crystal.Path(((Fraction(1, 2),), (Fraction(-1, 4),), (1,)), 1)
    down = crystal.Path(((-1,), (Fraction(1, 4),), (Fraction(-1, 2),)), 1)
    assert outcome(crystal.root_operator_f, a1, 1, up) == (
        ValueError, "descent inside the lowering window")
    assert outcome(crystal.root_operator_e, a1, 1, down) == (
        ValueError, "ascent inside the raising window")
    f = crystal.root_operator_f(a2, 1, crystal.Path.straight((2, -1)))
    assert (f.den, f.runs) == (2, ((1, (-2, 1)), (1, (2, -1))))


@pytest.mark.parametrize("family,rank", [("A", 2), ("G", 2), ("B", 3)])
def test_random_rational_paths_match_fraction_reference(family, rank):
    rs, rng = root_system(family, rank), random.Random(rank * 31 + ord(family))
    for _ in range(150):
        steps = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rank)]
                 for _ in range(rng.randint(1, 5))]
        same_operators(rs, crystal.Path(steps, rank))


def test_equal_lines_are_equal_paths():
    a = crystal.Path(((1, 0), (Fraction(1, 2), 0), (0, 0), (-1, 1)), 2)
    b = crystal.Path(((Fraction(3, 2), 0), (Fraction(-1, 3), Fraction(1, 3)),
                      (Fraction(-2, 3), Fraction(2, 3))), 2)
    assert a == b and hash(a) == hash(b)
    assert (a.den, a.runs) == (2, ((3, (1, 0)), (2, (-1, 1))))
    c = crystal.Path(((Fraction(1, 2), 0),), 2).concat(crystal.Path(((1, 0),), 2))
    assert c == crystal.Path.straight((Fraction(3, 2), 0))
    assert (c.den, c.runs) == (2, ((3, (1, 0)),))
    # halves that merge into a whole step reduce the denominator
    d = crystal.Path(((Fraction(1, 2), 1), (Fraction(1, 2), 1)), 2)
    assert (d.den, d.runs) == (1, ((1, (1, 2)),))


# (type, rank, lam, word, second tensor factor, nodes to decompose along)
SEARCHES = [("A", 2, (1, 1), (2, 1), (0, 1), (2,)),
            ("A", 2, (2, 1), (1, 2, 1), (1, 0), (1,)),
            ("B", 2, (1, 1), (2, 1, 2), (0, 1), (1,)),
            ("C", 2, (1, 1), (1, 2), (1, 0), (2,)),
            ("G", 2, (1, 0), (2, 1, 2, 1), (1, 0), (2,)),
            ("A", 3, (1, 0, 1), (2, 1, 3), (0, 1, 0), (1, 3))]


@pytest.mark.parametrize("family,rank,lam,word,other,nodes", SEARCHES)
def test_graph_searches_match_fraction_reference(family, rank, lam, word, other, nodes):
    """Demazure string saturation, components and decomposition against the
    reference, each of which has its own breadth-first loop."""
    rs = root_system(family, rank)
    new_full, old_full = crystal.build_crystal(rs, lam), ref.build_crystal(rs, lam)
    new = crystal.demazure_subcrystal(rs, new_full, word, lam)
    old = ref.demazure_subcrystal(rs, old_full, word, lam)
    same_graph(new, old)
    new_t = crystal.tensor_crystal(rs, new_full, crystal.build_crystal(rs, other))
    old_t = ref.tensor_crystal(rs, old_full, ref.build_crystal(rs, other))
    top = tuple(a + b for a, b in zip(lam, other))
    same_graph(crystal.component_of(new_t, top), ref.component_of(old_t, top))
    for graph, old_graph in [(new_full, old_full), (new_t, old_t)]:
        assert ([(p.weight, p.size, p.count)
                 for p in crystal.crystal_decomposition(graph, nodes)]
                == [(p.weight, p.size, p.count)
                    for p in ref.crystal_decomposition(old_graph, nodes)])
