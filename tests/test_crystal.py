import collections
import itertools
import random
from fractions import Fraction

import pytest

from demazure import crystal
from demazure.characters import (GradedCharacter, demazure_operator,
                                 finite_character, g0_branch)
from demazure.crystal import (CrystalGraph, Path, build_crystal, component_of,
                              crystal_decomposition, demazure_subcrystal, eps,
                              filter_arrows, phi, root_operator_e,
                              root_operator_f, tensor_crystal, to_dot,
                              weight_graph)
from demazure.rootdata import RootSystem, root_system

A1 = root_system("A", 1)
A2 = root_system("A", 2)
B2 = root_system("B", 2)
C2 = root_system("C", 2)


def weights(b):
    return sorted(v.weight() for v in b.vertices)


def weight_edges(b):
    return sorted((u.weight(), v.weight(), i) for u, v, i in b.edges)


def test_path_canonical_form():
    # parallel steps merge, zero steps vanish
    p = Path(((1, 0), (2, 0), (0, 0)), 2)
    assert p.steps == ((3, 0),)
    q = Path(((1, 0), (Fraction(1, 2), 0)), 2)
    assert q.steps == ((Fraction(3, 2), 0),)
    # antiparallel steps stay: a backtracking zigzag is not its net displacement
    z = Path(((-1, 1), (1, -1)), 2)
    assert len(z.steps) == 2
    assert z.weight() == (0, 0)
    assert z != Path((), 2)
    zero = Path.straight((0, 0))
    assert zero.steps == ()
    assert zero.weight() == (0, 0)


def test_path_concat_and_weight():
    p = Path.straight((1, 0)).concat(Path.straight((0, 1)))
    assert p.steps == ((1, 0), (0, 1))
    assert p.weight() == (1, 1)


@pytest.mark.parametrize("steps", [((1, 0, 0),), ((1,),), ((1, 0), (0, 1, 2))])
def test_path_steps_need_rank_coordinates(steps):
    with pytest.raises(ValueError, match="rank-2 path"):
        Path(steps, 2)


def test_a1_string_walk():
    top = Path.straight((2,))
    mid = root_operator_f(A1, 1, top)
    assert mid.weight() == (0,)
    assert mid.steps == ((-1,), (1,))     # broken line, not the empty path
    bot = root_operator_f(A1, 1, mid)
    assert bot == Path.straight((-2,))
    assert root_operator_f(A1, 1, bot) is None
    assert root_operator_e(A1, 1, bot) == mid
    assert root_operator_e(A1, 1, mid) == top
    assert root_operator_e(A1, 1, top) is None


def test_a2_operator_values():
    top = Path.straight((1, 0))
    down = root_operator_f(A2, 1, top)
    assert down == Path.straight((-1, 1))
    assert root_operator_f(A2, 1, down) is None
    assert root_operator_f(A2, 2, down) == Path.straight((0, -1))
    assert root_operator_e(A2, 1, down) == top


def test_operator_node_range():
    with pytest.raises(ValueError):
        root_operator_f(A2, 0, Path.straight((1, 0)))
    with pytest.raises(ValueError):
        root_operator_e(A2, 3, Path.straight((1, 0)))


def test_string_lengths_and_inverse_laws():
    b = build_crystal(A2, (2, 1))
    for v in b.vertices:
        for i in (1, 2):
            p, e = phi(A2, i, v), eps(A2, i, v)
            assert p >= 0 and e >= 0
            assert p.denominator == 1 and e.denominator == 1
            # seminormality: string imbalance equals the weight pairing
            cor = A2.coroot_vector(A2.simple_root(i))
            assert p - e == sum(c * x for c, x in zip(cor, v.weight()))
            down = root_operator_f(A2, i, v)
            assert (down is not None) == (p >= 1)
            if down is not None:
                assert root_operator_e(A2, i, down) == v
            up = root_operator_e(A2, i, v)
            assert (up is not None) == (e >= 1)
            if up is not None:
                assert root_operator_f(A2, i, up) == v


IDENTITY_SLICE = [("A", 3, (1, 0, 1)), ("A", 3, (2, 1, 1)), ("B", 3, (1, 0, 1)),
                  ("B", 3, (1, 1, 1)), ("C", 3, (1, 1, 0)), ("C", 3, (2, 1, 1)),
                  ("D", 4, (0, 1, 0, 0)), ("D", 4, (1, 0, 1, 1)),
                  ("F", 4, (1, 0, 0, 0)), ("F", 4, (0, 0, 1, 0)),
                  ("G", 2, (2, 1)), ("G", 2, (1, 2))]


@pytest.mark.parametrize("family,rank,lam", IDENTITY_SLICE,
                         ids=["%s%d-%s" % (f, r, "".join(map(str, lam)))
                              for f, r, lam in IDENTITY_SLICE])
def test_crystal_character_identities(family, rank, lam):
    rs = root_system(family, rank)
    b = build_crystal(rs, lam)
    # the vertex weights are the weights of the irreducible, with multiplicity
    want = {fin: mult for (fin, _, _), mult in finite_character(rs, lam).terms.items()}
    assert collections.Counter(v.weight() for v in b.vertices) == want
    for v in b.vertices:
        for i in range(1, rank + 1):
            assert phi(rs, i, v) - eps(rs, i, v) == v.weight()[i - 1]
            down = root_operator_f(rs, i, v)
            if down is not None:
                assert root_operator_e(rs, i, down) == v
            up = root_operator_e(rs, i, v)
            if up is not None:
                assert root_operator_f(rs, i, up) == v


def test_build_crystal_vector_rep():
    b = build_crystal(A2, (1, 0))
    assert weights(b) == [(-1, 1), (0, -1), (1, 0)]
    assert weight_edges(b) == [((-1, 1), (0, -1), 2), ((1, 0), (-1, 1), 1)]
    assert b.highest == Path.straight((1, 0))


def test_build_crystal_rejects_non_dominant():
    with pytest.raises(ValueError):
        build_crystal(A2, (-1, 0))


def test_build_crystal_budget(monkeypatch):
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", 3)
    with pytest.raises(RuntimeError):
        build_crystal(A2, (1, 1))


def test_crystal_sizes_match_character_dimensions():
    cases = [(A1, (k,)) for k in range(4)]
    for a, b in itertools.product(range(3), repeat=2):
        cases += [(A2, (a, b)), (C2, (a, b)), (B2, (a, b))]
    for rs, lam in cases:
        assert len(build_crystal(rs, lam).vertices) == \
            finite_character(rs, lam).dimension()


def test_adjoint_crystal_has_two_zero_vertices_on_disjoint_strings():
    b = build_crystal(A2, (1, 1))
    assert len(b.vertices) == 8
    zeros = [v for v in b.vertices if v.weight() == (0, 0)]
    assert len(zeros) == 2
    for z in zeros:
        touching = {i for u, v, i in b.edges if z in (u, v)}
        assert touching in ({1}, {2})   # each sits on a single string
    wts, edges = weight_graph(b)
    assert len(wts) == 7               # two vertices share weight (0,0)
    assert len(edges) == 8             # no parallel weight-level arrows here


def test_tensor_of_vector_crystals():
    t = tensor_crystal(A2, build_crystal(A2, (1, 0)), build_crystal(A2, (0, 1)))
    assert len(t.vertices) == 9
    assert t.highest.weight() == (1, 1)
    # weights multiply: the multiset is the product character's support
    want = finite_character(A2, (1, 0)).tensor(finite_character(A2, (0, 1)))
    got = {}
    for v in t.vertices:
        got[v.weight()] = got.get(v.weight(), 0) + 1
    assert got == {fin: mult for (fin, _, _), mult in want.terms.items()}


def test_tensor_with_trivial_factor_is_identity():
    d = build_crystal(C2, (1, 0))
    one = build_crystal(C2, (0, 0))
    for t in (tensor_crystal(C2, d, one), tensor_crystal(C2, one, d)):
        assert set(t.vertices) == set(d.vertices)
        assert set(t.edges) == set(d.edges)
        assert t.highest == d.highest


def test_demazure_subcrystal_chain_examples():
    b1 = build_crystal(A2, (1, 0))
    assert len(demazure_subcrystal(A2, b1, (2, 1), (1, 0)).vertices) == 3
    b2 = build_crystal(A2, (0, 1))
    d2 = demazure_subcrystal(A2, b2, (2,), (0, 1))
    assert weights(d2) == [(0, 1), (1, -1)]
    assert len(demazure_subcrystal(A2, b1, (), (1, 0)).vertices) == 1


def test_demazure_subcrystal_keeps_whole_strings():
    # the 5-element subcrystal for the word (2,1) at weight rho: the raising
    # walk from the extremal vertex alone misses the weight (2,-1) vertex,
    # which enters through the head of its own 2-string
    b = build_crystal(A2, (1, 1))
    d = demazure_subcrystal(A2, b, (2, 1), (1, 1))
    assert weights(d) == [(-1, 2), (0, 0), (1, -2), (1, 1), (2, -1)]
    kept_zero = [v for v in d.vertices if v.weight() == (0, 0)][0]
    labels = {i for u, v, i in d.edges if kept_zero in (u, v)}
    assert labels == {2}
    assert weight_edges(d) == [((-1, 2), (0, 0), 2), ((0, 0), (1, -2), 2),
                               ((1, 1), (-1, 2), 1), ((1, 1), (2, -1), 2)]


def test_demazure_subcrystal_sizes_match_operator_dimensions():
    words = {
        A2: [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2)],
        C2: [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2),
             (1, 2, 1, 2), (2, 1, 2, 1)],
    }
    rng = random.Random(7)
    for rs, ws in words.items():
        for _ in range(4):
            lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            b = build_crystal(rs, lam)
            for word in ws:
                char = GradedCharacter.from_weight(lam, 0)
                for i in reversed(word):
                    char = demazure_operator(rs, i, char)
                d = demazure_subcrystal(rs, b, word, lam)
                assert len(d.vertices) == char.dimension(), (rs.type, lam, word)


def test_demazure_subcrystal_prefix_monotone():
    for rs, word in [(A2, (1, 2, 1)), (A2, (2, 1, 2)), (C2, (1, 2, 1, 2))]:
        b = build_crystal(rs, (1, 1))
        prev = set()
        for stop in range(len(word) + 1):
            d = demazure_subcrystal(rs, b, word[:stop], (1, 1))
            assert prev <= set(d.vertices)
            prev = set(d.vertices)


def test_demazure_subcrystal_word_errors():
    b = build_crystal(A2, (1, 0))
    with pytest.raises(ValueError):
        demazure_subcrystal(A2, b, (1, 1), (1, 0))    # not reduced
    with pytest.raises(ValueError):
        demazure_subcrystal(A2, b, (0,), (1, 0))      # not a finite node
    with pytest.raises(ValueError):
        demazure_subcrystal(A2, b, (1,), (0, 1))      # wrong highest weight
    stripped = CrystalGraph(build_crystal(A2, (1, 1)).vertices,
                            build_crystal(A2, (1, 1)).edges, None)
    with pytest.raises(ValueError):
        demazure_subcrystal(A2, stripped, (1,), (0, 0))  # two such vertices


def pipeline(order=(0, 1)):
    b1 = build_crystal(A2, (1, 0))
    b2 = build_crystal(A2, (0, 1))
    d1 = demazure_subcrystal(A2, b1, (2, 1), (1, 0))
    d2 = demazure_subcrystal(A2, b2, (2,), (0, 1))
    pair = (d1, d2)
    return tensor_crystal(A2, pair[order[0]], pair[order[1]])


def test_pipeline_component_is_dimension_six():
    t = pipeline()
    assert len(t.vertices) == 6
    comp = component_of(t, (1, -2))
    # the tensor is connected: both weight-(0,0) vertices survive, so the
    # component realizes the full 6-dimensional product, not its
    # 5-dimensional submodule
    assert len(comp.vertices) == 6
    zero_steps = sorted(v.steps for v in comp.vertices if v.weight() == (0, 0))
    assert zero_steps == [(((-1, 1), (1, -1))), (((0, -1), (0, 1)))]
    assert [p.size for p in crystal_decomposition(comp, (2,))] == [1, 2, 3]


def test_pipeline_component_weight_view():
    comp = component_of(pipeline(), (1, -2))
    wts, edges = weight_graph(comp)
    assert wts == ((-1, 2), (0, 0), (1, -2), (1, 1), (2, -1))
    assert edges == (((-1, 2), (0, 0), 2), ((0, 0), (1, -2), 2),
                     ((1, 1), (-1, 2), 1), ((1, 1), (2, -1), 2),
                     ((2, -1), (0, 0), 1))


def test_pipeline_demazure_subcrystal_recovers_submodule():
    t = pipeline()
    d = demazure_subcrystal(A2, t, (2, 1), (1, 1))
    assert weights(d) == [(-1, 2), (0, 0), (1, -2), (1, 1), (2, -1)]
    assert [(p.weight, p.size, p.count)
            for p in crystal_decomposition(d, (2,))] == \
        [((1,), 2, 1), ((2,), 3, 1)]


def test_component_of_requires_unique_weight():
    t = pipeline()
    with pytest.raises(ValueError):
        component_of(t, (0, 0))
    with pytest.raises(ValueError):
        component_of(t, (5, 5))


def test_component_is_undirected():
    t = pipeline()
    assert set(component_of(t, (1, 1)).vertices) == \
        set(component_of(t, (1, -2)).vertices)


def test_filter_arrows():
    b = build_crystal(A2, (1, 0))
    assert filter_arrows(b, (1, 2)).edges == b.edges
    empty = filter_arrows(b, ())
    assert empty.edges == ()
    assert empty.vertices == b.vertices
    only2 = filter_arrows(b, (2,))
    assert {i for _, _, i in only2.edges} == {2}


def test_decomposition_trivial_nodes():
    t = pipeline()
    assert [(p.weight, p.size, p.count)
            for p in crystal_decomposition(t, ())] == [((), 1, 6)]


@pytest.mark.parametrize("node", [0, -1, 3, 5])
def test_decomposition_rejects_nodes_outside_rank(node):
    b = build_crystal(A2, (1, 1))
    with pytest.raises(ValueError):
        crystal_decomposition(b, (1, node))


# True and 1.0 equal node 1 but are not nodes; the checks ask for an int
@pytest.mark.parametrize("call", [
    lambda: root_operator_f(A2, True, Path.straight((1, 0))),
    lambda: root_operator_f(A2, 1.0, Path.straight((1, 0))),
    lambda: crystal_decomposition(build_crystal(A2, (1, 1)), (True,)),
    lambda: crystal_decomposition(build_crystal(A2, (1, 1)), (1, True)),
    lambda: crystal_decomposition(build_crystal(A2, (1, 1)), (1, 1.0)),
], ids=["f-bool", "f-float", "decomposition-bool", "decomposition-1-bool",
        "decomposition-1-float"])
def test_bool_and_float_nodes_are_rejected(call):
    with pytest.raises(ValueError, match="is not a finite node"):
        call()


def test_decomposition_full_nodes_single_component():
    b = build_crystal(A2, (2, 1))
    assert [(p.weight, p.size, p.count)
            for p in crystal_decomposition(b, (1, 2))] == [(((2, 1)), 15, 1)]


def test_decomposition_matches_character_branch():
    for rs, lam in [(A2, (2, 1)), (C2, (1, 1))]:
        char = finite_character(rs, lam)
        b = build_crystal(rs, lam)
        for node in (1, 2):
            crystal_side = {}
            for p in crystal_decomposition(b, (node,)):
                crystal_side[(p.weight[0], p.size)] = p.count
            branch_side = {}
            for rec in g0_branch(rs, char, (node,)):
                key = (rec.finite[node - 1], rec.dimension)
                branch_side[key] = branch_side.get(key, 0) + rec.multiplicity
            assert crystal_side == branch_side, (rs.type, lam, node)


IDENTITY_WEIGHTS = [(f, n, lam) for f, n, top in (("A", 2, 3), ("B", 2, 3), ("C", 2, 3),
                                                  ("G", 2, 3), ("A", 3, 2), ("B", 3, 2),
                                                  ("C", 3, 2))
                    for lam in itertools.product(range(top + 1), repeat=n) if sum(lam) <= top]


@pytest.mark.parametrize("family,rank,lam", IDENTITY_WEIGHTS,
                         ids=["%s%d-%s" % (f, n, ",".join(map(str, lam)))
                              for f, n, lam in IDENTITY_WEIGHTS])
def test_decomposition_is_g0_branch_of_finite_character(family, rank, lam):
    """The crystal-character branching identity, on every node subset: B(lam)
    split along the nodes' arrows has one piece per irreducible that
    ``g0_branch`` finds in the finite character of lam, keyed by its highest
    weight restricted to the nodes and its dimension.  The two sides share
    no code past the root data."""
    rs = root_system(family, rank)
    b, char = build_crystal(rs, lam), finite_character(rs, lam)
    for size in range(rank + 1):
        for nodes in itertools.combinations(range(1, rank + 1), size):
            pieces = collections.Counter({(p.weight, p.size): p.count
                                          for p in crystal_decomposition(b, nodes)})
            branched = collections.Counter()
            for rec in g0_branch(rs, char, nodes):
                branched[(tuple(rec.finite[i - 1] for i in nodes), rec.dimension)] += (
                    rec.multiplicity)
            assert pieces == branched, nodes


def test_decomposition_rejects_multiple_sources():
    u, v, w = Path.straight((1, 0)), Path.straight((0, 1)), Path.straight((1, 1))
    b = CrystalGraph((u, v, w), ((u, w, 1), (v, w, 1)), None)
    with pytest.raises(ValueError):
        crystal_decomposition(b, (1,))


def test_to_dot_output():
    b = build_crystal(A2, (1, 0))
    dot = to_dot(b)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert '[label="(1, 0)"]' in dot
    assert '[label="1"]' in dot and '[label="2"]' in dot


@pytest.mark.parametrize("lam", [(1, 0, 0), (1,)])
def test_build_crystal_rejects_wrong_length(lam):
    with pytest.raises(ValueError, match="coordinates"):
        build_crystal(A2, lam)


def test_build_crystal_budget_boundary(monkeypatch):
    # the adjoint crystal of A2 has 8 vertices
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", 8)
    assert len(build_crystal(A2, (1, 1)).vertices) == 8
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", 7)
    with pytest.raises(RuntimeError, match="vertex budget exceeded"):
        build_crystal(A2, (1, 1))


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 2, (2, 1)), ("G", 2, (1, 1)), ("B", 3, (0, 1, 1)), ("C", 3, (1, 0, 1)),
    ("D", 4, (0, 1, 0, 0)), ("F", 4, (0, 0, 0, 1)), ("E", 6, (1, 0, 0, 0, 0, 0)),
    ("A", 2, (3, 0)), ("B", 3, (0, 2, 1)), ("D", 4, (1, 1, 1, 1)),
    ("E", 6, (1, 0, 0, 0, 0, 1))])
def test_build_crystal_budget_is_the_dimension(monkeypatch, family, rank, lam):
    # the size check reads Weyl's dimension formula; it must equal the size
    # the search reaches, so the boundary sits exactly at dim V(lam).  A
    # fresh root system has no fundamental crystals yet, so they are built
    # under the same budget
    rs = RootSystem(family, rank)
    size = finite_character(rs, lam).dimension()
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", size)
    assert len(build_crystal(rs, lam).vertices) == size
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", size - 1)
    with pytest.raises(RuntimeError, match="vertex budget exceeded"):
        build_crystal(RootSystem(family, rank), lam)
    with pytest.raises(RuntimeError, match="vertex budget exceeded"):
        build_crystal(rs, lam)


def test_tensor_crystal_budget_boundary(monkeypatch):
    # 3 x 3 = 9 product vertices; the check comes before any concatenation
    b1, b2 = build_crystal(A2, (1, 0)), build_crystal(A2, (0, 1))
    full = tensor_crystal(A2, b1, b2)
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", 9)
    assert len(tensor_crystal(A2, b1, b2).vertices) == 9
    assert tensor_crystal(A2, b1, b2) == full
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", 8)
    with pytest.raises(RuntimeError, match="vertex budget exceeded"):
        tensor_crystal(A2, b1, b2)


def test_traversals_of_hand_built_graphs_are_bounded(monkeypatch):
    # a 5-vertex chain built by hand, not by build_crystal: the bound is read
    # by the traversal itself, so it holds for any graph
    paths = [Path.straight((k,)) for k in (4, 2, 0, -2, -4)]
    chain = CrystalGraph(tuple(paths), tuple(zip(paths, paths[1:], [1] * 4)), paths[0])
    full = component_of(chain, (4,)), crystal_decomposition(chain, (1,))
    assert len(full[0].vertices) == 5
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", 5)
    assert (component_of(chain, (4,)), crystal_decomposition(chain, (1,))) == full
    monkeypatch.setattr(crystal, "_VERTEX_BUDGET", 4)
    with pytest.raises(RuntimeError, match="vertex budget exceeded"):
        component_of(chain, (4,))
    with pytest.raises(RuntimeError, match="vertex budget exceeded"):
        crystal_decomposition(chain, (1,))
