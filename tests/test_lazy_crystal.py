"""Graphs made from vertex-number tables, whose paths are made on first read,
against the path-keyed reference (``graph_reference`` and
``path_closure_reference``): equal under ``==``, ``hash``, ``repr``, a pickle
round trip and ``copy.deepcopy``, whichever field is read first or none.
Also the checks of the path operators and of ``crystal_decomposition`` on
every input, and the bytes an unread crystal keeps."""

import copy
import gc
import pickle
import tracemalloc
from fractions import Fraction

import pytest

import graph_reference as ref
import path_closure_reference as closure
from demazure import crystal
from demazure.crystal import (CrystalGraph, Path, build_crystal, component_of,
                              crystal_decomposition, demazure_subcrystal, eps,
                              filter_arrows, phi, root_operator_e, root_operator_f,
                              tensor_crystal)
from demazure.rootdata import root_system

A2 = root_system("A", 2)

# (type, rank, lambda, a reduced word, the node j of the fundamental factor)
CASES = [("A", 2, (2, 1), (1, 2), 2), ("G", 2, (1, 1), (2, 1), 1),
         ("B", 3, (0, 1, 1), (1, 2, 3), 3), ("C", 3, (1, 0, 1), (3, 2, 1), 1),
         ("D", 4, (0, 1, 0, 0), (2, 1, 3), 4)]


def omega(rank, j):
    return tuple(int(k == j) for k in range(1, rank + 1))


def makers(family, rank, lam, word, j):
    """Per operation: a function making the graph afresh from tables, and the
    reference graph."""
    rs = root_system(family, rank)
    top = tuple(a + b for a, b in zip(lam, omega(rank, j)))
    old_sub = ref.demazure_subcrystal(rs, closure.build_crystal(rs, lam), word, lam)
    old_tensor = ref.tensor_crystal(rs, old_sub, closure.build_crystal(rs, omega(rank, j)))

    def sub():
        return demazure_subcrystal(rs, build_crystal(rs, lam), word, lam)

    def tensor():
        return tensor_crystal(rs, sub(), build_crystal(rs, omega(rank, j)))

    return {
        "build": (lambda: build_crystal(rs, lam), closure.build_crystal(rs, lam)),
        "subcrystal": (sub, old_sub),
        "tensor": (tensor, old_tensor),
        "component": (lambda: component_of(tensor(), top), ref.component_of(old_tensor, top)),
        "filter": (lambda: filter_arrows(build_crystal(rs, lam), (1,)),
                   ref.filter_arrows(closure.build_crystal(rs, lam), (1,))),
        # a cut of a cut: the subcrystal's own component
        "sub-component": (lambda: component_of(sub(), lam), ref.component_of(old_sub, lam)),
    }


def three_factors():
    """B(omega_1) * B(omega_2) * B(omega_1) of A2, and its top component."""
    def tensor():
        b1, b2 = build_crystal(A2, (1, 0)), build_crystal(A2, (0, 1))
        return tensor_crystal(A2, tensor_crystal(A2, b1, b2), b1)

    old1, old2 = closure.build_crystal(A2, (1, 0)), closure.build_crystal(A2, (0, 1))
    old = ref.tensor_crystal(A2, ref.tensor_crystal(A2, old1, old2), old1)
    return {"tensor": (tensor, old),
            "component": (lambda: component_of(tensor(), (2, 1)), ref.component_of(old, (2, 1)))}


ORDERS = [(), ("vertices",), ("edges",), ("highest",), ("edges", "highest", "vertices")]
VIEWS = {
    "==": lambda got, want: got == want and want == got,
    "hash": lambda got, want: hash(got) == hash(want),
    "repr": lambda got, want: repr(got) == repr(want),
    "pickle": lambda got, want: pickle.loads(pickle.dumps(got)) == want,
    "deepcopy": lambda got, want: copy.deepcopy(got) == want,
}
SETS = [(case, op) for case in CASES for op in makers(*case)]
SETS += [("three", op) for op in three_factors()]


@pytest.mark.parametrize("case,op", SETS,
                         ids=["%s-%s" % (c if c == "three" else "%s%d" % c[:2], op)
                              for c, op in SETS])
def test_tables_give_the_reference_graphs(case, op):
    make, want = (three_factors() if case == "three" else makers(*case))[op]
    for order in ORDERS:
        for view, same in VIEWS.items():
            got = make()  # afresh, so that ``order`` holds the first reads
            for name in order:
                getattr(got, name)
            assert same(got, want), (order, view)


def test_subcrystal_read_first_shares_the_paths_of_its_crystal(monkeypatch):
    calls = []
    lower = crystal.root_operator_f
    rs, lam = root_system("B", 3), (0, 1, 1)
    build_crystal(rs, lam)  # the fundamental crystals, built once per root system
    monkeypatch.setattr(crystal, "root_operator_f",
                        lambda rs, i, path: calls.append(path) or lower(rs, i, path))
    b = build_crystal(rs, lam)
    sub = demazure_subcrystal(rs, b, (1, 2, 3), lam)
    assert calls == []  # neither is read yet
    sub_vertices = sub.vertices
    assert len(calls) == len(b.vertices) - 1  # one f_i per discovery edge, made once
    full = set(map(id, b.vertices))
    assert all(id(v) in full for v in sub_vertices)
    assert b == closure.build_crystal(rs, lam)
    assert sub == ref.demazure_subcrystal(rs, closure.build_crystal(rs, lam), (1, 2, 3), lam)
    assert len(calls) == len(b.vertices) - 1


def test_tensor_of_graphs_built_by_hand_finds_their_highest_vertices():
    b1, b2 = closure.build_crystal(A2, (1, 0)), closure.build_crystal(A2, (1, 1))
    moved = CrystalGraph(b1.vertices[1:2] + b1.vertices[:1] + b1.vertices[2:], b1.edges,
                         b1.highest)  # the highest vertex second
    got, want = tensor_crystal(A2, moved, b2), ref.tensor_crystal(A2, moved, b2)
    assert got.highest == want.highest and got == want
    assert component_of(got, (2, 1)) == ref.component_of(want, (2, 1))


def test_unpickled_and_copied_graphs_hold_no_table():
    b = build_crystal(A2, (1, 1))
    for twin in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b), copy.copy(b)):
        assert "_table" not in vars(twin) and twin == b


def bytes_per_vertex(read):
    build_crystal(A2, (1, 1))  # the fundamental crystals, built once per root system
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        b = build_crystal(A2, (20, 20))
        if read:
            b.vertices, b.edges, b.highest
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(b.vertices) == 9261
    return kept / 9261


def test_an_unread_crystal_keeps_its_numbers_alone():
    # 557 B a vertex while a graph held its paths from the start
    assert bytes_per_vertex(read=False) <= 286


def test_a_read_crystal_keeps_its_paths_and_numbers():
    assert bytes_per_vertex(read=True) <= 630


# each path operator refuses a path of another rank with one ValueError
@pytest.mark.parametrize("operator", [phi, eps, root_operator_f, root_operator_e])
@pytest.mark.parametrize("i,path", [(1, Path.straight((1, 0, 0))), (1, Path.straight((0, 0, 5))),
                                    (2, Path.straight((3,)))], ids=["long", "long-5", "short"])
def test_paths_of_another_rank_are_refused(operator, i, path):
    with pytest.raises(ValueError, match=r"rank-%d path on a rank-2 root system" % path.rank):
        operator(A2, i, path)


EMPTY = CrystalGraph((), (), None)


@pytest.mark.parametrize("nodes", [(0,), (7, 0), (-1,), (True,), (1.0,), ("1",), (None,)])
@pytest.mark.parametrize("graph", [EMPTY, CrystalGraph((Path.straight((1, 0)),), (), None)],
                         ids=["empty", "one-vertex"])
def test_decomposition_checks_every_node_on_every_graph(graph, nodes):
    with pytest.raises(ValueError, match="is not a finite node"):
        crystal_decomposition(graph, nodes)


def test_an_empty_graph_built_by_hand_cannot_refuse_a_large_node():
    # it holds no path, so it knows no rank
    assert crystal_decomposition(EMPTY, (7,)) == ()
    assert crystal_decomposition(EMPTY, (1, 2)) == ()


@pytest.mark.parametrize("graph", [
    lambda: build_crystal(A2, (1, 1)),
    lambda: filter_arrows(build_crystal(A2, (1, 1)), ()),
    lambda: tensor_crystal(A2, build_crystal(A2, (1, 0)), build_crystal(A2, (0, 1))),
    lambda: CrystalGraph((Path.straight((1, 0)),), (), None)],
    ids=["built", "filtered", "tensor", "by-hand"])
def test_decomposition_refuses_nodes_over_the_rank(graph):
    with pytest.raises(ValueError, match="node 3 is not a finite node"):
        crystal_decomposition(graph(), (1, 3))


U, V = Path.straight((1, 0)), Path.straight((0, 1))


@pytest.mark.parametrize("graph", [
    CrystalGraph((U, U), (), None),
    CrystalGraph((U,), ((U, V, 1),), None),
    CrystalGraph((U,), (), V)], ids=["twice", "arrow-end", "highest"])
def test_a_graph_built_by_hand_needs_its_ends_among_distinct_vertices(graph):
    for call in (lambda: component_of(graph, (1, 0)), lambda: filter_arrows(graph, (1,)),
                 lambda: crystal_decomposition(graph, (1,))):
        with pytest.raises(ValueError, match="needs distinct vertices"):
            call()


def test_a_graph_built_by_hand_makes_no_weight_before_one_is_needed():
    off = Path([(Fraction(1, 2), 0)], 2)  # ends off the weight lattice
    graph = CrystalGraph((off, U), (), off)
    assert filter_arrows(graph, (1,)) == graph
    with pytest.raises(ValueError, match="non-integral point"):
        demazure_subcrystal(A2, graph, (), (1, 0))
