"""pytest-benchmark timings of ``build_crystal`` against the earlier closure
of the straight path under every lowering operator, kept in
``tests/path_closure_reference.py``.  Not part of the test run (the file name
does not match ``test_*.py``); run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_crystal.py --benchmark-only

A2 (n, n) for n = 2, 4, 8 and 12 shows how the two scale with the number
of factors (2n) and vertices ((n+1)^3); B3 (0,2,1) and D4 (1,1,1,1), of 720
and 4,096 vertices, are the heaviest weights of the crystal-check benchmark
workload.  The fundamental crystals are built once, before the timing.

The tensor timings take ``tensor_crystal`` of two crystals plus
``component_of`` the top weight, beside ``build_crystal`` of that top weight,
which finds the same component by the pair search from its top pair alone.
The factors are built before the timing.

The all-read timings take one item of the crystal-check workload, with every
path read as its summary reads them: ``build_crystal``, the Demazure
subcrystal of a word, the tensor product of two Demazure subcrystals of
fundamental crystals and its top component, then every vertex's ``weight()``
and every edge of the three graphs.  A crystal's paths are made on first
read, so this is the figure to set beside a timing of the calls alone.

The operator timings take one ``root_operator_f`` call per (vertex, node) of
D4 (1,1,1,1), 16,384 calls, and one per discovery edge of that crystal (the
first edge into each vertex, the call ``build_crystal`` makes), 4,095 calls,
for the package's operator and for the Fraction one kept in
``fraction_crystal``, a fixed yardstick across commits; ``extra_info["calls"]``
holds the count, so a round's time over it is the time of one call.
"""

import pytest

import fraction_crystal
import path_closure_reference as reference
from demazure.crystal import (build_crystal, component_of, demazure_subcrystal,
                              root_operator_f, tensor_crystal)
from demazure.rootdata import root_system

WEIGHTS = [("A", 2, (n, n)) for n in (2, 4, 8, 12)] + [("B", 3, (0, 2, 1)),
                                                       ("D", 4, (1, 1, 1, 1))]


@pytest.mark.parametrize("build", (build_crystal, reference.build_crystal),
                         ids=("product", "closure"))
@pytest.mark.parametrize("family,rank,lam", WEIGHTS,
                         ids=["%s%d-%s" % (f, n, ",".join(map(str, lam)))
                              for f, n, lam in WEIGHTS])
def test_build_crystal(benchmark, build, family, rank, lam):
    rs = root_system(family, rank)
    assert build_crystal(rs, lam) == reference.build_crystal(rs, lam)
    benchmark(build, rs, lam)


PRODUCTS = [("A", 2, (3, 3), (2, 2)), ("B", 3, (0, 1, 1), (1, 0, 1)),
            ("G", 2, (1, 1), (2, 0)), ("D", 4, (1, 0, 0, 1), (0, 1, 0, 0))]


def tensor_component(rs, b1, b2, top):
    return component_of(tensor_crystal(rs, b1, b2), top)


@pytest.mark.parametrize("family,rank,lam,nu", PRODUCTS,
                         ids=["%s%d-%s*%s" % (f, n, "".join(map(str, lam)), "".join(map(str, nu)))
                              for f, n, lam, nu in PRODUCTS])
@pytest.mark.parametrize("how", ("tensor+component", "build_top"))
def test_tensor_component(benchmark, how, family, rank, lam, nu):
    rs = root_system(family, rank)
    top = tuple(a + b for a, b in zip(lam, nu))
    b1, b2 = build_crystal(rs, lam), build_crystal(rs, nu)
    component = tensor_component(rs, b1, b2, top)
    assert len(component.vertices) == len(build_crystal(rs, top).vertices)
    if how == "build_top":
        benchmark(build_crystal, rs, top)
    else:
        benchmark(tensor_component, rs, b1, b2, top)


# (type, rank, lambda, word, (fundamental weight, word) for each tensor factor)
ALL_READ = [("D", 4, (1, 1, 1, 1), (1, 2, 3, 4), (((1, 0, 0, 0), (1, 2)), ((0, 0, 1, 0), (3,)))),
            ("B", 3, (0, 2, 1), (2, 3, 1), (((1, 0, 0), (1, 2)), ((0, 0, 1), (3,)))),
            ("A", 2, (8, 8), (1, 2), (((1, 0), (1, 2)), ((0, 1), (2,))))]


def read_all(b):
    """The vertex weights in discovery order and the edges by vertex number."""
    index = {v: n for n, v in enumerate(b.vertices)}
    return (tuple(v.weight() for v in b.vertices),
            tuple((index[u], index[v], i) for u, v, i in b.edges))


def crystal_check_item(rs, lam, word, factors):
    full = build_crystal(rs, lam)
    sub = demazure_subcrystal(rs, full, word, lam)
    subs = [demazure_subcrystal(rs, build_crystal(rs, mu), w, mu) for mu, w in factors]
    top = tuple(map(sum, zip(*(mu for mu, _ in factors))))
    comp = component_of(tensor_crystal(rs, *subs), top)
    return [read_all(b) for b in (full, sub, comp)]


@pytest.mark.parametrize("family,rank,lam,word,factors", ALL_READ,
                         ids=["%s%d-%s" % (f, n, ",".join(map(str, lam)))
                              for f, n, lam, _, _ in ALL_READ])
def test_all_read(benchmark, family, rank, lam, word, factors):
    rs = root_system(family, rank)
    weights, edges = crystal_check_item(rs, lam, word, factors)[0]
    assert len(weights) == len(reference.build_crystal(rs, lam).vertices)
    benchmark(crystal_check_item, rs, lam, word, factors)


def operator_calls(b, which):
    """(node, vertex) for every pair, or for the discovery edge of each vertex."""
    if which == "every":
        return [(i, v) for v in b.vertices for i in range(1, b.vertices[0].rank + 1)]
    seen, calls = {b.highest}, []
    for u, v, i in b.edges:
        if v not in seen:
            seen.add(v)
            calls.append((i, u))
    return calls


@pytest.mark.parametrize("how", ("package", "fraction"))
@pytest.mark.parametrize("which", ("every", "discovery"))
def test_root_operator_f(benchmark, how, which):
    rs = root_system("D", 4)
    calls = operator_calls(build_crystal(rs, (1, 1, 1, 1)), which)
    assert len(calls) == {"every": 4 * 4096, "discovery": 4095}[which]
    operator = root_operator_f
    if how == "fraction":
        operator = fraction_crystal.root_operator_f
        calls = [(i, fraction_crystal.Path(v.steps, v.rank)) for i, v in calls]
    benchmark.extra_info["calls"] = len(calls)

    def run():  # each result is dropped at once, so no pile of new paths wakes the collector
        for i, v in calls:
            operator(rs, i, v)

    benchmark(run)
