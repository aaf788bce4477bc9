"""pytest-benchmark timings of ``build_crystal`` against the earlier closure
of the straight path under every lowering operator, kept in
``tests/path_closure_reference.py``.  Not part of the test run (the file name
does not match ``test_*.py``); run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_crystal.py --benchmark-only

A2 (n, n) for n = 2, 4, 8 and 12 shows how the two scale with the number
of factors (2n) and vertices ((n+1)^3); B3 (0,2,1) and D4 (1,1,1,1), of 720
and 4,096 vertices, are the heaviest weights of the crystal-check benchmark
workload.  The fundamental crystals are built once, before the timing.
"""

import pytest

import path_closure_reference as reference
from demazure.crystal import build_crystal
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
