"""pytest-benchmark timings of the relation sets.  Not part of the test run
(the file name does not match ``test_*.py``); run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_relations.py --benchmark-only

It times relations_M at A1 mu = (-x,), k = 1, for x = 10, 20, 30 (42,677
rows at x = 30), and each of the four sets of one E8 presentation.
"""

import pytest

from demazure.relations import (demazure_p, relations_M, relations_Mpp,
                                relations_Mprime, simplified_demazure_relations)
from demazure.rootdata import root_system

A1 = root_system("A", 1)
E8 = root_system("E", 8)
E8_MU, E8_K = (1, 0, 0, 0, 0, 0, 0, -1), 1


@pytest.mark.parametrize("x", (10, 20, 30))
def test_relations_m_a1(benchmark, x):
    fam = demazure_p(A1, (-x,), 1)
    benchmark(relations_M, fam)


@pytest.mark.parametrize("build", (relations_M, relations_Mprime, relations_Mpp),
                         ids=lambda f: f.__name__)
def test_e8_family_sets(benchmark, build):
    benchmark(build, demazure_p(E8, E8_MU, E8_K))


def test_e8_simplified(benchmark):
    benchmark(simplified_demazure_relations, E8, E8_MU, E8_K)
