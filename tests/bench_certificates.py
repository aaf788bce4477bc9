"""pytest-benchmark timings of embedding certificates and of the packed
product.  Not part of the test run (the file name does not match
``test_*.py``); run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_certificates.py --benchmark-only

For each of A3, B3, C3 and G2 it takes the admissible candidate of the
``embedding-scan`` universe whose product has the most term pairs (3,364,
800, 694 and 3,249).  It times ``embedding_certificate`` on it with a warm
character memo, and ``GradedCharacter.tensor`` of the first two factors
against the tuple loop in ``tests/tensor_reference.py``.
"""

import pytest

import tensor_reference
from demazure.characters import (GradedCharacter, demazure_character,
                                 embedding_certificate)
from demazure.rootdata import root_system

CANDIDATES = {
    "A3": (("A", 3), (-2, -2, -2), ((-1, -1, -1), (-1, -1, -1)), 1),
    "B3": (("B", 3), (-1, -1, -1), ((-1, 0, -1), (0, -1, 0)), 1),
    "C3": (("C", 3), (-1, -1, -1), ((-1, 0, -1), (0, -1, 0), (0, 0, 0)), 2),
    "G2": (("G", 2), (-2, -2), ((-1, -1), (-1, -1)), 1),
}


@pytest.mark.parametrize("name", CANDIDATES)
def test_certificate_warm_memo(benchmark, name):
    system, mu, split, r = CANDIDATES[name]
    args = (root_system(*system), mu, split, r)
    assert embedding_certificate(*args).certified  # fills the memo
    benchmark(embedding_certificate, *args)


@pytest.mark.parametrize("product", (GradedCharacter.tensor, tensor_reference.tensor),
                         ids=("packed", "reference"))
@pytest.mark.parametrize("name", CANDIDATES)
def test_tensor_of_two_factors(benchmark, name, product):
    system, _, split, r = CANDIDATES[name]
    rs = root_system(*system)
    benchmark(product, *(demazure_character(rs, part, r) for part in split[:2]))
