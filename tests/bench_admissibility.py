"""pytest-benchmark timings of ``is_r_admissible``, the one-pass version
against the earlier one kept in ``tests/admissibility_reference.py``.  Not
part of the test run (the file name does not match ``test_*.py``); run it
on its own:

    PYTHONPATH=src python -m pytest tests/bench_admissibility.py --benchmark-only

For each of A3, G2, B3 and C3 it builds the ``embedding-scan`` universe:
every weight of the box (coordinates within 2 for A3 and G2, within 1 for
B3 and C3), each candidate split into 1, 2 and 3 parts, at r = 1 and 2.
It times the median call, the item in the middle once the universe is
sorted by the number of records a report carries (then by k, mu, split and
r), with the part memo warm: a fresh report whose verdict alone is read
(``admissible``), and one whose records are read (``records``).
"""

import itertools

import pytest

import admissibility_reference as reference
from demazure import admissibility
from demazure.rootdata import root_system

BOXES = {"A3": (("A", 3), 2), "G2": (("G", 2), 2), "B3": (("B", 3), 1), "C3": (("C", 3), 1)}


def median_item(name):
    system, bound = BOXES[name]
    rs = root_system(*system)
    items = [(mu, split, r)
             for mu in itertools.product(range(-bound, bound + 1), repeat=rs.rank)
             for k in (1, 2, 3) for split in admissibility.candidate_splits(rs, mu, k)
             for r in (1, 2)]
    items.sort(key=lambda it: (len(admissibility.is_r_admissible(rs, *it).records),
                               len(it[1]), it))
    return rs, *items[len(items) // 2]


@pytest.mark.parametrize("read", ("admissible", "records"))
@pytest.mark.parametrize("check", (admissibility.is_r_admissible, reference.is_r_admissible),
                         ids=("one-pass", "reference"))
@pytest.mark.parametrize("name", BOXES)
def test_median_call(benchmark, name, check, read):
    args = median_item(name)
    assert check(*args) == reference.is_r_admissible(*args)  # warms the part memo
    benchmark(lambda: getattr(check(*args), read))
