"""pytest-benchmark timings of ``g0_branch`` on the four ``module-sweep``
characters that take longest to branch.  Not part of the test run (the file
name does not match ``test_*.py``); run it on its own:

    PYTHONPATH=src python -m pytest tests/bench_branch.py --benchmark-only

Each character is built once, before the timing, and branched on all of its
finite nodes, as ``module-sweep`` does.  Their weights come back in about
2.6 grades each, so these cells show what reading a weight's mirrors,
balance step and walk once per call saves over once per term.
"""

import pytest

from demazure.characters import demazure_character, g0_branch
from demazure.rootdata import root_system

# (type, rank, mu, level): 1,273, 988, 969 and 527 terms
MODULES = [("C", 3, (-2, -1, -2), 2), ("A", 3, (-2, -2, -3), 2),
           ("C", 3, (-1, -2, -1), 1), ("A", 2, (-4, -4), 1)]


@pytest.mark.parametrize("family,rank,mu,k", MODULES,
                         ids=["%s%d-%s-k%d" % (f, n, ",".join(map(str, mu)), k)
                              for f, n, mu, k in MODULES])
def test_g0_branch(benchmark, family, rank, mu, k):
    rs = root_system(family, rank)
    char = demazure_character(rs, mu, k)
    nodes = range(1, rank + 1)
    records = benchmark(g0_branch, rs, char, nodes)
    assert sum(r.multiplicity * r.dimension for r in records) == char.dimension()
