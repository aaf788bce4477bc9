"""Differential test of ``build_crystal``, which searches the top component
of a product of fundamental crystals, against the earlier closure of the straight
path under every lowering operator, kept verbatim in
``path_closure_reference``.  The graphs must be equal as ``CrystalGraph``s:
the same vertices in the same order, the same edges in the same order and
the same highest vertex.  Also the hash of a ``Path`` however it is built,
and through pickling and copying."""

import copy
import itertools
import pickle
from math import prod

import pytest

import path_closure_reference as reference
from demazure.crystal import Path, build_crystal, root_operator_e, root_operator_f
from demazure.rootdata import root_system

# the 33 weights of the crystal-check benchmark workload: its fixed weights,
# then its seeded bands
BENCHMARK = [("D", 4, (1, 1, 1, 1)), ("C", 3, (1, 1, 1)), ("D", 4, (1, 0, 1, 1)),
             ("F", 4, (0, 0, 1, 0)), ("G", 2, (1, 2)), ("B", 3, (0, 2, 0)),
             ("A", 3, (2, 2, 0)), ("B", 3, (0, 1, 1)), ("A", 3, (0, 2, 1)),
             ("F", 4, (1, 0, 0, 0)), ("C", 3, (1, 0, 1)), ("G", 2, (0, 2)),
             ("D", 4, (0, 0, 1, 1)), ("G", 2, (1, 1)),
             ("A", 3, (0, 3, 0)), ("C", 3, (3, 0, 0)), ("D", 4, (1, 0, 0, 1)),
             ("A", 3, (1, 1, 1)), ("B", 3, (3, 0, 0)), ("G", 2, (3, 0)),
             ("C", 3, (0, 0, 2)), ("B", 3, (1, 1, 0)), ("D", 4, (3, 0, 0, 0)),
             ("C", 3, (0, 1, 1)), ("A", 3, (1, 1, 2)), ("G", 2, (2, 1)),
             ("B", 3, (1, 0, 2)), ("D", 4, (0, 1, 0, 1)),
             ("B", 3, (0, 2, 1)), ("D", 4, (0, 0, 2, 2)), ("D", 4, (0, 1, 1, 1)),
             ("C", 3, (0, 1, 2)), ("A", 3, (2, 2, 2))]
TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
         ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7),
         ("E", 8), ("F", 4), ("G", 2)]


def dim(rs, lam):
    """dim V(lam) by Weyl's formula."""
    return prod(rs.pairings([c + 1 for c in lam])) // prod(rs.pairings((1,) * rs.rank))


# every type: the dominant weights with entries up to 2 (up to 1 from rank
# 6) and at most 250 vertices, lambda = 0 and small fundamental weights
# among them; then the fundamental weights of 251 to 1,000 vertices
GRID = [(f, n, lam) for f, n in TYPES
        for lam in itertools.product(range(3 if n < 6 else 2), repeat=n)
        if dim(root_system(f, n), lam) <= 250]
GRID += [(f, n, lam) for f, n in TYPES
         for lam in (tuple(int(k == j) for k in range(1, n + 1)) for j in range(1, n + 1))
         if 250 < dim(root_system(f, n), lam) <= 1000]


def ids(cases):
    return ["%s%d-%s" % (f, n, "".join(map(str, lam))) for f, n, lam in cases]


def same(family, rank, lam):
    rs = root_system(family, rank)
    new, old = build_crystal(rs, lam), reference.build_crystal(rs, lam)
    assert new.vertices == old.vertices
    assert new.edges == old.edges
    assert new.highest == old.highest
    assert new == old
    return new


@pytest.mark.parametrize("family,rank,lam", BENCHMARK, ids=ids(BENCHMARK))
def test_benchmark_weights_match_closure(family, rank, lam):
    same(family, rank, lam)


@pytest.mark.parametrize("family,rank,lam", GRID, ids=ids(GRID))
def test_grid_matches_closure(family, rank, lam):
    b = same(family, rank, lam)
    assert len(b.vertices) == dim(root_system(family, rank), lam)


def test_path_hash_survives_pickle_and_copy():
    rs = root_system("B", 2)
    for v in build_crystal(rs, (1, 1)).vertices:
        for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert twin == v and hash(twin) == hash(v)


def test_equal_paths_hash_equal_however_built():
    rs = root_system("G", 2)
    for v in build_crystal(rs, (1, 1)).vertices:
        assert Path(v.steps, v.rank) == v and hash(Path(v.steps, v.rank)) == hash(v)
        for i in (1, 2):
            down = root_operator_f(rs, i, v)
            if down is not None:
                back = root_operator_e(rs, i, down)
                assert back == v and hash(back) == hash(v)
    a, b = Path.straight((1, 0)), Path.straight((0, 1))
    assert a.concat(b) == Path(((1, 0), (0, 1)), 2)
    assert hash(a.concat(b)) == hash(Path(((1, 0), (0, 1)), 2))
    # runs merge and the denominator reduces, so a*a is the straight path to 2a
    assert a.concat(a) == Path.straight((2, 0))
    assert hash(a.concat(a)) == hash(Path.straight((2, 0)))
    # the hash is the one the dataclass defined, so set and dict orders are as before
    assert hash(a.concat(b)) == hash((1, ((1, (1, 0)), (1, (0, 1))), 2))
