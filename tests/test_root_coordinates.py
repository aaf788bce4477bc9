"""Root coordinates from the pairing table, against the Fraction inverse
Cartan matrix they replace, and ``g0_branch`` on scaled integer coordinates
against the earlier ``g0_branch`` on that matrix."""

import random
from fractions import Fraction

import pytest

import branch_reference as reference
from demazure.characters import demazure_character, g0_branch
from demazure.rootdata import RootSystem, root_system


# -- the Fraction inverse Cartan matrix, verbatim from before the identity -----

def inverse_cartan_root_coordinates(self, diff) -> tuple[Fraction, ...]:
    """Simple-root coordinates of a fundamental-coordinate vector."""
    if self._inv_cartan is None:
        self._inv_cartan = _invert(self.cartan)
    inv = self._inv_cartan
    n = self.rank
    return tuple(sum(inv[i][j] * diff[j] for j in range(n)) for i in range(n))


def _invert(a) -> tuple[tuple[Fraction, ...], ...]:
    n = len(a)
    work = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


class InverseCartanRootSystem(RootSystem):
    _inv_cartan = None
    root_coordinates = inverse_cartan_root_coordinates


GRID = ([("A", n) for n in range(1, 21)] + [("B", n) for n in range(2, 12)]
        + [("C", n) for n in range(2, 12)] + [("D", n) for n in range(4, 12)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

# dual Coxeter numbers, from the tables
DUAL_COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n - 1, "C": lambda n: n + 1,
                "D": lambda n: 2 * n - 2, "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
                "F": lambda n: 9, "G": lambda n: 4}


def _vectors(rs, rng, count=170):
    """Seeded fundamental-coordinate vectors: half of them arbitrary (mostly
    off the root lattice), half integer combinations of the simple roots."""
    n = rs.rank
    out = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(count // 2)]
    for _ in range(count - count // 2):
        c = [rng.randint(-4, 4) for _ in range(n)]
        out.append(tuple(sum(rs.cartan[i][j] * c[j] for j in range(n)) for i in range(n)))
    return out


@pytest.mark.parametrize("family,rank", GRID)
def test_dual_coxeter_number(family, rank):
    rs = root_system(family, rank)
    assert 1 + sum(rs.coroot_vector(rs.theta)) == DUAL_COXETER[family](rank)


@pytest.mark.parametrize("family,rank", GRID)
def test_root_coordinates_match_inverse_cartan(family, rank):
    rs, old = root_system(family, rank), InverseCartanRootSystem(family, rank)
    rng = random.Random("%s%d" % (family, rank))
    off = 0
    for diff in _vectors(rs, rng):
        got, want = rs.root_coordinates(diff), old.root_coordinates(diff)
        assert got == want
        # an int exactly where the oracle's Fraction is integral
        assert [type(c) is int for c in got] == [c.denominator == 1 for c in want]
        off += any(c.denominator != 1 for c in want)
    for r in rs.positive_roots:
        got = rs.root_coordinates(rs.root_weight(r))
        assert got == r.coords and all(type(c) is int for c in got)
    # the fundamental group is trivial only for E8, F4 and G2
    assert (off == 0) == ((family, rank) in {("E", 8), ("F", 4), ("G", 2)})


def test_root_coordinates_off_lattice_and_length():
    a1 = root_system("A", 1)
    got = a1.root_coordinates((1,))
    assert got == (Fraction(1, 2),) and type(got[0]) is Fraction
    assert a1.root_coordinates((2,)) == (1,) and type(a1.root_coordinates((2,))[0]) is int
    assert root_system("G", 2).root_coordinates((0, 0)) == (0, 0)
    for bad in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            root_system("A", 2).root_coordinates(bad)


# -- g0_branch on scaled coordinates, against the earlier g0_branch ------------

def _branch(branch, rs, char, nodes):
    try:
        return branch(rs, char, nodes)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2),
                                         ("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_g0_branch_matches_inverse_cartan(monkeypatch, family, rank):
    """``g0_branch`` reads integer scaled coordinates only, and its records
    are those of the earlier ``g0_branch`` (``branch_reference``) run on the
    Fraction inverse Cartan matrix."""
    rs = RootSystem(family, rank)
    rng = random.Random("branch %s%d" % (family, rank))
    # rank 3 and 4 stay at level 1 with coordinate sum -2.. to keep it quick
    low, most = (-4, 2) if rank == 2 else (-2, 1)
    cases = []
    while len(cases) < 8:
        # mostly anti-dominant, so most slices decompose; some mixed signs
        mu = tuple(-rng.randint(0, 2) if rng.random() < 0.85 else rng.randint(-2, 2)
                   for _ in range(rank))
        if sum(mu) >= low:
            nodes = tuple(i for i in range(1, rank + 1) if rng.random() < 0.6)
            cases.append((demazure_character(rs, mu, rng.randint(1, most)), nodes))
    seen = []
    new_scaled = RootSystem._scaled_coordinates

    def recording_scaled(self, diff):
        coords, norm = new_scaled(self, diff)
        seen.extend(coords + (norm,))
        return coords, norm

    monkeypatch.setattr(RootSystem, "_scaled_coordinates", recording_scaled)
    new = [_branch(g0_branch, rs, char, nodes) for char, nodes in cases]
    assert seen and all(type(c) is int for c in seen)
    old_seen = []

    def recording_inverse(self, diff):
        coords = inverse_cartan_root_coordinates(self, diff)
        old_seen.extend(coords)
        return coords

    monkeypatch.setattr(RootSystem, "_inv_cartan", None, raising=False)
    monkeypatch.setattr(RootSystem, "root_coordinates", recording_inverse)
    old = [_branch(reference.g0_branch, rs, char, nodes) for char, nodes in cases]
    # within one slice every difference lies in the root lattice
    assert old_seen and all(c.denominator == 1 for c in old_seen)
    assert new == old
    assert any(isinstance(records, tuple) and records for records in new)
    for records in new:
        if isinstance(records, tuple):
            assert [r.grade for r in records] == sorted(r.grade for r in records)
