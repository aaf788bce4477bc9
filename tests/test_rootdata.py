import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from demazure.crystal import build_crystal
from demazure.relations import demazure_p
from demazure.rootdata import _FAMILIES, Root, RootSystem, Weight, root_system

from capped_run import run_capped
from realizations import oracle_d, oracle_pairing, realization

COUNTS = [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10),
    ("B", 2, 4), ("B", 3, 9), ("B", 4, 16),
    ("C", 2, 4), ("C", 3, 9), ("C", 4, 16),
    ("D", 4, 12), ("D", 5, 20),
    ("E", 6, 36), ("E", 7, 63), ("E", 8, 120),
    ("F", 4, 24), ("G", 2, 6),
]


@pytest.mark.parametrize("family,rank,npos", COUNTS)
def test_positive_root_counts(family, rank, npos):
    rs = root_system(family, rank)
    assert len(rs.positive_roots) == npos
    assert len(set(rs.positive_roots)) == npos


@pytest.mark.parametrize("family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 3),
                                         ("E", 5), ("E", 9), ("F", 3), ("G", 3),
                                         ("H", 2)])
def test_rank_validation(family, rank):
    with pytest.raises(ValueError):
        root_system(family, rank)


RANK_CALLS = ['RootSystem("A", 2.5)', 'RootSystem("B", 2.0)', 'RootSystem("A", True)',
              'root_system("A", True)']
REFUSALS = ["rank 2.5 invalid for family A", "rank 2.0 invalid for family B",
            "rank True invalid for family A", "rank True invalid for family A"]


def test_rank_must_be_an_int():
    """A float or bool rank raises the rank ValueError, in a fresh process so
    that the first pass runs before root_system("A", 1) is cached: rank True
    must neither build a RootSystem nor hand back the cached A1."""
    script = ("from demazure.rootdata import RootSystem, root_system\n"
              "def refusal(call):\n"
              "    try:\n"
              "        return repr(eval(call))\n"
              "    except ValueError as exc:\n"
              "        return str(exc)\n"
              "calls = %r\n"
              "first = [refusal(call) for call in calls]\n"
              "root_system('A', 1)\n"
              "print(first + [refusal(call) for call in calls])" % RANK_CALLS)
    proc, _ = run_capped("-c", script, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "%r\n" % (REFUSALS * 2)


def test_a2_all_long():
    rs = root_system("A", 2)
    assert [r.coords for r in rs.positive_roots] == [(0, 1), (1, 0), (1, 1)]
    assert all(rs.d(r) == 1 for r in rs.positive_roots)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_is_positive_on_roots_and_their_negatives(family, rank):
    rs = root_system(family, rank)
    for root in rs.positive_roots:
        assert root.is_positive
        assert not Root(tuple(-c for c in root.coords)).is_positive
    assert Root((0,) * rank).is_positive and not Root((1, -1) + (0,) * (rank - 2)).is_positive


def test_c2_lengths_and_pairings():
    rs = root_system("C", 2)
    table = {r.coords: (rs.d(r), rs.coroot_vector(r)) for r in rs.positive_roots}
    # alpha1 and alpha1+alpha2 short, alpha2 and 2alpha1+alpha2 long
    assert table == {
        (1, 0): (2, (1, 0)),
        (0, 1): (1, (0, 1)),
        (1, 1): (2, (1, 2)),
        (2, 1): (1, (1, 1)),
    }
    assert rs.theta.coords == (2, 1)


def test_g2_lengths():
    rs = root_system("G", 2)
    d = {r.coords: rs.d(r) for r in rs.positive_roots}
    assert d == {(1, 0): 3, (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1, (3, 2): 1}
    assert rs.theta.coords == (3, 2)
    assert rs.root_weight(rs.theta) == (0, 1)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3),
                                         ("B", 2), ("B", 3),
                                         ("C", 2), ("C", 3),
                                         ("D", 4), ("F", 4), ("G", 2)])
def test_realization_oracle(family, rank):
    """Lengths and coroot pairings agree with explicit Euclidean vectors."""
    rs = root_system(family, rank)
    real = realization(family, rank)
    for root in rs.positive_roots:
        assert oracle_d(real, root.coords) == rs.d(root)
        for i in range(rank):
            unit = tuple(1 if j == i else 0 for j in range(rank))
            assert oracle_pairing(real, unit, root.coords) == rs.coroot_vector(root)[i]


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in COUNTS])
def test_theta_is_dominant_long_and_highest(family, rank):
    rs = root_system(family, rank)
    assert rs.d(rs.theta) == 1
    wt = rs.root_weight(rs.theta)
    assert all(c >= 0 for c in wt)
    heights = [r.height for r in rs.positive_roots]
    assert rs.theta.height == max(heights) and heights.count(max(heights)) == 1


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)])
def test_reflections_permute_roots(family, rank):
    rs = root_system(family, rank)
    wts = {rs.root_weight(r) for r in rs.positive_roots}
    wts |= {tuple(-c for c in w) for w in wts}
    for i in range(1, rank + 1):
        assert {rs.reflect(i, w) for w in wts} == wts


def test_pairing_matches_root_weight():
    # mu(h_alpha_i) is the i-th fundamental coordinate
    for family, rank, _ in COUNTS:
        rs = root_system(family, rank)
        assert rs.theta_weight == rs.root_weight(rs.theta)
        for r in rs.positive_roots:
            wt = rs.root_weight(r)
            for i in range(1, rank + 1):
                assert rs.pairing(wt, rs.simple_root(i)) == wt[i - 1]
            assert [rs.pairing(tuple(1 if j == i else 0 for j in range(rank)), r)
                    for i in range(rank)] == list(rs.coroot_vector(r))


def test_weyl_apply_composition_order():
    rs = root_system("A", 2)
    mu = (1, -2)
    assert rs.weyl_apply((1, 2), mu) == rs.reflect(1, rs.reflect(2, mu))
    assert rs.weyl_apply((), mu) == mu


def test_simple_reflection_involution():
    rs = root_system("C", 3)
    for mu in itertools.product((-2, 0, 1, 3), repeat=3):
        for i in (1, 2, 3):
            assert rs.reflect(i, rs.reflect(i, mu)) == mu


@pytest.mark.parametrize("mu", [(1,), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5)])
def test_reflect_rejects_wrong_length(mu):
    # the table rows are longer than a weight: no row may truncate or pad it
    with pytest.raises(ValueError, match="coordinates"):
        root_system("A", 2).reflect(1, mu)


def test_root_coordinates_inverse():
    for family, rank in [("A", 3), ("C", 2), ("G", 2), ("D", 4)]:
        rs = root_system(family, rank)
        for r in rs.positive_roots:
            coords = rs.root_coordinates(rs.root_weight(r))
            assert tuple(int(c) for c in coords) == r.coords


def test_simple_root_accessor_bounds():
    rs = root_system("A", 2)
    assert rs.simple_root(1) == Root((1, 0))
    with pytest.raises(ValueError):
        rs.simple_root(0)
    with pytest.raises(ValueError):
        rs.simple_root(3)


# True and 1.0 equal node 1 but are not nodes; the check asks for an int
@pytest.mark.parametrize("call", [
    lambda rs: rs.simple_root(True), lambda rs: rs.simple_root(1.0),
    lambda rs: rs.reflect(True, (1, 0)), lambda rs: rs.reflect(1.0, (1, 0)),
], ids=["simple-root-bool", "simple-root-float", "reflect-bool", "reflect-float"])
def test_bool_and_float_nodes_are_rejected(call):
    with pytest.raises(ValueError, match="is not a finite node"):
        call(root_system("A", 2))


class FractionClosureRootSystem(RootSystem):
    """The root system with the earlier closure: all roots of both signs,
    then lengths from a Fraction norm.  ``_close`` is kept verbatim as the
    differential oracle."""

    def _close(self) -> None:
        n = self.rank
        a = self.cartan
        seen: set[tuple[int, ...]] = set()
        frontier = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        seen.update(frontier)
        while frontier:
            nxt = []
            for m in frontier:
                for i in range(n):
                    pair = sum(a[i][j] * m[j] for j in range(n))
                    refl = tuple(m[j] - pair if j == i else m[j] for j in range(n))
                    if refl not in seen:
                        seen.add(refl)
                        nxt.append(refl)
            frontier = nxt
        for m in seen:
            if not (all(c >= 0 for c in m) or all(c <= 0 for c in m)):
                raise AssertionError(f"mixed-sign root {m}")
        pos = sorted((m for m in seen if all(c >= 0 for c in m)),
                     key=lambda m: (sum(m), m))
        expected = _FAMILIES[self.family][1](n)
        if len(pos) != expected or len(seen) != 2 * expected:
            raise AssertionError(
                f"{self.family}{n}: {len(pos)} positive roots, expected {expected}")

        self.positive_roots: tuple[Root, ...] = tuple(Root(m) for m in pos)
        self._d: dict[Root, int] = {}
        self._coroot: dict[Root, tuple[int, ...]] = {}
        for root in self.positive_roots:
            m = root.coords
            norm = sum(Fraction(a[i][j], self.d_simple[i]) * m[i] * m[j]
                       for i in range(n) for j in range(n))
            d_alpha = Fraction(2) / norm
            if d_alpha.denominator != 1 or d_alpha.numerator not in (1, 2, 3):
                raise AssertionError(f"bad length for {root}: d={d_alpha}")
            d_alpha = int(d_alpha)
            cor = []
            for i in range(n):
                c = Fraction(d_alpha * m[i], self.d_simple[i])
                if c.denominator != 1:
                    raise AssertionError(f"non-integral coroot pairing for {root}")
                cor.append(int(c))
            self._d[root] = d_alpha
            self._coroot[root] = tuple(cor)

        heights = [r.height for r in self.positive_roots]
        if heights.count(max(heights)) != 1:
            raise AssertionError("highest root not unique")
        self.theta = self.positive_roots[-1]
        self.theta_weight: Weight = self.root_weight(self.theta)
        if self._d[self.theta] != 1 or any(c < 0 for c in self.theta_weight):
            raise AssertionError("highest root must be long and dominant")
        self._inv_cartan: tuple[tuple[Fraction, ...], ...] | None = None


CLOSURE_SYSTEMS = sorted({(f, r) for f, r, _ in COUNTS}
                         | {(f, r) for f in "BC" for r in range(2, 9)}
                         | {("D", r) for r in range(4, 9)} | {("A", 20), ("D", 20)})


@pytest.mark.parametrize("family,rank", CLOSURE_SYSTEMS)
def test_closure_matches_fraction_reference(family, rank):
    new, old = RootSystem(family, rank), FractionClosureRootSystem(family, rank)
    assert new.positive_roots == old.positive_roots
    assert [new.d(r) for r in new.positive_roots] == [old.d(r) for r in old.positive_roots]
    assert ([new.coroot_vector(r) for r in new.positive_roots]
            == [old.coroot_vector(r) for r in old.positive_roots])
    assert new.theta == old.theta and new.theta_weight == old.theta_weight


@pytest.mark.parametrize("family,rank", [(f, r) for f, r, _ in COUNTS])
def test_pairings_match_pairing(family, rank):
    rs = root_system(family, rank)
    rng = random.Random(rank * 100 + ord(family))
    for _ in range(20):
        mu = tuple(rng.randint(-4, 4) for _ in range(rank))
        assert rs.pairings(mu) == tuple(rs.pairing(mu, r) for r in rs.positive_roots)
    for bad in ((0,) * (rank - 1), (0,) * (rank + 1)):
        with pytest.raises(ValueError):
            rs.pairings(bad)


def test_root_budget():
    # A62 (1,953 positive roots) is the largest type A under the budget
    for family, rank in [("A", 63), ("B", 45), ("C", 45), ("D", 46), ("A", 5000)]:
        with pytest.raises(ValueError, match="positive roots"):
            root_system(family, rank)



def test_root_system_pickles_and_copies_as_the_cached_instance():
    # a p family compares root systems by identity, and the crystal memos kept
    # on a root system must not ride along in a pickle of what holds it
    assert pickle.loads(pickle.dumps(RootSystem("A", 3))) is root_system("A", 3)
    fam = demazure_p(root_system("A", 2), (1, -1), 1)
    assert pickle.loads(pickle.dumps(fam)) == fam
    assert copy.deepcopy(fam) == fam
    rs = RootSystem("A", 3)
    fam = demazure_p(rs, (1, -1, 0), 1)
    size = len(pickle.dumps(fam))
    build_crystal(rs, (2, 1, 1))
    assert len(pickle.dumps(fam)) == size
