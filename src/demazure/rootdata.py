"""Root system tables for the finite simple types A-G, one row of ``_FAMILIES`` each.

Conventions used throughout the package:

* weights are integer tuples in the fundamental-weight basis,
* roots are integer tuples in the simple-root basis,
* the invariant form is normalised so the highest root has squared
  length 2; then d(alpha) = 2/(alpha,alpha) lies in {1, 2, 3},
* nodes are 1-based, numbered along the diagram as usual (short roots
  sit at the high end of the chain in types B and G, the long root in
  type C; in types E the branch node 2 hangs off node 4),
* the Cartan matrix is stored as A[i][j] = alpha_j(h_i), so column j
  holds the fundamental coordinates of alpha_j,
* the pairing of a weight mu with the simple coroot h_i is its
  coordinate mu[i-1], and ``theta_weight`` holds the fundamental
  coordinates of the highest root theta.

Everything is exact integer arithmetic, the root closure included.  No
floats.  ``root_coordinates`` inverts no matrix: the Killing form is 2h^v
times the normalised form, so sum_{alpha>0} (lam, alpha) alpha = h^v lam with
h^v = 1 + theta(h_1 + ... + h_n), and (lam, alpha) = lam(h_alpha)/d(alpha).
Its entries are ints, and Fractions only off the root lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import lcm
from operator import mul, sub

Weight = tuple[int, ...]

# positive roots a RootSystem may have: A62 (1,953 roots) builds in about 1 s
_ROOT_BUDGET = 2000


def _chain(n):
    return [(i, i + 1) for i in range(n - 1)]


# one row per type: the ranks it has, then as functions of the rank its number of
# positive roots (the guard after the closure), its diagram edges (0-based) and the
# lengths d_i = 2/(alpha_i,alpha_i)
_FAMILIES = {
    "A": (lambda n: n >= 1, lambda n: n * (n + 1) // 2, _chain, lambda n: (1,) * n),
    "B": (lambda n: n >= 2, lambda n: n * n, _chain, lambda n: (1,) * (n - 1) + (2,)),
    "C": (lambda n: n >= 2, lambda n: n * n, _chain, lambda n: (2,) * (n - 1) + (1,)),
    "D": (lambda n: n >= 4, lambda n: n * (n - 1),
          lambda n: _chain(n - 1) + [(n - 3, n - 1)], lambda n: (1,) * n),
    "E": (lambda n: n in (6, 7, 8), lambda n: {6: 36, 7: 63, 8: 120}[n],
          lambda n: [(0, 2), *_chain(n)[2:], (1, 3)], lambda n: (1,) * n),
    "F": (lambda n: n == 4, lambda n: 24, _chain, lambda n: (1, 1, 2, 2)),
    "G": (lambda n: n == 2, lambda n: 6, _chain, lambda n: (3, 1)),
}


def _at_least_1(name, value):
    """ValueError unless value is an int >= 1: of type int itself, so not a bool or a float."""
    if type(value) is not int or value < 1:
        raise ValueError("%s must be an int >= 1, not %r" % (name, value))


@dataclass(frozen=True, order=True)
class Root:
    """A root, stored by its integer coordinates in the simple-root basis."""

    coords: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __repr__(self) -> str:
        return f"Root{self.coords}"


def _dynkin(family: str, rank: int) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """Diagram edges (0-based) and the length data d_i = 2/(alpha_i,alpha_i)."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    ranks_ok, _, edges, d = _FAMILIES[family]
    if type(rank) is not int or not ranks_ok(rank):  # not a bool or a float either
        raise ValueError(f"rank {rank} invalid for family {family}")
    return edges(rank), d(rank)


def _cartan(edges: list[tuple[int, int]], d: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(d)
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        # A[i][j] = -1 when alpha_j is at least as long, else -d_i/d_j
        a[i][j] = -1 if d[i] <= d[j] else -(d[i] // d[j])
        a[j][i] = -1 if d[j] <= d[i] else -(d[j] // d[i])
    return tuple(tuple(row) for row in a)


class RootSystem:
    """Positive roots, lengths and coroot pairings of one simple type."""

    def __init__(self, family: str, rank: int):
        edges, d_simple = _dynkin(family, rank)
        npos = _FAMILIES[family][1](rank)
        if npos > _ROOT_BUDGET:
            raise ValueError(f"{family}{rank} has {npos} positive roots, more than the "
                             f"budget of {_ROOT_BUDGET}")
        self.family = family
        self.rank = rank
        self.d_simple = d_simple
        self.cartan = _cartan(edges, d_simple)
        self._close()

    def _close(self) -> None:
        """Reflect upwards from the simple roots.  A positive root that is not
        simple pairs positively with some h_i, and s_i of it is a lower
        positive root, so every positive root is reached.  A reflected root
        keeps the length d of the root it came from."""
        n, a, ds = self.rank, self.cartan, self.d_simple
        expected = _FAMILIES[self.family][1](n)
        found = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        d = dict(zip(found, ds))
        for m in found:  # found grows while it is read
            if len(found) > expected:
                break
            for i in range(n):
                pair = sum(a[i][j] * m[j] for j in range(n))
                if pair < 0:
                    refl = m[:i] + (m[i] - pair,) + m[i + 1:]
                    if refl not in d:
                        found.append(refl)
                    if d.setdefault(refl, d[m]) != d[m]:
                        raise AssertionError(f"two lengths for the root {refl}")
        if len(found) != expected:
            raise AssertionError(
                f"{self.family}{n}: {len(found)} positive roots, expected {expected}")
        # h_alpha = sum_i (d_alpha m_i / d_i) h_i must be integral
        if any(d[m] * c % di for m in found for c, di in zip(m, ds)):
            raise AssertionError(f"{self.family}{n}: non-integral coroot pairing")

        found.sort(key=lambda m: (sum(m), m))
        self.positive_roots: tuple[Root, ...] = tuple(map(Root, found))
        self._by_coords = tuple(sorted(range(len(found)), key=found.__getitem__))  # Root order
        self._d: dict[Root, int] = {r: d[r.coords] for r in self.positive_roots}
        self._d_at: tuple[int, ...] = tuple(self._d.values())  # in positive_roots order
        self._coroot: dict[Root, tuple[int, ...]] = {
            r: tuple(d[r.coords] * c // di for c, di in zip(r.coords, ds))
            for r in self.positive_roots}
        # row j: wt_j(h_alpha) for every positive root alpha
        self._pairing_table = tuple(zip(*self._coroot.values()))

        heights = [r.height for r in self.positive_roots]
        if heights.count(max(heights)) != 1:
            raise AssertionError("highest root not unique")
        self.theta = self.positive_roots[-1]
        self.theta_weight: Weight = self.root_weight(self.theta)
        if self._d[self.theta] != 1 or any(c < 0 for c in self.theta_weight):
            raise AssertionError("highest root must be long and dominant")
        # alpha_0..alpha_n as (alpha_i(h_1..h_n), delta coefficient, alpha_i(h_0)),
        # alpha_0 = delta - theta, h_0 = K - h_theta: the one home of the alpha_i
        theta_co = self._coroot[self.theta]
        self._alphas: tuple[tuple[int, ...], ...] = tuple(
            f + (int(not i), -sum(map(mul, f, theta_co)))
            for i, f in enumerate([tuple(-t for t in self.theta_weight), *zip(*a)]))

    # -- basic queries ----------------------------------------------------

    def check_node(self, i: int) -> int:
        """i itself; ValueError unless it is a finite node: an int in 1..rank, not a bool."""
        if type(i) is not int or not 1 <= i <= self.rank:
            raise ValueError("node %r is not a finite node" % (i,))
        return i

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, i in 1..rank."""
        self.check_node(i)
        return Root(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def d(self, root: Root) -> int:
        """2/(alpha,alpha), one of 1, 2, 3."""
        return self._d[root]

    def coroot_vector(self, root: Root) -> tuple[int, ...]:
        """Pairings (wt_1(h_alpha), ..., wt_n(h_alpha)) of the fundamental weights."""
        return self._coroot[root]

    def pairing(self, mu, root: Root):
        """mu(h_alpha) for mu in fundamental-weight coordinates."""
        cor = self._coroot[root]
        return sum(m * c for m, c in zip(mu, cor, strict=True))

    def pairings(self, mu) -> tuple[int, ...]:
        """mu(h_alpha) for every positive root alpha, in positive_roots order;
        ValueError when mu does not have rank coordinates."""
        out = (0,) * len(self.positive_roots)
        for m, row in zip(mu, self._pairing_table, strict=True):
            if m:
                out = [o + m * c for o, c in zip(out, row)]
        return tuple(out)

    def check_weight(self, mu) -> Weight:
        """mu as a tuple; ValueError when it does not have rank coordinates."""
        mu = tuple(mu)
        if len(mu) != self.rank:
            raise ValueError(f"weight {mu} has {len(mu)} coordinates, rank is {self.rank}")
        return mu

    def root_weight(self, root: Root) -> Weight:
        """Fundamental-weight coordinates of a root."""
        return tuple(sum(self.cartan[i][j] * root.coords[j] for j in range(self.rank))
                     for i in range(self.rank))

    def is_dominant(self, mu) -> bool:
        return all(c >= 0 for c in mu)

    # -- Weyl group action on weights -------------------------------------

    def reflect(self, i: int, mu):
        """Simple reflection s_i on fundamental-weight coordinates, i in 1..rank."""
        c = mu[self.check_node(i) - 1]
        out = tuple(map(sub, mu, map(mul, repeat(c), self._alphas[i])))
        return out if len(out) == self.rank else self.check_weight(mu)  # raises ValueError

    def weyl_apply(self, word, mu):
        """Apply s_{word[0]} ... s_{word[-1]} to mu (rightmost letter acts first)."""
        for i in reversed(word):
            mu = self.reflect(i, mu)
        return mu

    def root_coordinates(self, diff) -> tuple:
        """Simple-root coordinates of a fundamental-coordinate vector."""
        total, norm = self._scaled_coordinates(diff)
        return tuple(t // norm if t % norm == 0 else Fraction(t, norm) for t in total)

    def _scaled_coordinates(self, diff) -> tuple[tuple[int, ...], int]:
        """(N times the simple-root coordinates of diff, N) with N = lcm(d) h^v:
        the sum of (lcm(d)/d(alpha)) diff(h_alpha) alpha, all in integers."""
        scale = lcm(*self.d_simple)
        total = [0] * self.rank
        for p, root in zip(self.pairings(diff), self.positive_roots):
            if p:
                p *= scale // self._d[root]
                total = [t + p * c for t, c in zip(total, root.coords)]
        return tuple(total), scale * (1 + sum(self._coroot[self.theta]))

    def __reduce__(self):
        return root_system, (self.family, self.rank)

    def __repr__(self) -> str:
        return f"RootSystem({self.family}{self.rank})"


@lru_cache(maxsize=None, typed=True)
def root_system(family: str, rank: int) -> RootSystem:
    """Build (and cache) the root system of the given family and rank."""
    return RootSystem(family, rank)
