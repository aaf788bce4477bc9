"""Finite and affine weight arithmetic.

An affine weight is a triple (finite part, level, degree): the weight
finite + level * Lambda_0 + degree * delta of the untwisted affine
algebra.  Node 0 is the affine node; its coroot pairing is
level - finite(h_theta), and reflecting at it shifts the finite part by
a multiple of theta while the degree absorbs the delta bookkeeping.

Both reflections read alpha_i from ``rs._alphas``, and every chamber walk is
the one loop ``_walk`` on an integer vector; an affine weight enters it as
(finite, degree, pairing at node 0), the layout of that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub

from .rootdata import Root, RootSystem, _at_least_1

_STEP_LIMIT = 10**6  # safety guard for the dominance walk


@dataclass(frozen=True)
class AffineWeight:
    finite: tuple[int, ...]
    level: int
    degree: int

    def __repr__(self) -> str:
        return f"AffineWeight({self.finite}, level={self.level}, degree={self.degree})"


def sign_sets(rs: RootSystem, mu) -> tuple[tuple[Root, ...], tuple[Root, ...]]:
    """Positive roots with mu(h_alpha) >= 0 resp. <= 0.

    Roots with pairing zero belong to both tuples.
    """
    signed = tuple(signed_roots(rs, mu))
    return (tuple(a for a, sign, _ in signed if sign == "-"),
            tuple(a for a, sign, _ in signed if sign == "+"))


def signed_roots(rs: RootSystem, mu):
    """Yield (root, sign, x) for every relation family mu imposes, in
    positive_roots order: sign '+' with x = -mu(h_alpha) where
    mu(h_alpha) <= 0, sign '-' with x = mu(h_alpha) where mu(h_alpha) >= 0,
    both ('+' first) at pairing zero.  So x >= 0 always."""
    roots = rs.positive_roots
    return ((roots[j], sign, x) for j, sign, x in _signed_positions(rs.pairings(mu)))


def _signed_positions(pairs, order=None):
    """signed_roots on rs.pairings(mu), naming roots by position, in `order` if given."""
    for j in order or range(len(pairs)):
        pair = pairs[j]
        if pair <= 0:
            yield j, "+", -pair
        if pair >= 0:
            yield j, "-", pair


def affine_pairing(rs: RootSystem, w: AffineWeight, i: int) -> int:
    """Pairing of w with the coroot h_i, i in 0..rank; ValueError for any other node."""
    if i == 0:
        return w.level - rs.pairing(w.finite, rs.theta)
    return w.finite[rs.check_node(i) - 1]


def affine_reflect(rs: RootSystem, i: int, w: AffineWeight) -> AffineWeight:
    """Simple affine reflection s_i, i in 0..rank.  Preserves the level."""
    m, alpha = affine_pairing(rs, w, i), rs._alphas[i]
    finite = tuple(c - m * a for c, a in zip(w.finite, alpha[:rs.rank], strict=True))
    return AffineWeight(finite, w.level, w.degree - m * alpha[rs.rank])


def is_affine_dominant(rs: RootSystem, w: AffineWeight) -> bool:
    return all(affine_pairing(rs, w, i) >= 0 for i in range(rs.rank + 1))


def _walk(v, alphas, nodes, pick=None):
    """v -> v - v(h_i) alphas[i], v(h_i) = v[i - 1], at a node of negative
    pairing until none is left; return (v, word), nodes in the order applied."""
    word: list[int] = []
    for _ in range(_STEP_LIMIT):
        negative = [i for i in nodes if v[i - 1] < 0]
        if not negative:
            return v, tuple(word)
        i = negative[0] if pick is None else pick(negative)
        if not 0 <= i < len(alphas):
            raise ValueError("node %r is not a node of 0..%d" % (i, len(alphas) - 1))
        v = tuple(map(sub, v, map(mul, repeat(v[i - 1]), alphas[i])))
        word.append(i)
    raise RuntimeError("dominance walk exceeded step limit")


def dominance_algorithm(rs: RootSystem, w: AffineWeight, *, pick=None):
    """Walk w into the dominant chamber of the affine Weyl group.

    Returns (Lambda, word): Lambda is dominant and applying the word's
    reflections to Lambda rightmost-first reproduces w.  Requires an int
    level >= 1; level 0 orbits need not meet the dominant chamber, so they are
    rejected.  `pick` chooses among the strictly negative nodes (default:
    smallest index); any choice reaches the same Lambda.
    """
    fin, n = rs.check_weight(w.finite), rs.rank
    _at_least_1("level", w.level)
    v, word = _walk(fin + (w.degree, affine_pairing(rs, w, 0)), rs._alphas, range(n + 1), pick)
    return AffineWeight(v[:n], w.level, v[n]), word


def finite_dominance(rs: RootSystem, mu):
    """Conjugate mu into the dominant chamber of the finite Weyl group.

    Returns (lam, word) with rs.weyl_apply(word, mu) == lam; the inverse
    word (reversed) carries lam back to mu.
    """
    lam, steps = _walk(rs.check_weight(mu), rs._alphas, range(1, rs.rank + 1))
    return lam, steps[::-1]
