"""Finite and affine weight arithmetic.

An affine weight is a triple (finite part, level, degree): the weight
finite + level * Lambda_0 + degree * delta of the untwisted affine
algebra.  Node 0 is the affine node; its coroot pairing is
level - finite(h_theta), and reflecting at it shifts the finite part by
a multiple of theta while the degree absorbs the delta bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import Root, RootSystem

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
    pairs = tuple(zip(rs.positive_roots, rs.pairings(mu)))
    plus = tuple(a for a, pair in pairs if pair >= 0)
    minus = tuple(a for a, pair in pairs if pair <= 0)
    return plus, minus


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
    """Pairing of w with the coroot h_i, i in 0..rank."""
    if i == 0:
        return w.level - rs.pairing(w.finite, rs.theta)
    return w.finite[i - 1]


def affine_reflect(rs: RootSystem, i: int, w: AffineWeight) -> AffineWeight:
    """Simple affine reflection s_i, i in 0..rank.  Preserves the level."""
    if i == 0:
        m = affine_pairing(rs, w, 0)
        finite = tuple(c + m * t for c, t in zip(w.finite, rs.theta_weight))
        return AffineWeight(finite, w.level, w.degree - m)
    return AffineWeight(rs.reflect(i, w.finite), w.level, w.degree)


def is_affine_dominant(rs: RootSystem, w: AffineWeight) -> bool:
    return all(affine_pairing(rs, w, i) >= 0 for i in range(rs.rank + 1))


def _walk(rs: RootSystem, w, nodes, pairing, reflect, pick):
    """Reflect w at a node of negative pairing until none is left; return
    (w, word) with the nodes in the order they were applied."""
    word: list[int] = []
    for _ in range(_STEP_LIMIT):
        negative = [i for i in nodes if pairing(rs, w, i) < 0]
        if not negative:
            return w, tuple(word)
        i = negative[0] if pick is None else pick(negative)
        w = reflect(rs, i, w)
        word.append(i)
    raise RuntimeError("dominance walk exceeded step limit")


def dominance_algorithm(rs: RootSystem, w: AffineWeight, *, pick=None):
    """Walk w into the dominant chamber of the affine Weyl group.

    Returns (Lambda, word): Lambda is dominant and applying the word's
    reflections to Lambda rightmost-first reproduces w.  Requires level
    >= 1; level 0 orbits need not meet the dominant chamber, so they are
    rejected.  `pick` chooses among the strictly negative nodes (default:
    smallest index); any choice reaches the same Lambda.
    """
    rs.check_weight(w.finite)
    if w.level < 1:
        raise ValueError("dominance walk needs level >= 1")
    return _walk(rs, w, range(rs.rank + 1), affine_pairing, affine_reflect, pick)


def finite_dominance(rs: RootSystem, mu):
    """Conjugate mu into the dominant chamber of the finite Weyl group.

    Returns (lam, word) with rs.weyl_apply(word, mu) == lam; the inverse
    word (reversed) carries lam back to mu.
    """
    lam, steps = _walk(rs, rs.check_weight(mu), range(1, rs.rank + 1),
                       lambda _, mu, i: mu[i - 1], RootSystem.reflect, None)
    return lam, steps[::-1]
