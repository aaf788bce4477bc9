"""Reference copy of the chamber walk and the reflections as they stood before
the affine simple roots moved into one table (``RootSystem._alphas``), kept as
a differential oracle.  Test use only.

Every function below is the earlier code's, unchanged, except that
``RootSystem.reflect`` is the module function ``reflect`` (same body, ``rs``
for ``self``) and the callers pass it where they passed the method.  The walk
takes ``pairing`` and ``reflect`` callbacks, the reflections read alpha_i from
``rs.cartan`` and ``rs.theta_weight``, and the operator branches on node 0.
``demazure_operator`` and ``_apply_word`` are also the tuple-keyed operator
loop that the packed-integer loop of ``demazure.characters`` replaced, and
its oracle for results, term order and budget errors.  The character type and
the term budget are imported from the package, so old and new results compare
with ``==``; a test that changes the package's budget sets this module's
``_TERM_BUDGET`` too.
"""

from __future__ import annotations

from operator import add, mul

from demazure.characters import _TERM_BUDGET, GradedCharacter
from demazure.rootdata import RootSystem
from demazure.weights import AffineWeight

_STEP_LIMIT = 10**6  # safety guard for the dominance walk


def reflect(rs: RootSystem, i: int, mu):
    """Simple reflection s_i on fundamental-weight coordinates, i in 1..rank."""
    rs.check_node(i)
    c = mu[i - 1]
    return tuple(mu[j] - c * rs.cartan[j][i - 1] for j in range(rs.rank))


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
    return AffineWeight(reflect(rs, i, w.finite), w.level, w.degree)


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
    rs.check_weight(w.finite)
    if w.level < 1:
        raise ValueError("dominance walk needs level >= 1")
    return _walk(rs, w, range(rs.rank + 1), affine_pairing, affine_reflect, pick)


def finite_dominance(rs: RootSystem, mu):
    lam, steps = _walk(rs, rs.check_weight(mu), range(1, rs.rank + 1),
                       lambda _, mu, i: mu[i - 1], reflect, None)
    return lam, steps[::-1]


def demazure_operator(rs: RootSystem, i: int, char: GradedCharacter) -> GradedCharacter:
    if not 0 <= i <= rs.rank:
        raise ValueError("node %r out of range" % (i,))
    # finite part and grade drop of alpha_i; alpha_0 = delta - theta
    if i == 0:
        alpha_w, grade_drop = tuple(-t for t in rs.theta_weight), 1
        theta_co = rs.coroot_vector(rs.theta)
    else:
        alpha_w, grade_drop = tuple(row[i - 1] for row in rs.cartan), 0
    minus_alpha = tuple(-a for a in alpha_w)
    out = {}
    emitted = 0
    for (fin, lvl, grade), mult in char.terms.items():
        m = lvl - sum(map(mul, fin, theta_co)) if i == 0 else fin[i - 1]
        # walk down from lam, or up from lam + alpha_i; m == -1 adds nothing
        if m >= 0:
            count, step, grade_step = m + 1, minus_alpha, -grade_drop
        else:
            count, step, grade_step = -m - 1, alpha_w, grade_drop
            fin, grade, mult = tuple(map(add, fin, alpha_w)), grade + grade_drop, -mult
        emitted += count
        if emitted > _TERM_BUDGET:
            raise RuntimeError("character budget exceeded: %d terms" % emitted)
        for _ in range(count):
            key = (fin, lvl, grade)
            out[key] = out.get(key, 0) + mult
            fin, grade = tuple(map(add, fin, step)), grade + grade_step
    return GradedCharacter._adopt({key: c for key, c in out.items() if c})


def _apply_word(rs: RootSystem, word, char: GradedCharacter) -> GradedCharacter:
    """Apply D_i for each i of word, first letter first, within _TERM_BUDGET terms."""
    terms = 0
    for i in word:
        char = demazure_operator(rs, i, char)
        terms += len(char.terms)
        if terms > _TERM_BUDGET:
            raise RuntimeError("character budget exceeded: %d terms" % terms)
    return char


def parabolic_character(rs: RootSystem, finite, nodes, *, level=0, grade=0) -> GradedCharacter:
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    finite = rs.check_weight(finite)
    if any(finite[i - 1] < 0 for i in nodes):
        raise ValueError("weight %r not dominant on nodes %r" % (finite, nodes))
    _, word = _walk(rs, tuple(-c for c in finite), nodes,
                    lambda _, mu, i: mu[i - 1], reflect, None)
    return _apply_word(rs, word, GradedCharacter.from_weight(finite, level, grade))
