"""Graded characters and Demazure operators.

A character is a finite Z-linear combination of affine weights, stored as a
dict mapping (finite, level, grade) to an integer multiplicity.  ``finite``
is a tuple of fundamental-weight coordinates, ``level`` the central charge,
and ``grade`` the delta-coefficient measured so that the cyclic generator of
a module sits in grade 0.  Lowering by the affine simple root alpha_0 adds
theta to the finite part and drops the grade by one; for the characters
produced by ``demazure_character`` every grade is nonnegative and the
generating weight carries multiplicity 1.

``demazure_operator(rs, i, c)`` applies

    D_i(e^lam) = (e^lam - e^{s_i lam - alpha_i}) / (1 - e^{-alpha_i})

termwise, which for pairing m = lam(h_i) works out to

    m >= 0 : e^lam + e^{lam - alpha_i} + ... + e^{lam - m alpha_i}
    m = -1 : 0
    m <= -2: -(e^{lam + alpha_i} + ... + e^{lam - (m+1) alpha_i})

The operators are linear, idempotent, and satisfy the braid relations, so
compositions along reduced words depend only on the Weyl group element.
Every character is D along one dominance walk's word, applied by one loop
that stops a character past ``_TERM_BUDGET`` output terms; one application
stops before its strings would emit more than that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admissibility import AdmissibilityReport, is_r_admissible
from .rootdata import RootSystem
from .weights import AffineWeight, _walk, dominance_algorithm

_TERM_BUDGET = 3 * 10**5  # output terms summed over one character's operators


class GradedCharacter:
    """Z-linear combination of affine weights; zero terms are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (fin, lvl, grade), mult in terms.items():
                if mult:
                    self.terms[(tuple(fin), lvl, grade)] = mult

    @classmethod
    def from_weight(cls, finite, level, grade=0):
        return cls({(tuple(finite), level, grade): 1})

    def coefficient(self, finite, level, grade):
        return self.terms.get((tuple(finite), level, grade), 0)

    def dimension(self):
        return sum(self.terms.values())

    def sorted_terms(self):
        return tuple(sorted(self.terms.items(),
                            key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])))

    def scale(self, c):
        return GradedCharacter({key: c * mult for key, mult in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for key, mult in other.terms.items():
            out[key] = out.get(key, 0) + mult
        return GradedCharacter(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def tensor(self, other):
        """Convolution: finite parts, levels and grades all add."""
        out = {}
        for (f1, l1, g1), c1 in self.terms.items():
            for (f2, l2, g2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(f1, f2, strict=True)), l1 + l2, g1 + g2)
                out[key] = out.get(key, 0) + c1 * c2
        return GradedCharacter(out)

    def __eq__(self, other):
        return isinstance(other, GradedCharacter) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "GradedCharacter(<%d terms, dim %d>)" % (len(self.terms),
                                                        self.dimension())


def demazure_operator(rs: RootSystem, i: int, char: GradedCharacter) -> GradedCharacter:
    if not 0 <= i <= rs.rank:
        raise ValueError("node %r out of range" % (i,))
    # finite part and grade drop of alpha_i; alpha_0 = delta - theta
    if i == 0:
        alpha_w, grade_drop = tuple(-t for t in rs.theta_weight), 1
    else:
        alpha_w, grade_drop = tuple(row[i - 1] for row in rs.cartan), 0
    out = {}
    emitted = 0
    for (fin, lvl, grade), mult in char.terms.items():
        m = lvl - rs.pairing(fin, rs.theta) if i == 0 else fin[i - 1]
        # j steps down the alpha_i string; m == -1 contributes nothing
        if m >= 0:
            js, sign = range(m + 1), 1
        else:
            js, sign = range(-1, m, -1), -1
        emitted += len(js)
        if emitted > _TERM_BUDGET:
            raise RuntimeError("character budget exceeded: %d terms" % emitted)
        for j in js:
            key = (tuple(f - j * a for f, a in zip(fin, alpha_w)), lvl,
                   grade - j * grade_drop)
            out[key] = out.get(key, 0) + sign * mult
    return GradedCharacter(out)


def _apply_word(rs: RootSystem, word, char: GradedCharacter) -> GradedCharacter:
    """Apply D_i for each i of word, first letter first, within _TERM_BUDGET terms."""
    terms = 0
    for i in word:
        char = demazure_operator(rs, i, char)
        terms += len(char.terms)
        if terms > _TERM_BUDGET:
            raise RuntimeError("character budget exceeded: %d terms" % terms)
    return char


def demazure_character(rs: RootSystem, mu, k: int, *, pick=None) -> GradedCharacter:
    """Graded character of the module generated from weight ``mu`` at level ``k``.

    The dominant representative and reflection word come from the dominance
    walk; the operators are applied along the word so that the last one
    applied corresponds to the first reflection of the walk.
    """
    mu = tuple(mu)
    lam, word = dominance_algorithm(rs, AffineWeight(mu, k, 0), pick=pick)
    char = _apply_word(rs, reversed(word),
                       GradedCharacter.from_weight(lam.finite, k, lam.degree))
    if (char.coefficient(mu, k, 0) != 1 or any(g < 0 for (_, _, g) in char.terms)
            or any(c <= 0 for c in char.terms.values())):
        raise RuntimeError("character of %r at level %d is not normalised and positive"
                           % (mu, k))
    return char


def parabolic_character(rs: RootSystem, finite, nodes, *, level=0, grade=0) -> GradedCharacter:
    """Character of the irreducible module with highest weight ``finite``
    for the sub-root-system generated by ``nodes``.

    D along the walk of -finite to the dominant chamber of the nodes, first
    letter first: the word is reduced for the shortest u with u(finite) =
    w_J(finite), and D_u e^finite = D_{w_J} e^finite since D_v fixes
    e^finite when v fixes finite.
    """
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    finite = rs.check_weight(finite)
    if any(finite[i - 1] < 0 for i in nodes):
        raise ValueError("weight %r not dominant on nodes %r" % (finite, nodes))
    _, word = _walk(rs, tuple(-c for c in finite), nodes,
                    lambda _, mu, i: mu[i - 1], RootSystem.reflect, None)
    return _apply_word(rs, word, GradedCharacter.from_weight(finite, level, grade))


def finite_character(rs: RootSystem, finite) -> GradedCharacter:
    return parabolic_character(rs, finite, range(1, rs.rank + 1))


def _above(rs: RootSystem, nodeset, upper, lower):
    """True if upper - lower is a nonzero Z>=0 combination of the simple
    roots indexed by nodeset."""
    diff = tuple(u - l for u, l in zip(upper, lower))
    if all(v == 0 for v in diff):
        return False
    coords = rs.root_coordinates(diff)
    for pos, c in enumerate(coords, start=1):
        if pos in nodeset:
            if c.denominator != 1 or c < 0:
                return False
        elif c != 0:
            return False
    return True


@dataclass(frozen=True)
class BranchRecord:
    finite: tuple
    level: int
    grade: int
    multiplicity: int
    dimension: int


def g0_branch(rs: RootSystem, char: GradedCharacter, nodes):
    """Decompose each grade slice of ``char`` under the sub-root-system on
    ``nodes`` by repeatedly peeling the irreducible generated by a maximal
    weight.  Raises ValueError if a slice is not a nonnegative sum of
    parabolic irreducible characters on those nodes.
    """
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    nodeset = set(nodes)
    records = []
    slices = {}
    for (fin, lvl, grade), c in char.terms.items():
        slices.setdefault(grade, {})[(fin, lvl)] = c
    for grade in sorted(slices):
        remaining = slices[grade]
        while remaining:
            top = None
            for fin, lvl in sorted(remaining, reverse=True):
                rivals = (o for o in remaining if o[1] == lvl and o[0] != fin)
                if not any(_above(rs, nodeset, ofin, fin) for ofin, _ in rivals):
                    top = (fin, lvl)
                    break
            fin, lvl = top
            mult = remaining[top]
            if mult < 0:
                raise ValueError("negative multiplicity at %r grade %d" % (fin, grade))
            irrep = parabolic_character(rs, fin, nodes, level=lvl, grade=grade)
            for (f2, l2, _), c in irrep.terms.items():
                left = remaining.get((f2, l2), 0) - mult * c
                if left < 0:
                    raise ValueError("slice at grade %d is not a nonnegative "
                                     "combination on nodes %r" % (grade, nodes))
                if left:
                    remaining[(f2, l2)] = left
                else:
                    remaining.pop((f2, l2), None)
            records.append(BranchRecord(fin, lvl, grade, mult, irrep.dimension()))
    return tuple(records)


@dataclass(frozen=True)
class EmbeddingCertificate:
    mu: tuple
    split: tuple
    r: int
    certified: bool
    report: AdmissibilityReport
    failures: tuple  # (finite, grade, lhs multiplicity, rhs multiplicity)
    lhs: GradedCharacter
    rhs: GradedCharacter

    @property
    def k(self):
        return len(self.split)

    @property
    def split_admissible(self):
        return self.report.admissible

    def verdict(self):
        return "Certified" if self.certified else "Violation"


def embedding_certificate(rs: RootSystem, mu, split, r: int) -> EmbeddingCertificate:
    """Coefficientwise comparison backing the character containment

        char(mu, r*k)  <=  char(mu_1, r) * ... * char(mu_k, r)

    for a splitting mu = mu_1 + ... + mu_k.  Both extremal coefficients at
    (mu, grade 0) must equal 1.  ``report`` is the r-admissibility report of
    the split; the comparison itself runs either way, so an inadmissible
    split can still be probed for violations.
    """
    mu = tuple(mu)
    split = tuple(tuple(p) for p in split)
    report = is_r_admissible(rs, mu, split, r)
    k = len(split)
    lhs = demazure_character(rs, mu, r * k)
    rhs = None
    for part in split:
        factor = demazure_character(rs, part, r)
        rhs = factor if rhs is None else rhs.tensor(factor)
    failures = []
    for (fin, lvl, grade), mult in lhs.sorted_terms():
        have = rhs.coefficient(fin, lvl, grade)
        if mult > have:
            failures.append((fin, grade, mult, have))
    extremal_ok = (lhs.coefficient(mu, r * k, 0) == 1
                   and rhs.coefficient(mu, r * k, 0) == 1)
    if not extremal_ok:
        failures.append((mu, 0, lhs.coefficient(mu, r * k, 0),
                         rhs.coefficient(mu, r * k, 0)))
    return EmbeddingCertificate(mu=mu, split=split, r=r,
                                certified=not failures,
                                report=report,
                                failures=tuple(failures), lhs=lhs, rhs=rhs)
