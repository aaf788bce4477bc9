"""Relation-set presentations attached to a weight and a level.

A presentation is driven by a family p = (p_alpha^+/-) of nonneg integer
functions, one per positive root and sign.  p_alpha^+ lives on s >= 0,
p_alpha^- on s >= 1; the value at 0 of the minus function is the standard
extension max{0, mu(h_alpha)} and is stored alongside.  The recorded
cutoff is the least s with p(a) = 0 for all a >= s.

Sign bookkeeping: relations with superscript + are imposed for roots with
mu(h_alpha) <= 0, relations with superscript - for mu(h_alpha) >= 0.
Roots pairing to zero carry both families.  Writing x for the nonneg
number -mu(h_alpha) (sign +) resp. mu(h_alpha) (sign -), the graded
family is p(s) = max{0, x - d_alpha * k * s}.

A Relation records an ordered product of generator powers
(x_alpha^sign (x) t^d1)^a1 ... (x_alpha^sign (x) t^dm)^am applied to the
cyclic vector, degrees strictly decreasing.  Kinds:

* 'cartan'    - the one-sided annihilator family: x_alpha^sign (x) t^d
                kills the generator for every d >= factors[0][0].  (The
                toral relations h (x) t^s v = delta_{s,0} mu(h) v carry no
                root data and are left implicit.)
* 'monomial'  - a single power (x (x) t^i)^(p(i)+1).
* 'tuple'     - a mixed product coming from the upward-closed condition
                sum_j (j - i + 1) a_j >= p(i) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .rootdata import Root, RootSystem
from .weights import signed_roots

_TUPLE_BUDGET = 10**5  # minimal tuples one relation set may generate


@dataclass(frozen=True)
class PFunction:
    """Values (p(0), ..., p(cutoff)) of one p_alpha^sign; zero beyond."""

    values: tuple[int, ...]
    cutoff: int

    def __call__(self, s: int) -> int:
        if s < 0:
            raise ValueError("p is only defined for s >= 0")
        return self.values[s] if s < len(self.values) else 0


_ZERO = PFunction((0,), 0)


def _graded_values(x: int, step: int) -> PFunction:
    # p(s) = max{0, x - step*s} for s = 0..ceil(x/step); (0,) when x <= 0
    vals = (*range(x, 0, -step), 0)
    return PFunction(vals, len(vals) - 1)


def _descending_values(boundary: int, start: int) -> PFunction:
    # boundary value at s = start, then linear descent by one per step
    if boundary <= 0:
        return _ZERO
    vals = [boundary] * (start + 1) + list(range(boundary - 1, -1, -1))
    return PFunction(tuple(vals), boundary + start)


@dataclass(frozen=True)
class PFamily:
    """One PFunction per (positive root, sign), plus provenance."""

    kind: str  # 'demazure' | 'weyl' | 'genweyl'
    rs: RootSystem
    mu: tuple[int, ...]
    k: int | None
    entries: dict = field(repr=False)

    def pfunction(self, root: Root, sign: str) -> PFunction:
        return self.entries[(root, sign)]

    def applicable_pairs(self) -> tuple[tuple[Root, str], ...]:
        """(root, sign) combinations whose relations are imposed."""
        return tuple((root, sign) for root, sign, _ in signed_roots(self.rs, self.mu))


def _family(kind: str, rs: RootSystem, mu, k, value) -> PFamily:
    """The family with p = value(root, sign, x) at each (root, sign, x) of
    signed_roots, and p = 0 at the other (root, sign)."""
    mu = rs.check_weight(mu)
    entries = dict.fromkeys(((root, sign) for root in rs.positive_roots
                             for sign in "+-"), _ZERO)
    for root, sign, x in signed_roots(rs, mu):
        entries[(root, sign)] = value(root, sign, x)
    return PFamily(kind, rs, mu, k, entries)


def demazure_p(rs: RootSystem, mu, k: int) -> PFamily:
    """The graded family p(s) = max{0, x - d_alpha*k*s} for level k >= 1."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    return _family("demazure", rs, mu, k,
                   lambda root, sign, x: _graded_values(x, rs.d(root) * k))


def weyl_p(rs: RootSystem, mu) -> PFamily:
    """Local Weyl family for anti-dominant mu: p^+(s) = max{0, -mu(h)-s}, p^- = 0."""
    if any(c > 0 for c in mu):
        raise ValueError("weyl_p needs an anti-dominant weight")
    # anti-dominant mu imposes sign '-' only where x = 0
    return _family("weyl", rs, mu, None, lambda root, sign, x: _descending_values(x, 0))


def generalized_weyl_p(rs: RootSystem, mu) -> PFamily:
    """Boundary data p^+(0) = max{0,-mu(h)}, p^-(1) = max{0,mu(h)}.

    The remaining values are a free choice as long as they are redundant;
    we fill by linear descent to zero, the classical consequence pattern
    of the boundary power.
    """
    return _family("genweyl", rs, mu, None,
                   lambda root, sign, x: _descending_values(x, 0 if sign == "+" else 1))


# -- xi tuples and convexity ----------------------------------------------

def xi_tuple(p: PFunction) -> tuple[int, ...]:
    """(p(0)-p(1), p(1)-p(2), ..., p(s-1)-p(s)) up to the cutoff."""
    return tuple(p(i - 1) - p(i) for i in range(1, p.cutoff + 1))


def is_partition(xs) -> bool:
    return all(xs[i] >= xs[i + 1] for i in range(len(xs) - 1))


@dataclass(frozen=True)
class ConvexityRecord:
    root: Root
    sign: str
    i: int
    lhs: int
    rhs: int
    equal: bool
    expected_equal: bool


@dataclass(frozen=True)
class ConvexityReport:
    records: tuple[ConvexityRecord, ...]
    violations: tuple[ConvexityRecord, ...]
    equality_mismatches: tuple[ConvexityRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.equality_mismatches


def convexity_report(fam: PFamily) -> ConvexityReport:
    """Check 2 p(i) <= p(i+1) + p(i-1) for 1 <= i <= cutoff-1.

    For the graded family, equality must hold exactly for i <= cutoff-2
    and additionally at i = cutoff-1 when the top value p(cutoff-1) equals
    the full step d_alpha * k.
    """
    if fam.kind != "demazure":
        raise ValueError("convexity pattern is specific to the graded family")
    records, bad, mism = [], [], []
    for (root, sign), p in sorted(fam.entries.items(),
                                  key=lambda kv: (kv[0][0], kv[0][1])):
        step = fam.rs.d(root) * fam.k
        s = p.cutoff
        for i in range(1, s):
            lhs, rhs = 2 * p(i), p(i + 1) + p(i - 1)
            equal = lhs == rhs
            expected = i <= s - 2 or (i == s - 1 and p(s - 1) == step)
            rec = ConvexityRecord(root, sign, i, lhs, rhs, equal, expected)
            records.append(rec)
            if lhs > rhs:
                bad.append(rec)
            if equal != expected:
                mism.append(rec)
    return ConvexityReport(tuple(records), tuple(bad), tuple(mism))


# -- relation families -----------------------------------------------------

@dataclass(frozen=True)
class Relation:
    root: Root
    sign: str
    factors: tuple[tuple[int, int], ...]  # (t-degree, exponent), degrees strictly decreasing
    kind: str                             # 'cartan' | 'monomial' | 'tuple'
    index: int | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        degs = [d for d, _ in self.factors]
        if degs != sorted(degs, reverse=True) or len(set(degs)) != len(degs):
            raise ValueError("factor degrees must be strictly decreasing")
        if any(a < 1 for _, a in self.factors):
            raise ValueError("factor exponents must be positive")


def _relation_sort_key(rel: Relation):
    return (rel.root, rel.sign, rel.kind, rel.index if rel.index is not None else -1,
            rel.factors)


def _minimal_tuples(target: int, nslots: int,
                    budget: int = _TUPLE_BUDGET) -> list[tuple[int, ...]]:
    """Minimal a in Z_+^nslots with sum_j (j+1) a_j >= target (product order).

    With w = sum_j (j+1) a_j and m = j0 + 1 the weight of the lowest used
    slot j0, a is minimal exactly when target <= w < target + m, since
    taking one from slot j0 is the smallest drop in w.  So each minimal a
    is a choice of the slots above j0 weighing less than target, completed
    by the least a_j0 that reaches it.  Each step of the search below emits
    one tuple, so its cost is linear in the output.  Raises RuntimeError
    once more than `budget` tuples are produced.
    """
    if target <= 0:
        return [(0,) * nslots]
    out = []
    # (slot j, weight w < target of the slots above j, (a_{j+1}, ..., a_{nslots-1}))
    stack = [(nslots - 1, 0, ())]
    while stack:
        j, w, above = stack.pop()
        need = -(-(target - w) // (j + 1))
        out.append((0,) * j + (need,) + above)
        if len(out) > budget:
            raise RuntimeError("tuple budget exceeded: a relation set needs more "
                               "than %d minimal tuples" % _TUPLE_BUDGET)
        if j:
            stack.extend((j - 1, w + (j + 1) * c, (c,) + above) for c in range(need))
    return sorted(out)


def _tuple_relation(root: Root, sign: str, i: int, a: tuple[int, ...], tags) -> Relation:
    factors = tuple((i + j, a[j]) for j in reversed(range(len(a))) if a[j] > 0)
    return Relation(root, sign, factors, "tuple", index=i, tags=tags)


def relations_M(fam: PFamily) -> tuple[Relation, ...]:
    """All minimal mixed products: for each i in 1..cutoff the minimal
    tuples (a_i, ..., a_s) with sum (j-i+1) a_j >= p(i) + 1.

    All families of the set share one budget of _TUPLE_BUDGET tuples;
    past it a RuntimeError is raised instead of running for minutes."""
    rels = []
    for root, sign in fam.applicable_pairs():
        p = fam.pfunction(root, sign)
        s = p.cutoff
        for i in range(1, s + 1):
            for a in _minimal_tuples(p(i) + 1, s - i + 1, _TUPLE_BUDGET - len(rels)):
                rels.append(_tuple_relation(root, sign, i, a, ("M",)))
    return tuple(sorted(rels, key=_relation_sort_key))


def relations_Mprime(fam: PFamily) -> tuple[Relation, ...]:
    """Minimal tuples kept only at indices i with xi_{i+1} < xi_i and
    filtered by the cap sum a_j <= xi_i."""
    rels = []
    for root, sign in fam.applicable_pairs():
        p = fam.pfunction(root, sign)
        s = p.cutoff
        xi = xi_tuple(p) + (0,)
        for i in range(1, s + 1):
            if not xi[i] < xi[i - 1]:
                continue
            for a in _minimal_tuples(p(i) + 1, s - i + 1):
                if sum(a) <= xi[i - 1]:
                    rels.append(_tuple_relation(root, sign, i, a, ("Mprime",)))
    return tuple(sorted(rels, key=_relation_sort_key))


def relations_Mpp(fam: PFamily) -> tuple[Relation, ...]:
    """Pure powers (x (x) t^i)^(p(i)+1), 1 <= i <= cutoff, plus the
    annihilator family and the boundary power of the presentation."""
    rels = []
    for root, sign in fam.applicable_pairs():
        p = fam.pfunction(root, sign)
        opp = "-" if sign == "+" else "+"
        start = 1 if opp == "-" else 0  # lowering generators only enter from degree 1
        rels.append(Relation(root, opp, ((start, 1),), "cartan", tags=("Mpp",)))
        eps = 0 if sign == "+" else 1
        rels.append(Relation(root, sign, ((eps, p(eps) + 1),), "monomial",
                             index=eps, tags=("Mpp",)))
        for i in range(1, p.cutoff + 1):
            if i == eps:
                continue
            rels.append(Relation(root, sign, ((i, p(i) + 1),), "monomial",
                                 index=i, tags=("Mpp",)))
    return tuple(sorted(rels, key=_relation_sort_key))


class IsoClass(Enum):
    FIRST = "FirstIso"
    SECOND = "SecondIso"
    BOTH = "Both"
    NEITHER = "Neither"


def classify_xi(xi: tuple[int, ...]) -> IsoClass:
    s = len(xi)
    first = all(x == xi[0] for x in xi[: s - 1]) if s >= 2 else True
    second = (xi[0] != xi[1]) if s >= 2 else True
    if first and second:
        return IsoClass.BOTH
    if first:
        return IsoClass.FIRST
    if second:
        return IsoClass.SECOND
    return IsoClass.NEITHER


def mmmr_classify(fam: PFamily) -> dict:
    """Which collapse argument applies per (root, sign): the constant-head
    criterion (FirstIso), the separated-head criterion (SecondIso), or both."""
    return {pair: classify_xi(xi_tuple(fam.pfunction(*pair)))
            for pair in fam.applicable_pairs()}


# -- divided power supports ------------------------------------------------

def s_sets(r: int, s: int, lower: int = 0, upper: int | None = None):
    """Index vectors b >= 0 with sum b_p = r and sum p b_p = s,
    support restricted to lower <= p < upper.  Sparse ((p, b_p), ...) form."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    hi = s + 1 if upper is None else min(upper, s + 1)
    out = []

    def rec(p, parts, weight, acc):
        if p < lower:
            if parts == 0 and weight == 0:
                out.append(tuple(reversed(acc)))
            return
        if p == 0:
            if weight == 0:
                rec(-1, 0, 0, acc + [(0, parts)] if parts else acc)
            return
        top = min(parts, weight // p)
        for b in range(top + 1):
            rec(p - 1, parts - b, weight - p * b, acc + [(p, b)] if b else acc)

    if hi > lower:
        rec(hi - 1, r, s, [])
    elif r == 0 and s == 0:
        out.append(())
    return tuple(sorted(out))


_VARIANTS = ("plain", "truncated_k", "from_k", "t_shifted")


def expand_x_element(variant: str, r: int, s: int, k: int | None = None):
    """Summands of the divided-power element x(r, s) in the given variant.

    Returns ((index_vector, factors), ...) where factors lists
    (t-degree, divided power) with degrees increasing, one summand per
    index vector.  'truncated_k' keeps b_p = 0 for p >= k, 'from_k' for
    p < k, 't_shifted' raises every t-degree by one.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    if variant in ("truncated_k", "from_k") and (k is None or k < 0):
        raise ValueError("this variant needs a bound k >= 0")
    if variant == "truncated_k":
        vectors = s_sets(r, s, upper=k)
    elif variant == "from_k":
        vectors = s_sets(r, s, lower=k)
    else:
        vectors = s_sets(r, s)
    shift = 1 if variant == "t_shifted" else 0
    return tuple((vec, tuple((p + shift, b) for p, b in vec)) for vec in vectors)


# -- the simplified graded presentation ------------------------------------

def sm_pair(x: int, step: int) -> tuple[int, int]:
    """The unique (s, m) with x = (s-1)*step + m and 0 < m <= step.

    x = 0 is the degenerate case (0, step)."""
    if x < 0 or step < 1:
        raise ValueError("need x >= 0 and step >= 1")
    if x == 0:
        return 0, step
    s = -(-x // step)
    return s, x - (s - 1) * step


def simplified_demazure_relations(rs: RootSystem, mu, k: int) -> tuple[Relation, ...]:
    """The short presentation of the graded module.

    Per root and applicable sign (x the nonneg pairing, step = d*k,
    (s, m) = sm_pair(x, step)):

    * power (x (x) t^(s-1))^(m+1) when m < step, and the annihilator
      (x (x) t^s) - both skipped in the degenerate case x = 0, where the
      two-sided families below already cover them;
    * for mu(h_alpha) >= 0: x^+ (x) C[t] kills v and
      (x^- (x) t)^(max{0, mu(h)-step}+1) v = 0;
    * for mu(h_alpha) <= 0: x^- (x) tC[t] kills v and
      (x^+ (x) 1)^(-mu(h)+1) v = 0.

    At level k = 1 the annihilator is a consequence unless d_alpha > 1 and
    the power unless d_alpha = 3 = m + 2; those come tagged 'redundant-k1'.
    """
    rs.check_weight(mu)
    if k < 1:
        raise ValueError("level k must be >= 1")
    raw: list[Relation] = []
    for root, sign, x in signed_roots(rs, mu):
        d = rs.d(root)
        step = d * k
        if x > 0:
            s, m = sm_pair(x, step)
            if m < step and (sign == "+" or s >= 2):
                tags = ("simplified",)
                if k == 1 and not (d == 3 and m == 1):
                    tags += ("redundant-k1",)
                raw.append(Relation(root, sign, ((s - 1, m + 1),), "monomial",
                                    tags=tags))
            tags = ("simplified",)
            if k == 1 and d == 1:
                tags += ("redundant-k1",)
            raw.append(Relation(root, sign, ((s, 1),), "monomial", tags=tags))
        if sign == "-":
            raw.append(Relation(root, "+", ((0, 1),), "cartan", tags=("mathieu",)))
            raw.append(Relation(root, "-", ((1, max(0, x - step) + 1),),
                                "monomial", tags=("mathieu",)))
        else:
            raw.append(Relation(root, "-", ((1, 1),), "cartan", tags=("mathieu",)))
            raw.append(Relation(root, "+", ((0, x + 1),), "monomial",
                                tags=("mathieu",)))
    merged: dict[tuple, Relation] = {}
    for rel in raw:
        key = (rel.root, rel.sign, rel.factors, rel.kind)
        if key in merged:
            tags = tuple(dict.fromkeys(merged[key].tags + rel.tags))
            merged[key] = Relation(rel.root, rel.sign, rel.factors, rel.kind,
                                   index=merged[key].index, tags=tags)
        else:
            merged[key] = rel
    return tuple(sorted(merged.values(), key=_relation_sort_key))
