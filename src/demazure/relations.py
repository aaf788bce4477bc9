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

Every relation set lists its rows sorted by (root, sign, kind, index with
None first, factors), roots compared by coordinates and '+' before '-'.
The builders emit the rows in that order; nothing is sorted afterwards.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

from .rootdata import Root, RootSystem, _at_least_1
from .weights import _signed_positions

_TUPLE_BUDGET = 10**5  # minimal tuples (M) or monomials (Mpp) one relation set may generate
_VALUE_BUDGET = 10**6  # the cutoffs of one p family, summed
_SUPPORT_BUDGET = 10**5  # index vectors one s_sets call may generate
_new = object.__new__


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


def _graded_values(x: int, step: int, start: int) -> PFunction:
    # p(s) = x for s <= start, then max{0, x - step*(s - start)}; (0,) when x <= 0
    vals = (x,) * start + (*range(x, 0, -step), 0) if x > 0 else (0,)
    return PFunction(vals, len(vals) - 1)


def _key_walk(rs: RootSystem, mu):
    """(root, sign, x, d_alpha) for every relation family mu imposes, by the
    rule of weights.signed_roots, roots in coordinate order: the key order."""
    roots, ds = rs.positive_roots, rs._d_at
    return ((roots[j], sign, x, ds[j])
            for j, sign, x in _signed_positions(rs.pairings(mu), rs._by_coords))


@dataclass(frozen=True)
class PFamily:
    """The PFunction of each (positive root, sign) mu imposes, plus provenance."""

    kind: str  # 'demazure' | 'weyl' | 'genweyl'
    rs: RootSystem
    mu: tuple[int, ...]
    k: int | None
    rows: tuple = field(repr=False)  # (root, sign, x, p) per applicable pair, in key order

    def pfunction(self, root: Root, sign: str) -> PFunction:
        """p_root^sign, the zero function where mu imposes no relations;
        KeyError unless root is a positive root and sign is '+' or '-'."""
        if sign not in ("+", "-") or root not in self.rs._d:
            raise KeyError((root, sign))
        j = bisect_left(self.rows, (root.coords, sign), key=lambda row: (row[0].coords, row[1]))
        return next((p for r, s, _, p in self.rows[j:j + 1] if (r, s) == (root, sign)), _ZERO)

    def applicable_pairs(self) -> tuple[tuple[Root, str], ...]:
        """(root, sign) combinations whose relations are imposed, in key order."""
        return tuple((root, sign) for root, sign, _, _ in self.rows)


def _family(kind: str, rs: RootSystem, mu, k, shape) -> PFamily:
    """The family whose p at each applicable (root, sign, x) is x up to s = start,
    then falls by step to zero, (step, start) = shape(sign, d_alpha); RuntimeError
    before any value is built when the cutoffs sum past _VALUE_BUDGET."""
    mu = rs.check_weight(mu)
    walk = [(root, sign, x, *shape(sign, d)) for root, sign, x, d in _key_walk(rs, mu)]
    if sum(start - (-x // step) for _, _, x, step, start in walk if x) > _VALUE_BUDGET:
        raise RuntimeError("value budget exceeded: the cutoffs of a p family sum "
                           "to more than %d" % _VALUE_BUDGET)
    return PFamily(kind, rs, mu, k, tuple((root, sign, x, _graded_values(x, step, start))
                                          for root, sign, x, step, start in walk))


def demazure_p(rs: RootSystem, mu, k: int) -> PFamily:
    """The graded family p(s) = max{0, x - d_alpha*k*s} for level k >= 1."""
    _at_least_1("k", k)
    return _family("demazure", rs, mu, k, lambda sign, d: (d * k, 0))


def weyl_p(rs: RootSystem, mu) -> PFamily:
    """Local Weyl family for anti-dominant mu: p^+(s) = max{0, -mu(h)-s}, p^- = 0."""
    if any(c > 0 for c in mu):
        raise ValueError("weyl_p needs an anti-dominant weight")
    # anti-dominant mu imposes sign '-' only where x = 0
    return _family("weyl", rs, mu, None, lambda sign, d: (1, 0))


def generalized_weyl_p(rs: RootSystem, mu) -> PFamily:
    """Boundary data p^+(0) = max{0,-mu(h)}, p^-(1) = max{0,mu(h)}.

    The remaining values are a free choice as long as they are redundant;
    we fill by linear descent to zero, the classical consequence pattern
    of the boundary power.
    """
    return _family("genweyl", rs, mu, None,
                   lambda sign, d: (1, 0 if sign == "+" else 1))


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
    for root, sign, _, p in fam.rows:
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
        """ValueError unless the degrees strictly decrease and every exponent
        is positive; plain loops with no calls, one test for one factor."""
        factors = self.factors
        if len(factors) > 1:
            prev = None
            for d, _ in factors:
                if prev is not None and d >= prev:
                    raise ValueError("factor degrees must be strictly decreasing")
                prev = d
        for _, a in factors:
            if a < 1:
                raise ValueError("factor exponents must be positive")


def _row(root, sign, factors, kind, index, tags) -> Relation:
    """A Relation filled in without the frozen dataclass __init__, then checked."""
    rel = _new(Relation)
    d = rel.__dict__
    d["root"], d["sign"], d["factors"], d["kind"], d["index"], d["tags"] = (
        root, sign, factors, kind, index, tags)
    rel.__post_init__()
    return rel


def _minimal_tuples(target: int, nslots: int, budget: int = _TUPLE_BUDGET, lo: int = 0):
    """Minimal a in Z_+^nslots with sum_j (j+1) a_j >= target (product order),
    as factors ((lo + j, a_j), ...) over the used slots, top slot first, in
    increasing factor order; RuntimeError once more than `budget` come out.

    With w = sum_j (j+1) a_j and j0 the lowest used slot, a is minimal exactly
    when target <= w < target + j0 + 1 (taking one from slot j0 is the least
    drop in w): a choice of the slots above j0 weighing less than target,
    completed by the least a_j0 that reaches it.  The search picks used slots
    from the top down, lowest slot and smallest count first, which is the
    factor order.  It holds one frame per used slot, and each step emits a
    tuple or opens a frame that emits one: cost linear in the output.
    """
    if target <= 0:
        yield ()
        return
    # a frame: factors so far, their weight w < target, top free slot, next slot, count
    count, stack = 0, [((), 0, nslots - 1, 0, 1)]
    while stack:
        head, w, top, j, c = stack.pop()
        while j <= top:
            need = -(-(target - w) // (j + 1))
            if c < need and j:
                stack.append((head, w, top, j, c + 1))
                head, w, top, j, c = head + ((lo + j, c),), w + (j + 1) * c, j - 1, 0, 1
                continue
            count += 1
            if count > budget:
                raise RuntimeError("tuple budget exceeded: a relation set needs more "
                                   "than %d minimal tuples" % _TUPLE_BUDGET)
            yield head + ((lo + j, need),)
            j, c = j + 1, 1


def relations_M(fam: PFamily) -> tuple[Relation, ...]:
    """All minimal mixed products: for each i in 1..cutoff the minimal
    tuples (a_i, ..., a_s) with sum (j-i+1) a_j >= p(i) + 1.

    All families of the set share one budget of _TUPLE_BUDGET tuples;
    past it a RuntimeError is raised instead of running for minutes."""
    rels = []
    for root, sign, _, p in fam.rows:
        s = p.cutoff
        for i in range(1, s + 1):
            rels += [_row(root, sign, f, "tuple", i, ("M",)) for f in
                     _minimal_tuples(p(i) + 1, s - i + 1, _TUPLE_BUDGET - len(rels), i)]
    return tuple(rels)


def relations_Mprime(fam: PFamily) -> tuple[Relation, ...]:
    """Minimal tuples kept only at indices i with xi_{i+1} < xi_i and
    filtered by the cap sum a_j <= xi_i."""
    rels = []
    for root, sign, _, p in fam.rows:
        s = p.cutoff
        xi = xi_tuple(p) + (0,)
        for i in range(1, s + 1):
            if xi[i] < xi[i - 1]:
                rels += [_row(root, sign, f, "tuple", i, ("Mprime",))
                         for f in _minimal_tuples(p(i) + 1, s - i + 1, lo=i)
                         if sum(a for _, a in f) <= xi[i - 1]]
    return tuple(rels)


def _with_annihilators(walk, own_rows, tags) -> tuple[Relation, ...]:
    """own_rows(root, sign, x, *rest) for each (root, sign, x, *rest) of walk,
    in key order, with the annihilators: the '+' family's x^- (x) tC[t] after
    the root's '+' rows, the '-' family's x^+ (x) C[t] before all its rows."""
    rels = []
    for root, sign, x, *rest in walk:
        if (x == 0) == (sign == "+"):  # the root has a '-' family; first visit
            rels.append(_row(root, "+", ((0, 1),), "cartan", None, tags))
        rels += own_rows(root, sign, x, *rest)
        if sign == "+":
            rels.append(_row(root, "-", ((1, 1),), "cartan", None, tags))
    return tuple(rels)


def relations_Mpp(fam: PFamily) -> tuple[Relation, ...]:
    """Pure powers (x (x) t^i)^(p(i)+1), 1 <= i <= cutoff, plus the
    annihilator family and the boundary power of the presentation;
    RuntimeError before any row is built past _TUPLE_BUDGET powers."""
    # the powers of a family: cutoff + 1 for '+', max(1, cutoff) for '-'
    if sum(p.cutoff + (s == "+" or not p.cutoff) for _, s, _, p in fam.rows) > _TUPLE_BUDGET:
        raise RuntimeError("tuple budget exceeded: a relation set needs more "
                           "than %d monomials" % _TUPLE_BUDGET)
    def powers(root, sign, x, p):
        eps = 0 if sign == "+" else 1  # the boundary power's degree
        return [_row(root, sign, ((i, p(i) + 1),), "monomial", i, ("Mpp",))
                for i in range(eps, max(eps, p.cutoff) + 1)]
    return _with_annihilators(fam.rows, powers, ("Mpp",))


class IsoClass(Enum):
    FIRST = "FirstIso"
    SECOND = "SecondIso"
    BOTH = "Both"
    NEITHER = "Neither"


def classify_xi(xi: tuple[int, ...]) -> IsoClass:
    first = len(set(xi[:-1])) <= 1  # constant head: all equal but the last
    second = len(xi) < 2 or xi[0] != xi[1]  # separated head
    return IsoClass(("Neither", "SecondIso", "FirstIso", "Both")[2 * first + second])


def mmmr_classify(fam: PFamily) -> dict:
    """Which collapse argument applies per applicable (root, sign), in key order:
    the constant-head criterion (FirstIso), the separated-head one (SecondIso), or both."""
    return {(root, sign): classify_xi(xi_tuple(p)) for root, sign, _, p in fam.rows}


# -- divided power supports ------------------------------------------------

def s_sets(r: int, s: int, lower: int = 0, upper: int | None = None):
    """Index vectors b >= 0 with sum b_p = r and sum p b_p = s on lower <= p < upper, as
    sparse ((p, b_p), ...); RuntimeError once over _SUPPORT_BUDGET are generated."""
    if type(r) is not int or type(s) is not int:  # not a bool or a float either
        raise ValueError("r and s must be ints, not %r and %r" % (r, s))
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    low = max(lower, 0)  # indices are nonnegative
    out = []

    def rec(top, parts, weight, tail):
        # the vectors on low..top ahead of tail; the loop runs p down the indices that
        # can hold the largest part left, so the depth is the number of indices used
        if not (parts and weight):
            if not weight and (not parts or low == 0 <= top):  # index 0 takes every part left
                if len(out) == _SUPPORT_BUDGET:
                    raise RuntimeError("support budget exceeded: %d vectors" % _SUPPORT_BUDGET)
                out.append(((0, parts),) + tail if parts else tail)
            return
        least = max(low, -(-weight // parts))  # the largest part is at least the mean
        for p in range(min(top, weight - (parts - 1) * low), least - 1, -1):
            for b in range(max(1, weight - (p - 1) * parts), min(parts, weight // p) + 1):
                rec(p - 1, parts - b, weight - p * b, ((p, b),) + tail)

    rec(s if upper is None else min(upper, s + 1) - 1, r, s, ())
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
    if variant in ("truncated_k", "from_k") and (type(k) is not int or k < 0):
        raise ValueError("this variant needs an int bound k >= 0, not %r" % (k,))
    vectors = s_sets(r, s, lower=k if variant == "from_k" else 0,
                     upper=k if variant == "truncated_k" else None)
    shift = 1 if variant == "t_shifted" else 0
    return tuple((vec, tuple((p + shift, b) for p, b in vec)) for vec in vectors)


# -- the simplified graded presentation ------------------------------------

def sm_pair(x: int, step: int) -> tuple[int, int]:
    """The unique (s, m) with x = (s-1)*step + m and 0 < m <= step.

    x = 0 is the degenerate case (0, step)."""
    _at_least_1("step", step)
    if type(x) is not int or x < 0:
        raise ValueError("x must be an int >= 0, not %r" % (x,))
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
    _at_least_1("k", k)
    return _with_annihilators(_key_walk(rs, rs.check_weight(mu)), partial(_sm_rows, k=k),
                              ("mathieu",))


def _sm_rows(root: Root, sign: str, x: int, d: int, k: int) -> list[Relation]:
    """The monomials of one (root, sign) in factor order: the boundary power,
    then the power and the annihilator of sm_pair(x, step).  Degrees never
    decrease, and a row of the boundary's degree (s = 1 for '+', s <= 2 for
    '-') equals the boundary power: the two are listed once, with both tags."""
    step, tags = d * k, ("simplified", "redundant-k1")
    rows = [((0, x + 1) if sign == "+" else (1, max(0, x - step) + 1), ("mathieu",))]
    if x > 0:
        s, m = sm_pair(x, step)
        if m < step and (sign == "+" or s >= 2):
            rows.append(((s - 1, m + 1), tags[:1 + (k == 1 and not (d == 3 and m == 1))]))
        rows.append(((s, 1), tags[:1 + (k == 1 and d == 1)]))
    if len(rows) > 1 and rows[1][0] == rows[0][0]:
        rows[:2] = [(rows[0][0], rows[1][1] + ("mathieu",))]
    return [_row(root, sign, (f,), "monomial", None, t) for f, t in rows]
