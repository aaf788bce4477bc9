"""Reference copy of the earlier relation-set builders and p families,
kept as a differential oracle for the in-order rows of
``demazure.relations``.  Test use only.

Everything below the imports is the earlier module's, unchanged: the four
builders, which sort each whole set on ``Root`` keys, ``_tuple_relation``,
the dense minimal-tuple search and the sort key they use; then the p
families as a table over every (positive root, sign), with ``_ZERO`` where
mu imposes nothing, and the ``convexity_report`` and ``mmmr_classify`` that
read that table; last ``s_sets``, which walked every vector of its weight
before branches that cannot reach it were pruned.  The one edit is a name:
the table family's class, the earlier ``PFamily`` without its cached
key-order walk, is ``TableFamily`` here.  ``Relation``, ``PFunction``, the
report classes, ``xi_tuple``, ``sm_pair`` and the budget are imported from
the package, so old and new results compare with ``==``; the four builders
take either family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from demazure.relations import (_TUPLE_BUDGET, _ZERO, ConvexityRecord,
                                ConvexityReport, PFamily, PFunction, Relation,
                                classify_xi, sm_pair, xi_tuple)
from demazure.rootdata import Root, RootSystem
from demazure.weights import signed_roots


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


# -- the p families as an all-pairs table ------------------------------------

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
class TableFamily:
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


def _family(kind: str, rs: RootSystem, mu, k, value) -> TableFamily:
    """The family with p = value(root, sign, x) at each (root, sign, x) of
    signed_roots, and p = 0 at the other (root, sign)."""
    mu = rs.check_weight(mu)
    entries = dict.fromkeys(((root, sign) for root in rs.positive_roots
                             for sign in "+-"), _ZERO)
    for root, sign, x in signed_roots(rs, mu):
        entries[(root, sign)] = value(root, sign, x)
    return TableFamily(kind, rs, mu, k, entries)


def demazure_p(rs: RootSystem, mu, k: int) -> TableFamily:
    """The graded family p(s) = max{0, x - d_alpha*k*s} for level k >= 1."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    return _family("demazure", rs, mu, k,
                   lambda root, sign, x: _graded_values(x, rs.d(root) * k))


def weyl_p(rs: RootSystem, mu) -> TableFamily:
    """Local Weyl family for anti-dominant mu: p^+(s) = max{0, -mu(h)-s}, p^- = 0."""
    if any(c > 0 for c in mu):
        raise ValueError("weyl_p needs an anti-dominant weight")
    # anti-dominant mu imposes sign '-' only where x = 0
    return _family("weyl", rs, mu, None, lambda root, sign, x: _descending_values(x, 0))


def generalized_weyl_p(rs: RootSystem, mu) -> TableFamily:
    """Boundary data p^+(0) = max{0,-mu(h)}, p^-(1) = max{0,mu(h)}.

    The remaining values are a free choice as long as they are redundant;
    we fill by linear descent to zero, the classical consequence pattern
    of the boundary power.
    """
    return _family("genweyl", rs, mu, None,
                   lambda root, sign, x: _descending_values(x, 0 if sign == "+" else 1))


def convexity_report(fam: TableFamily) -> ConvexityReport:
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


def mmmr_classify(fam: TableFamily) -> dict:
    """Which collapse argument applies per (root, sign): the constant-head
    criterion (FirstIso), the separated-head criterion (SecondIso), or both."""
    return {pair: classify_xi(xi_tuple(fam.pfunction(*pair)))
            for pair in fam.applicable_pairs()}


def s_sets(r: int, s: int, lower: int = 0, upper: int | None = None):
    """Index vectors b >= 0 with sum b_p = r and sum p b_p = s,
    support restricted to lower <= p < upper.  Sparse ((p, b_p), ...) form."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")

    def rec(p, parts, weight):
        # the vectors on lower..p, p falling; index 0 takes every part left
        if p < lower or p == 0:
            if weight == 0 and (parts == 0 or p == 0 >= lower):
                yield ((0, parts),) if parts else ()
            return
        for b in range(min(parts, weight // p) + 1):
            for rest in rec(p - 1, parts - b, weight - p * b):
                yield rest + ((p, b),) if b else rest

    return tuple(sorted(rec(s if upper is None else min(upper, s + 1) - 1, r, s)))
