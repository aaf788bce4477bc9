"""Splittings of a weight and the r-admissibility test.

A split of mu into k parts is a tuple (mu_1, ..., mu_k) summing to mu.
Pre-admissibility asks every part to inherit the sign of mu against each
positive root (zero pairing forces all parts to pair to zero).  On top of
that, r-admissibility runs two counting conditions on the per-root value
profiles; condition A compares the remainder class of the largest value
against the weighted multiplicities below it, condition B bounds how far
the values may spread when mu itself pairs large.  ``_conditions`` states
both once, on a profile's largest value, least value and sum |mu(h_alpha)|.

``is_preadmissible``, ``is_r_admissible`` and ``minimal_r`` make one pass over
a split (``_pass``): part pairings come from the memo ``_part_pairings`` (the
last 2^12 parts, ``_PAIRINGS_BOUND``), and each root's column of them is read
by its sum, min and max alone, which decide its witnesses and both conditions.
A report keeps its verdict, which stops at the first failing (root, sign), and
its root system; it builds its records, in a second pass, when first read.  A
caller that reads them at once takes ``_read_report``, which builds them in its pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import neg

from .rootdata import Root, RootSystem, _at_least_1
from .weights import finite_dominance

_CANDIDATE_BUDGET = 10**5  # candidates in a row a search for a 1-admissible split may reject
_PAIRINGS_BOUND = 1 << 12  # (root system, part) pairs whose pairings _part_pairings keeps


def _fill(cls, **fields):
    """cls(**fields) for a frozen dataclass, without its __init__: fields is its __dict__."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


@dataclass(frozen=True)
class RootProfile:
    """Value profile of one (root, sign) against the parts of a split.

    values[i] = -mu_i(h_alpha) for sign '+', +mu_i(h_alpha) for sign '-';
    x is the largest value, t = x - min, counts[j] = #{i : values[i] = x - j}
    (interior zeros allowed).  m(r) is the representative of x in
    (0, d*r] modulo d*r.
    """

    root: Root
    sign: str
    d: int
    values: tuple[int, ...]

    @property
    def x(self) -> int:
        return max(self.values)

    @property
    def t(self) -> int:
        return self.x - min(self.values)

    @property
    def counts(self) -> tuple[int, ...]:
        x = self.x
        return tuple(self.values.count(x - j) for j in range(self.t + 1))

    def m(self, r: int) -> int:
        _at_least_1("r", r)
        return (self.x - 1) % (self.d * r) + 1

    def weighted_count(self) -> int:
        """sum_j j * counts[j]: each value is x - j for its own j."""
        return len(self.values) * self.x - sum(self.values)


@dataclass(frozen=True)
class ConditionRecord:
    profile: RootProfile
    condition_a: bool
    condition_b: bool | None  # None when not applicable

    @property
    def ok(self) -> bool:
        return self.condition_a and self.condition_b is not False


@dataclass(frozen=True)
class AdmissibilityReport:
    mu: tuple[int, ...]
    split: tuple[tuple[int, ...], ...]
    r: int
    preadmissible: bool
    sign_witnesses: tuple  # (root, part index, part pairing) breaking inheritance
    records: tuple[ConditionRecord, ...]

    def __getattr__(self, name):  # an is_r_admissible report's records: one tuple for all
        if name != "records" or "_rs" not in (kept := vars(self)):
            raise AttributeError(name)
        passed = _pass(rs := kept["_rs"], self.mu, self.split)
        return kept.setdefault("records", tuple(_records(rs, passed, self.r)))

    @property
    def k(self) -> int:
        return len(self.split)

    @property
    def admissible(self) -> bool:
        if (verdict := vars(self).get("_admissible")) is not None:
            return verdict
        return self.preadmissible and all(rec.ok for rec in self.records)

    @property
    def failures(self) -> tuple[ConditionRecord, ...]:
        return tuple(rec for rec in self.records if not rec.ok)


@lru_cache(maxsize=_PAIRINGS_BOUND, typed=True)
def _part_pairings(rs: RootSystem, *part) -> tuple[int, ...]:
    """rs.pairings(part) for the last _PAIRINGS_BOUND (rs, part)s; typed: 1.0 is not 1."""
    return rs.pairings(rs.check_weight(part))


def _pass(rs: RootSystem, mu, split, r=1):
    """Check r (an int >= 1) and the split, and walk the roots once.  Returns
    mu, the parts, the sign witnesses (root, part index, pairing) and, when
    there are none, (j, column, sign, d, x, lo, total) per (root, sign) of
    signed_roots(rs, mu) at root position j: the profile's values are the
    column of part pairings for '-' and its negatives for '+', with max x,
    min lo and sum total."""
    _at_least_1("r", r)
    if len(split) < 1:
        raise ValueError("split needs at least one part")
    rows = [_part_pairings(rs, *part) for part in split]
    parts, sums = tuple(map(tuple, split)), tuple(map(sum, zip(*split)))
    if sums != (mu := rs.check_weight(mu)):
        raise ValueError(f"split sums to {sums}, not {mu}")
    columns, signed, d_at = tuple(zip(*rows)), [], rs._d_at
    for j, column in enumerate(columns):
        pair, lo, hi = sum(column), min(column), max(column)
        if pair >= 0 > lo or pair <= 0 < hi:  # a part pairs nonzero, to zero or against mu
            return mu, parts, tuple((root, idx, v) for root, col in zip(rs.positive_roots, columns)
                                    for idx, v in enumerate(col) if v and sum(col) * v <= 0), ()
        if pair <= 0:
            signed.append((j, column, "+", d_at[j], -lo, -hi, -pair))
        if pair >= 0:
            signed.append((j, column, "-", d_at[j], hi, lo, pair))
    return mu, parts, (), signed


def _conditions(k: int, r: int, sign: str, d: int, x: int, lo: int, total: int) -> tuple:
    """(condition A, condition B) at r of a (root, sign) profile of k values with max x,
    min lo and sum total = |mu(h_alpha)|.  A, m(r) * k > k*x - total, is total > k*d*r*q
    as m(r) = x - q*d*r, q = (x - 1) // (d*r); B, x >= t + d*r, is lo >= d*r."""
    dr = d * r
    return total > k * dr * ((x - 1) // dr), (lo >= dr if sign == "-" and total > k * dr else None)


def is_preadmissible(rs: RootSystem, mu, split):
    """Sign inheritance of every part against every positive root.

    Returns (flag, witnesses); a witness is (root, part index, pairing).
    """
    witnesses = _pass(rs, mu, split)[2]
    return not witnesses, witnesses


def root_profile(rs: RootSystem, split, root: Root, sign: str) -> RootProfile:
    pairs = tuple(rs.pairing(part, root) for part in split)
    return RootProfile(root, sign, rs.d(root), tuple(map(neg, pairs)) if sign == "+" else pairs)


def _records(rs: RootSystem, passed, r: int):
    """The ConditionRecords at r of ``_pass``'s output ``passed``, one per (root, sign)."""
    for j, column, sign, d, x, lo, total in passed[3]:
        a, b = _conditions(len(passed[1]), r, sign, d, x, lo, total)
        prof = _fill(RootProfile, root=rs.positive_roots[j], sign=sign, d=d,
                     values=column if sign == "-" else tuple(map(neg, column)))
        yield _fill(ConditionRecord, profile=prof, condition_a=a, condition_b=b)


def is_r_admissible(rs: RootSystem, mu, split, r: int) -> AdmissibilityReport:
    """Run the admissibility conditions at spread parameter r >= 1.

    Condition A (both signs): m(r) * k > sum_j j * counts[j].
    Condition B (roots with mu(h_alpha) > k*d*r only): x >= t + d*r.
    """
    mu, parts, witnesses, signed = _pass(rs, mu, split, r)
    k = len(parts)
    ok = not witnesses and all(False not in _conditions(k, r, sign, d, x, lo, total)
                               for _, _, sign, d, x, lo, total in signed)
    return _fill(AdmissibilityReport, mu=mu, split=parts, r=r, preadmissible=not witnesses,
                 sign_witnesses=witnesses, _rs=rs, _admissible=ok)


def _read_report(rs: RootSystem, mu, split, r: int) -> AdmissibilityReport:
    """The report of ``is_r_admissible``, its records built from the same pass."""
    mu, parts, witnesses, _ = passed = _pass(rs, mu, split, r)
    records = tuple(_records(rs, passed, r))
    ok = not witnesses and all(rec.ok for rec in records)
    return _fill(AdmissibilityReport, mu=mu, split=parts, r=r, preadmissible=not witnesses,
                 sign_witnesses=witnesses, _rs=rs, _admissible=ok, records=records)


def minimal_r(rs: RootSystem, mu, split, r_max: int | None = None):
    """Smallest r >= 1 making the split r-admissible, None if the split is
    not even pre-admissible (or r_max cuts the scan short).

    For r at least the largest profile value x the conditions always hold:
    m(r) = x makes condition A read x*k > k*x - sum(values) which is the
    positivity of the pairing, and the premise of condition B fails since
    mu(h_alpha) <= k*x <= k*d*r.  So the scan ends by max(x).  It skips the
    r where a profile must fail: A needs d*r*k > weighted_count(), as m(r)
    <= d*r; while q = (x - 1) // (d*r) stays fixed, m(r) = x - q*d*r falls,
    so A fails to the end of that block; B fails until k*d*r >= sum(values).
    """
    _, parts, witnesses, signed = _pass(rs, mu, split)
    if witnesses:
        return None
    k, r = len(parts), 1
    while r_max is None or r <= r_max:
        skip = r
        for _, _, sign, d, x, lo, total in signed:
            a, b = _conditions(k, r, sign, d, x, lo, total)
            if not a:  # then q >= 1, as the values are >= 0
                q = (x - 1) // (d * r)
                skip = max(skip, (k * x - total) // (d * k) + 1, (x - 1) // (d * q) + 1)
            if b is False:
                skip = max(skip, -(-total // (k * d)))
        if skip == r:
            return r
        r = skip
    return None


# -- searching for splits ----------------------------------------------------

def _compositions(total: int, k: int):
    """Weak compositions of total into k parts, earlier parts greedy-first: a step moves
    a unit of the last nonzero comp[i] (i < k - 1) and all of comp[-1] to comp[i + 1]."""
    comp = [total] + [0] * (k - 1)
    yield tuple(comp)
    while any(comp[:-1]):
        i = max(j for j in range(k - 1) if comp[j])
        comp[i], comp[-1], comp[i + 1] = comp[i] - 1, 0, comp[-1] + 1
        yield tuple(comp)


def enumerate_dominant_splits(rs: RootSystem, lam, k: int):
    """All splits of a dominant lam into k dominant parts, coordinatewise.

    Deterministic order: per node, compositions give earlier parts the
    larger share first; nodes vary with the first node outermost.  Splits
    come lazily, each the transpose of one composition per node."""
    lam = rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise ValueError("enumerate_dominant_splits needs a dominant weight")
    _at_least_1("k", k)

    def nodes(combo):
        if len(combo) == len(lam):
            yield tuple(zip(*combo))
            return
        for comp in _compositions(lam[len(combo)], k):
            yield from nodes(combo + (comp,))

    yield from nodes(())


def pull_back(rs: RootSystem, word, split):
    """Carry a split along the inverse of the Weyl word (partwise)."""
    inverse = tuple(reversed(word))
    return tuple(rs.weyl_apply(inverse, part) for part in split)


def candidate_splits(rs: RootSystem, mu, k: int):
    """The dominant splits of the dominant conjugate of mu, in enumeration
    order, each pulled back to a split of mu."""
    lam, word = finite_dominance(rs, mu)
    for split in enumerate_dominant_splits(rs, lam, k):
        yield pull_back(rs, word, split)


def _admissible_candidates(rs: RootSystem, mu, k: int):
    """The 1-admissible candidate splits of mu into k parts, in enumeration
    order; RuntimeError past _CANDIDATE_BUDGET failed candidates in a row."""
    misses = 0
    for cand in candidate_splits(rs, mu, k):
        if is_r_admissible(rs, mu, cand, 1).admissible:
            misses = 0
            yield cand
        elif (misses := misses + 1) > _CANDIDATE_BUDGET:
            raise RuntimeError("candidate budget exceeded: %d candidates in a row are "
                               "not 1-admissible" % _CANDIDATE_BUDGET)


def find_1_admissible(rs: RootSystem, mu, k: int):
    """First 1-admissible candidate split of mu into k parts; None if every
    candidate fails, RuntimeError past _CANDIDATE_BUDGET failed candidates."""
    return next(_admissible_candidates(rs, mu, k), None)


def balanced_split(rs: RootSystem, mu, k: int) -> tuple[tuple[int, ...], ...]:
    """The box-filling split: conjugate dominant, give every part the
    coordinatewise quotient by k, then hand out the remainder one
    fundamental weight at a time round-robin (the pointer runs on across
    nodes), and pull back."""
    _at_least_1("k", k)
    lam, word = finite_dominance(rs, mu)
    boxes = [[c // k for c in lam] for _ in range(k)]
    pointer = 0
    for node in range(rs.rank):
        for _ in range(lam[node] % k):
            boxes[pointer % k][node] += 1
            pointer += 1
    return pull_back(rs, word, tuple(tuple(b) for b in boxes))


# -- profile scans -------------------------------------------------------------

@dataclass(frozen=True)
class ScanRecord:
    lam: tuple[int, ...]
    k: int
    admissible_1: bool
    t_max: int
    escape: bool  # some profile has t = 2 and m(1) = 1


@dataclass(frozen=True)
class ScanReport:
    records: tuple[ScanRecord, ...]

    @property
    def t_bound(self) -> int:
        return max((rec.t_max for rec in self.records), default=0)

    @property
    def missing_escapes(self) -> tuple[ScanRecord, ...]:
        return tuple(r for r in self.records if not r.admissible_1 and not r.escape)


def profile_bound_scan(rs: RootSystem, coord_bound: int, k_bound: int) -> ScanReport:
    """Balanced-split profiles over all dominant weights with coordinates
    <= coord_bound and 1 <= k <= k_bound: records the largest spread t and
    whether non-1-admissible cases exhibit a profile with t = 2, m(1) = 1."""
    records = []
    for lam in itertools.product(range(coord_bound + 1), repeat=rs.rank):
        for k in range(1, k_bound + 1):
            # dominant parts of a dominant lam are preadmissible, so the
            # report carries every profile
            rep = _read_report(rs, lam, balanced_split(rs, lam, k), 1)
            profs = [rec.profile for rec in rep.records]
            t_max = max(p.t for p in profs)
            escape = any(p.t == 2 and p.m(1) == 1 for p in profs)
            records.append(ScanRecord(tuple(lam), k, rep.admissible, t_max, escape))
    return ScanReport(tuple(records))
