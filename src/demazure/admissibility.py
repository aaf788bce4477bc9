"""Splittings of a weight and the r-admissibility test.

A split of mu into k parts is a tuple (mu_1, ..., mu_k) summing to mu.
Pre-admissibility asks every part to inherit the sign of mu against each
positive root (zero pairing forces all parts to pair to zero).  On top of
that, r-admissibility runs two counting conditions on the per-root value
profiles; condition A compares the remainder class of the largest value
against the weighted multiplicities below it, condition B bounds how far
the values may spread when mu itself pairs large.  ``_conditions`` states
both once, on the profile's own values, which sum to |mu(h_alpha)|.

Every test makes one pass over a split: the split is checked once, each
part is paired once with every positive root (``rs.pairings``), and the
sign witnesses, then the (root, sign) profiles when there is no witness,
read those pairings by root position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .rootdata import Root, RootSystem
from .weights import _signed_positions, finite_dominance

_CANDIDATE_BUDGET = 10**5  # candidates in a row a search for a 1-admissible split may reject


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
        if r < 1:
            raise ValueError("r must be >= 1")
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

    @property
    def k(self) -> int:
        return len(self.split)

    @property
    def admissible(self) -> bool:
        return self.preadmissible and all(rec.ok for rec in self.records)

    @property
    def failures(self) -> tuple[ConditionRecord, ...]:
        return tuple(rec for rec in self.records if not rec.ok)


def _check_split(rs: RootSystem, mu, split) -> None:
    if len(split) < 1:
        raise ValueError("split needs at least one part")
    for part in split:
        rs.check_weight(part)
    total = tuple(sum(cs) for cs in zip(*split))
    if total != rs.check_weight(mu):
        raise ValueError(f"split sums to {total}, not {tuple(mu)}")


def _profile(root: Root, sign: str, d: int, pairs) -> RootProfile:
    """The profile of (root, sign) from the parts' pairings with root."""
    values = tuple(-v for v in pairs) if sign == "+" else tuple(pairs)
    return RootProfile(root, sign, d, values)


def _split_pass(rs: RootSystem, mu, split):
    """Check the split and pair each part once.  Returns the sign witnesses
    (root, part index, pairing) and, only when there are none, the
    RootProfile of every (root, sign) of signed_roots(rs, mu)."""
    _check_split(rs, mu, split)
    pairs, roots = rs.pairings(mu), rs.positive_roots
    columns = tuple(zip(*(rs.pairings(p) for p in split)))
    # a witness pairs nonzero, and to zero or the opposite sign of mu
    witnesses = tuple((root, idx, v) for root, pair, column in zip(roots, pairs, columns)
                      for idx, v in enumerate(column) if v and pair * v <= 0)
    return witnesses, () if witnesses else tuple(
        _profile(roots[j], sign, rs._d_at[j], columns[j])
        for j, sign, _ in _signed_positions(pairs))


def _conditions(prof: RootProfile, k: int, r: int) -> tuple:
    """(condition A, condition B) of the profile at r.  The parts sum to mu, so
    the values sum to |mu(h_alpha)|, and B's x >= t + d*r is min >= d*r."""
    dr = prof.d * r
    return prof.m(r) * k > prof.weighted_count(), (
        min(prof.values) >= dr if prof.sign == "-" and sum(prof.values) > k * dr else None)


def is_preadmissible(rs: RootSystem, mu, split):
    """Sign inheritance of every part against every positive root.

    Returns (flag, witnesses); a witness is (root, part index, pairing).
    """
    witnesses, _ = _split_pass(rs, mu, split)
    return not witnesses, witnesses


def root_profile(rs: RootSystem, split, root: Root, sign: str) -> RootProfile:
    return _profile(root, sign, rs.d(root), [rs.pairing(part, root) for part in split])


def is_r_admissible(rs: RootSystem, mu, split, r: int) -> AdmissibilityReport:
    """Run the admissibility conditions at spread parameter r >= 1.

    Condition A (both signs): m(r) * k > sum_j j * counts[j].
    Condition B (roots with mu(h_alpha) > k*d*r only): x >= t + d*r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    witnesses, profiles = _split_pass(rs, mu, split)
    records = tuple(ConditionRecord(prof, *_conditions(prof, len(split), r))
                    for prof in profiles)
    return AdmissibilityReport(tuple(mu), tuple(tuple(p) for p in split), r,
                               not witnesses, witnesses, records)


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
    witnesses, profiles = _split_pass(rs, mu, split)
    if witnesses:
        return None
    k, r = len(split), 1
    while r_max is None or r <= r_max:
        skip = r
        for prof in profiles:
            a, b = _conditions(prof, k, r)
            if not a:  # then q >= 1, as the values are >= 0
                d, x = prof.d, prof.x
                q = (x - 1) // (d * r)
                skip = max(skip, prof.weighted_count() // (d * k) + 1, (x - 1) // (d * q) + 1)
            if b is False:
                skip = max(skip, -(-sum(prof.values) // (k * prof.d)))
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
    if k < 1:
        raise ValueError("k must be >= 1")

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
    if k < 1:
        raise ValueError("k must be >= 1")
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
            rep = is_r_admissible(rs, lam, balanced_split(rs, lam, k), 1)
            profs = [rec.profile for rec in rep.records]
            t_max = max(p.t for p in profs)
            escape = any(p.t == 2 and p.m(1) == 1 for p in profs)
            records.append(ScanRecord(tuple(lam), k, rep.admissible, t_max, escape))
    return ScanReport(tuple(records))
