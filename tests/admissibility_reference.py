"""Reference copy of the earlier admissibility tests, kept as a differential
oracle for the one-pass implementation in ``demazure.admissibility``.  Test
use only.

The functions below are the earlier module's, unchanged; the split
enumeration is the earlier eager one, which builds every node's compositions
before the first split.  The result types (``RootProfile``,
``ConditionRecord``, ``AdmissibilityReport``, ``ScanRecord``, ``ScanReport``)
and the other split helpers are imported from the package, so old and new
results compare with ``==``.
"""

from __future__ import annotations

import itertools

from demazure.admissibility import (AdmissibilityReport, ConditionRecord,
                                    RootProfile, ScanRecord, ScanReport,
                                    balanced_split, pull_back)
from demazure.rootdata import Root, RootSystem
from demazure.weights import finite_dominance, signed_roots



def _check_split(rs: RootSystem, mu, split) -> None:
    if len(split) < 1:
        raise ValueError("split needs at least one part")
    if any(len(part) != rs.rank for part in split):
        raise ValueError("part length does not match the rank")
    total = tuple(sum(cs) for cs in zip(*split))
    if total != tuple(mu):
        raise ValueError(f"split sums to {total}, not {tuple(mu)}")


def is_preadmissible(rs: RootSystem, mu, split):
    """Sign inheritance of every part against every positive root.

    Returns (flag, witnesses); a witness is (root, part index, pairing).
    """
    _check_split(rs, mu, split)
    part_pairs = [rs.pairings(part) for part in split]
    witnesses = []
    for pos, (root, pair) in enumerate(zip(rs.positive_roots, rs.pairings(mu))):
        for idx, pairs in enumerate(part_pairs):
            v = pairs[pos]
            if (pair > 0 and v < 0) or (pair < 0 and v > 0) or (pair == 0 and v != 0):
                witnesses.append((root, idx, v))
    return not witnesses, tuple(witnesses)


def root_profile(rs: RootSystem, split, root: Root, sign: str) -> RootProfile:
    values = tuple((-1 if sign == "+" else 1) * rs.pairing(part, root)
                   for part in split)
    return RootProfile(root, sign, rs.d(root), values)


def is_r_admissible(rs: RootSystem, mu, split, r: int) -> AdmissibilityReport:
    """Run the admissibility conditions at spread parameter r >= 1.

    Condition A (both signs): m(r) * k > sum_j j * counts[j].
    Condition B (roots with mu(h_alpha) > k*d*r only): x >= t + d*r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_split(rs, mu, split)
    k = len(split)
    pre, witnesses = is_preadmissible(rs, mu, split)
    records = []
    if pre:
        for root, sign, x in signed_roots(rs, mu):
            prof = root_profile(rs, split, root, sign)
            cond_a = prof.m(r) * k > prof.weighted_count()
            cond_b = None
            if sign == "-" and x > k * prof.d * r:
                cond_b = prof.x >= prof.t + prof.d * r
            records.append(ConditionRecord(prof, cond_a, cond_b))
    return AdmissibilityReport(tuple(mu), tuple(tuple(p) for p in split), r,
                               pre, witnesses, tuple(records))


def minimal_r(rs: RootSystem, mu, split, r_max: int | None = None):
    """Smallest r >= 1 making the split r-admissible, None if the split is
    not even pre-admissible (or r_max cuts the scan short).

    For r at least the largest profile value x the conditions always hold:
    m(r) = x makes condition A read x*k > k*x - sum(values) which is the
    positivity of the pairing, and the premise of condition B fails since
    mu(h_alpha) <= k*x <= k*d*r.  So the scan can stop at max(x).
    """
    pre, _ = is_preadmissible(rs, mu, split)
    if not pre:
        return None
    stop = 1
    for root, sign, _ in signed_roots(rs, mu):
        stop = max(stop, root_profile(rs, split, root, sign).x)
    if r_max is not None:
        stop = min(stop, r_max)
    for r in range(1, stop + 1):
        if is_r_admissible(rs, mu, split, r).admissible:
            return r
    return None


def _compositions(total: int, k: int):
    """Weak compositions of total into k parts, earlier parts greedy-first."""
    if k == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def enumerate_dominant_splits(rs: RootSystem, lam, k: int):
    """All splits of a dominant lam into k dominant parts, coordinatewise.

    Deterministic order: per node, compositions give earlier parts the
    larger share first; nodes vary with the first node outermost."""
    lam = rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise ValueError("enumerate_dominant_splits needs a dominant weight")
    if k < 1:
        raise ValueError("k must be >= 1")
    for combo in itertools.product(*[tuple(_compositions(c, k)) for c in lam]):
        yield tuple(tuple(comp[j] for comp in combo) for j in range(k))


def find_1_admissible(rs: RootSystem, mu, k: int):
    """First 1-admissible split of mu into k parts, searching dominant
    splits of the dominant conjugate in enumeration order; None if the
    whole enumeration fails."""
    lam, word = finite_dominance(rs, mu)
    for split in enumerate_dominant_splits(rs, lam, k):
        cand = pull_back(rs, word, split)
        if is_r_admissible(rs, mu, cand, 1).admissible:
            return cand
    return None


def profile_bound_scan(rs: RootSystem, coord_bound: int, k_bound: int) -> ScanReport:
    """Balanced-split profiles over all dominant weights with coordinates
    <= coord_bound and 1 <= k <= k_bound: records the largest spread t and
    whether non-1-admissible cases exhibit a profile with t = 2, m(1) = 1."""
    records = []
    for lam in itertools.product(range(coord_bound + 1), repeat=rs.rank):
        for k in range(1, k_bound + 1):
            split = balanced_split(rs, lam, k)
            profs = [root_profile(rs, split, root, sign)
                     for root, sign, _ in signed_roots(rs, lam)]
            t_max = max(p.t for p in profs)
            escape = any(p.t == 2 and p.m(1) == 1 for p in profs)
            adm = is_r_admissible(rs, lam, split, 1).admissible
            records.append(ScanRecord(tuple(lam), k, adm, t_max, escape))
    return ScanReport(tuple(records))
