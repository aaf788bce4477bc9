"""End-to-end acceptance checks for the package's target computations.

Each criterion function recomputes one headline result from scratch and
returns (name, ok, detail).  They are bundled for the test suite and for
the command line `reproduce` subcommand, so a user can re-run the whole
battery in one go and read a one-line verdict per criterion.
"""

from __future__ import annotations

import itertools
import random

from .admissibility import (_read_report, balanced_split, candidate_splits,
                            is_r_admissible, profile_bound_scan)
from .characters import (GradedCharacter, _apply_word, demazure_character,
                         demazure_operator, embedding_certificate,
                         finite_character, g0_branch)
from .crystal import (build_crystal, component_of, demazure_subcrystal,
                      tensor_crystal)
from .relations import (IsoClass, convexity_report, demazure_p, expand_x_element,
                        is_partition, mmmr_classify, s_sets, sm_pair, xi_tuple)
from .rootdata import Root, root_system
from .weights import (AffineWeight, affine_reflect, dominance_algorithm,
                      is_affine_dominant)


def worked_example_a2():
    """A2, mu = w1 - 2w2, k = 2: dimension 5, the tensor-component diagram,
    and the node-2 sl2 decomposition {2, 3}."""
    rs = root_system("A", 2)
    mu = (1, -2)
    notes = []

    char = demazure_character(rs, mu, 2)
    dim_ok = char.dimension() == 5
    notes.append("dimension %d (want 5)" % char.dimension())

    d1 = demazure_subcrystal(rs, build_crystal(rs, (1, 0)), (2, 1), (1, 0))
    d2 = demazure_subcrystal(rs, build_crystal(rs, (0, 1)), (2,), (0, 1))
    comp = component_of(tensor_crystal(rs, d1, d2), mu)
    want_edges = (((-1, 2), (0, 0), 2), ((0, 0), (1, -2), 2),
                  ((1, 1), (-1, 2), 1), ((1, 1), (2, -1), 2),
                  ((2, -1), (0, 0), 1))
    got_edges = tuple(sorted((u.weight(), v.weight(), i)
                             for u, v, i in comp.edges))
    edges_ok = got_edges == want_edges
    count_ok = len(comp.vertices) == 5
    notes.append("component: %d vertices (want 5), weight-level edges %s"
                 % (len(comp.vertices), "match" if edges_ok else "differ"))
    if not count_ok:
        # The expected diagram identifies vertices by weight and is not a
        # seminormal crystal (its (0,0) node would need eps_1 = 1 but
        # phi_1 = 0 at pairing 0).  The faithful tensor component keeps the
        # two distinct weight-(0,0) elements, hence 6 vertices; the
        # 5-element subobject is demazure_subcrystal(tensor, (2,1), (1,1)).
        notes.append("two elements share weight (0,0), so the weight-level "
                     "diagram has 5 nodes but the component has 6")

    dims = sorted(rec.dimension
                  for rec in g0_branch(rs, char, (2,))
                  for _ in range(rec.multiplicity))
    branch_ok = dims == [2, 3]
    notes.append("node-2 branch dimensions %s (want [2, 3])" % dims)

    ok = dim_ok and count_ok and edges_ok and branch_ok
    return "worked-example-a2", ok, "; ".join(notes)


def admissibility_c2():
    """C2, mu = 2w1 + w2, k = 2: the two splits behave as recorded."""
    rs = root_system("C", 2)
    mu = (2, 1)
    bad, good = ((1, 1), (1, 0)), ((2, 0), (0, 1))
    checks = []

    rep = is_r_admissible(rs, mu, bad, 1)
    fails = rep.failures
    checks.append(not rep.admissible)
    checks.append(len(fails) == 1
                  and fails[0].profile.root == Root((1, 1))
                  and not fails[0].condition_a)
    checks.append(is_r_admissible(rs, mu, bad, 2).admissible)
    checks.append(is_r_admissible(rs, mu, good, 1).admissible)
    checks.append(is_r_admissible(rs, mu, good, 2).admissible)
    detail = ("(w1+w2, w1): 1-admissible=%s (violation at alpha1+alpha2), "
              "2-admissible=%s; (2w1, w2): 1-admissible=%s, 2-admissible=%s"
              % (rep.admissible, checks[2], checks[3], checks[4]))
    return "admissibility-c2", all(checks), detail


def embedding_grid():
    """Every r-admissible candidate split over A1/A2/C2, k <= 3, r <= 2,
    |mu coords| <= 2 certifies, including the two displayed cases."""
    violations = []
    certified = 0
    for family, rank in [("A", 1), ("A", 2), ("C", 2)]:
        rs = root_system(family, rank)
        for mu in itertools.product(range(-2, 3), repeat=rank):
            for k in (1, 2, 3):
                for cand in candidate_splits(rs, mu, k):
                    for r in (1, 2):
                        rep = is_r_admissible(rs, mu, cand, r)
                        if not rep.admissible:
                            continue
                        cert = embedding_certificate(rs, mu, cand, r)
                        if cert.verdict() == "Certified":
                            certified += 1
                        else:
                            violations.append((family, rank, mu, cand, r))
    a2 = embedding_certificate(root_system("A", 2), (1, -2),
                               ((0, -1), (1, -1)), 1)
    c2 = embedding_certificate(root_system("C", 2), (2, 1),
                               ((1, 1), (1, 0)), 2)
    displayed_ok = (a2.verdict() == "Certified" and a2.split_admissible
                    and c2.verdict() == "Certified" and c2.split_admissible)
    ok = not violations and displayed_ok
    detail = ("%d admissible splits certified, %d violations; "
              "displayed cases certified=%s"
              % (certified, len(violations), displayed_ok))
    if violations:
        detail += "; first violation: %r" % (violations[0],)
    return "embedding-grid", ok, detail


def balanced_splits_type_a():
    """Type A ranks 1-3: the balanced split has pairing spread <= 1 on all
    positive roots and is 1-admissible, for dominant coords <= 4, k <= 3."""
    bad_spread, bad_adm = [], []
    total = 0
    for rank in (1, 2, 3):
        rs = root_system("A", rank)
        for lam in itertools.product(range(5), repeat=rank):
            for k in (1, 2, 3):
                total += 1
                # the split is preadmissible, so its report has every profile
                rep = _read_report(rs, lam, balanced_split(rs, lam, k), 1)
                bad_spread += [(rank, lam, k, rec.profile.root)
                               for rec in rep.records if rec.profile.t > 1]
                if not rep.admissible:
                    bad_adm.append((rank, lam, k))
    ok = not bad_spread and not bad_adm
    detail = ("%d cases: spread counterexamples %d, admissibility "
              "counterexamples %d" % (total, len(bad_spread), len(bad_adm)))
    return "balanced-splits-type-a", ok, detail


def profile_scan_bc():
    """B2/C2/B3/C3, coords <= 3, k <= 3: balanced-split profiles have
    t <= 2, and every non-1-admissible case shows a t = 2 = m+1 root."""
    worst_t = 0
    missing = 0
    cases = 0
    for family, rank in [("B", 2), ("C", 2), ("B", 3), ("C", 3)]:
        report = profile_bound_scan(root_system(family, rank), 3, 3)
        cases += len(report.records)
        worst_t = max(worst_t, report.t_bound)
        missing += len(report.missing_escapes)
    ok = worst_t <= 2 and missing == 0
    detail = ("%d balanced splits scanned: max spread t = %d (want <= 2), "
              "%d non-1-admissible cases without a t = 2 = m+1 witness"
              % (cases, worst_t, missing))
    return "profile-scan-bc", ok, detail


def _random_character(rs, rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        fin = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
        terms[(fin, 2, rng.randint(0, 3))] = rng.randint(-3, 3)
    return GradedCharacter(terms)


def character_operators(seed=0):
    """Idempotence and braid relations on seeded random characters, plus
    word-independence and positivity of computed characters."""
    rng = random.Random(seed)
    systems = {name: root_system(*args)
               for name, args in [("A1", ("A", 1)), ("A2", ("A", 2)),
                                  ("B2", ("B", 2)), ("C2", ("C", 2))]}
    idem_bad = braid_bad = 0
    for n in range(200):
        rs = list(systems.values())[n % 4]
        c = _random_character(rs, rng)
        for i in range(rs.rank + 1):
            once = demazure_operator(rs, i, c)
            if demazure_operator(rs, i, once) != once:
                idem_bad += 1
        if rs.rank == 2:
            word_a, word_b = ((1, 2, 1), (2, 1, 2)) if rs.family == "A" \
                else ((1, 2, 1, 2), (2, 1, 2, 1))
            if _apply_word(rs, reversed(word_a), c) != _apply_word(rs, reversed(word_b), c):
                braid_bad += 1

    word_bad = pos_bad = 0
    for name in ("A1", "A2", "C2"):
        rs = systems[name]
        for _ in range(20):
            mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            k = rng.randint(1, 3)
            base = demazure_character(rs, mu, k)
            again = demazure_character(rs, mu, k, pick=rng.choice)
            if base != again:
                word_bad += 1
            if (any(m <= 0 for m in base.terms.values())
                    or base.coefficient(mu, k, 0) != 1):
                pos_bad += 1
    ok = idem_bad == braid_bad == word_bad == pos_bad == 0
    detail = ("idempotence failures %d, braid failures %d over 200 random "
              "characters; word-independence failures %d, positivity or "
              "normalization failures %d over 60 computed characters"
              % (idem_bad, braid_bad, word_bad, pos_bad))
    return "character-operators", ok, detail


def crystal_dimensions():
    """Path-crystal sizes equal character dimensions for coords <= 3 in
    A1, A2, C2, B2."""
    mismatches = []
    total = 0
    for family, rank in [("A", 1), ("A", 2), ("C", 2), ("B", 2)]:
        rs = root_system(family, rank)
        for lam in itertools.product(range(4), repeat=rank):
            total += 1
            got = len(build_crystal(rs, lam).vertices)
            want = finite_character(rs, lam).dimension()
            if got != want:
                mismatches.append((family, rank, lam, got, want))
    ok = not mismatches
    detail = "%d dominant weights checked, %d size mismatches" \
        % (total, len(mismatches))
    return "crystal-dimensions", ok, detail


def _partitions_at_most(parts, total):
    if total == 0:
        return 1
    count = 0

    def rec(remaining, max_part, slots):
        nonlocal count
        if remaining == 0:
            count += 1
            return
        if slots == 0:
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, p, slots - 1)

    rec(total, total, parts)
    return count


def _graded_family_single(x, d_root, k):
    table = {
        1: (root_system("A", 1), Root((1,)), (-x,)),
        2: (root_system("C", 2), Root((1, 0)), (-x, 0)),
        3: (root_system("G", 2), Root((1, 0)), (-x, 0)),
    }
    rs, root, mu = table[d_root]
    return demazure_p(rs, mu, k), root


def relation_sets():
    """Index-set counts against a brute-force partition counter, the two
    collapse identities, convexity with the exact equality pattern, and
    the classifier never reporting Neither on graded inputs."""
    count_bad = sum(1 for r in range(13) for s in range(13)
                    if len(s_sets(r, s)) != _partitions_at_most(r, s))

    special_bad = 0
    for s in range(5):
        if expand_x_element("plain", 1, s) != ((((s, 1),), ((s, 1),)),):
            special_bad += 1
    for r, k in [(2, 1), (3, 2), (4, 3)]:
        if expand_x_element("from_k", r, k * r, k) != ((((k, r),), ((k, r),)),):
            special_bad += 1

    convex_bad = neither_bad = 0
    for d in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for x in range(-12, 13):
                fam, root = _graded_family_single(x, d, k)
                report = convexity_report(fam)
                if not report.ok:
                    convex_bad += 1
                for sign in "+-":
                    if not is_partition(xi_tuple(fam.pfunction(root, sign))):
                        convex_bad += 1
                if x >= 0 and any(v is IsoClass.NEITHER
                                  for v in mmmr_classify(fam).values()):
                    neither_bad += 1
    ok = count_bad == special_bad == convex_bad == neither_bad == 0
    detail = ("count mismatches %d; collapse-identity failures %d; "
              "convexity/equality failures %d; Neither classifications %d"
              % (count_bad, special_bad, convex_bad, neither_bad))
    return "relation-sets", ok, detail


def sm_recombination():
    """Stage/remainder recombination verified by brute force:
    x <= 30, j <= x, step <= 6."""
    bad = 0
    for step in range(1, 7):
        for x in range(31):
            s, m = sm_pair(x, step)
            for j in range(x + 1):
                s1, m1 = sm_pair(x - j, step)
                q, m2 = (0, step) if j == 0 else sm_pair(j, step)
                want = (s1 + q - 1, m1 + m2) if m1 + m2 <= step \
                    else (s1 + q, m1 + m2 - step)
                if (s, m) != want:
                    bad += 1
    return "sm-recombination", bad == 0, "%d mismatches over 5456 cases" % bad


def dominance_roundtrip(seed=0):
    """500 seeded affine weights walk to the dominant chamber and return
    bit-exactly along the recorded word."""
    rng = random.Random(seed)
    families = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                ("C", 2), ("C", 3), ("G", 2)]
    bad = 0
    for _ in range(500):
        family, rank = families[rng.randrange(len(families))]
        rs = root_system(family, rank)
        w = AffineWeight(tuple(rng.randint(-4, 4) for _ in range(rank)),
                         rng.randint(1, 3), rng.randint(-3, 3))
        lam, word = dominance_algorithm(rs, w)
        back = lam
        for i in reversed(word):
            back = affine_reflect(rs, i, back)
        if not is_affine_dominant(rs, lam) or back != w:
            bad += 1
    return "dominance-roundtrip", bad == 0, "%d of 500 round trips failed" % bad


CRITERIA = (worked_example_a2, admissibility_c2, embedding_grid,
            balanced_splits_type_a, profile_scan_bc, character_operators,
            crystal_dimensions, relation_sets, sm_recombination,
            dominance_roundtrip)


def run_all(seed=0):
    seeded = (character_operators, dominance_roundtrip)
    return tuple(fn(seed) if fn in seeded else fn() for fn in CRITERIA)
