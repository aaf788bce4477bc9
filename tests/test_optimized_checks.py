"""Library invariants raise real exceptions, so they hold under ``python -O``,
which strips ``assert`` statements."""

from capped_run import run_capped

# each check runs in the -O interpreter and prints "<name> <exception type>"
SCRIPT = r'''
import sys
from fractions import Fraction

import demazure.admissibility as adm
import demazure.characters as ch
import demazure.crystal as cr
import demazure.relations as rel
from demazure.admissibility import (balanced_split, enumerate_dominant_splits,
                                   find_1_admissible)
from demazure.crystal import (CrystalGraph, Path, build_crystal, demazure_subcrystal,
                              tensor_crystal)
from demazure.relations import (demazure_p, relations_M, relations_Mpp,
                                simplified_demazure_relations)
from demazure.rootdata import root_system
from demazure.weights import (AffineWeight, affine_pairing, dominance_algorithm,
                              finite_dominance)

A1, A2 = root_system("A", 1), root_system("A", 2)
u, v, w = Path.straight((1, 0)), Path.straight((2, 0)), Path((), 2)
GC = ch.GradedCharacter
MU, K = (-2,), 1   # a non-dominant weight, so the operator word is not empty
BAD = {
    "unnormalised": GC({(MU, K, 0): 2}),
    "negative-grade": GC({(MU, K, 0): 1, (MU, K, -1): 1}),
    "negative-coefficient": GC({(MU, K, 0): 1, ((0,), K, 0): -1}),
}

def character_check(name):
    apply_word, ch._apply_word = ch._apply_word, lambda rs, word, char: ch._pack(BAD[name].terms)
    try:
        return ch.demazure_character(A1, MU, K)
    finally:
        ch._apply_word = apply_word

def over_budget(module, name, value, call):
    """call() with the module's budget constant ``name`` set to value."""
    budget = getattr(module, name)
    setattr(module, name, value)
    try:
        return call()
    finally:
        setattr(module, name, budget)

def list_parts_check():
    want = adm.is_r_admissible(A2, (1, -2), ((0, -1), (1, -1)), 1)
    got = adm.is_r_admissible(A2, [1, -2], [[0, -1], [1, -1]], 1)
    if got != want or repr(got) != repr(want):
        raise RuntimeError("list parts give another report")

CHECKS = {
    "weight": lambda: Path(((Fraction(1, 2), 0),), 2).weight(),
    "concat": lambda: u.concat(Path.straight((1,))),
    # (1,0)+(1,0) and (2,0)+() are the same broken line
    "tensor": lambda: tensor_crystal(A2, CrystalGraph((u, v), (), None),
                                     CrystalGraph((u, w), (), None)),
    "arrows": lambda: demazure_subcrystal(
        A2, CrystalGraph((u, v, w), ((u, v, 1), (u, w, 1)), u), (), (1, 0)),
    "relations-budget": lambda: relations_M(demazure_p(A1, (-60,), 1)),
    # 10^6 + 1 values in one p family, and 10^5 + 1 pure powers in one Mpp set
    "family-budget": lambda: demazure_p(A1, (-10**6 - 1,), 1),
    "mpp-budget": lambda: relations_Mpp(demazure_p(A1, (-10**5,), 1)),
    "rank-budget": lambda: root_system("A", 5000),
    "crystal-long": lambda: build_crystal(A2, (1, 0, 0)),
    "crystal-short": lambda: build_crystal(A2, (1,)),
    "dominance-length": lambda: finite_dominance(A2, (1, -1, -5)),
    "parabolic-length": lambda: ch.parabolic_character(A2, (1, 0, 0), (1,)),
    "finite-length": lambda: ch.finite_character(A2, (1, 0, 0)),
    "balanced-length": lambda: balanced_split(A2, (1, 0, 0), 2),
    "find-length": lambda: find_1_admissible(A2, (1, 0, 0), 2),
    "branch-node": lambda: ch.g0_branch(A2, ch.finite_character(A2, (1, 0)), (5,)),
    "walk-length": lambda: dominance_algorithm(A2, AffineWeight((1,), 1, 0)),
    "family-length": lambda: demazure_p(A2, (1,), 1),
    "simplified-length": lambda: simplified_demazure_relations(A2, (1, 0, 0), 1),
    # 2 x 2 product vertices over a budget of 3, before the equal concatenations
    "tensor-budget": lambda: over_budget(cr, "_VERTEX_BUDGET", 3, lambda: tensor_crystal(
        A2, CrystalGraph((u, v), (), None), CrystalGraph((u, w), (), None))),
    "character-budget": lambda: over_budget(ch, "_TERM_BUDGET", 0,
                                            lambda: ch.finite_character(A2, (1, 0))),
    "support-budget": lambda: over_budget(rel, "_SUPPORT_BUDGET", 0, lambda: rel.s_sets(2, 2)),
    "enumerate-length": lambda: list(enumerate_dominant_splits(A2, (1,), 2)),
    "tensor-length": lambda: GC.from_weight((1, 0), 1).tensor(GC.from_weight((1,), 1)),
    "tensor-entry": lambda: GC({((Fraction(1, 2),), 1, 0): 1}).tensor(GC.from_weight((1,), 1)),
    "candidate-budget": lambda: over_budget(adm, "_CANDIDATE_BUDGET", 0,
                                            lambda: adm.find_1_admissible(A1, (6,), 3)),
    "admissible-length": lambda: adm.is_r_admissible(A2, (1, 0), ((1, 0), (0,)), 1),
    "admissible-lists": list_parts_check,
    # D_1 on (10^6) at level 10^6 would emit 10^6 + 1 terms in one application
    "operator-budget": lambda: ch.demazure_character(A1, (-10**6,), 10**6),
    "affine-node": lambda: affine_pairing(A2, AffineWeight((1, -2), 2, 0), -1),
    "operator-rank": lambda: ch.demazure_operator(A1, 1, GC.from_weight((1, 2), 1)),
    # a float level once gave a 2-term character, a float coordinate a bare TypeError
    "operator-level": lambda: ch.demazure_operator(A2, 1, GC({((1, 0), 1.5, 0): 1})),
    "operator-coordinate": lambda: ch.demazure_operator(A2, 1, GC({((1.0, 0), 1, 0): 1})),
}
CHECKS.update({name: (lambda name=name: character_check(name)) for name in BAD})

print("optimize", sys.flags.optimize)
for name, check in CHECKS.items():
    try:
        check()
        print(name, "none")
    except Exception as exc:
        print(name, type(exc).__name__)
'''


def test_invariants_raise_under_python_O():
    proc = run_capped("-O", "-c", SCRIPT, timeout=60)[0]
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split() for line in proc.stdout.splitlines())
    assert got == {
        "optimize": "1",
        "weight": "ValueError", "concat": "ValueError",
        "tensor": "ValueError", "arrows": "ValueError",
        "relations-budget": "RuntimeError",
        "family-budget": "RuntimeError", "mpp-budget": "RuntimeError",
        "rank-budget": "ValueError", "crystal-long": "ValueError",
        "crystal-short": "ValueError", "dominance-length": "ValueError",
        "parabolic-length": "ValueError", "finite-length": "ValueError",
        "balanced-length": "ValueError", "find-length": "ValueError",
        "branch-node": "ValueError", "walk-length": "ValueError",
        "family-length": "ValueError", "simplified-length": "ValueError",
        "tensor-budget": "RuntimeError", "character-budget": "RuntimeError",
        "support-budget": "RuntimeError",
        "unnormalised": "RuntimeError", "negative-grade": "RuntimeError",
        "negative-coefficient": "RuntimeError",
        "enumerate-length": "ValueError", "tensor-length": "ValueError",
        "tensor-entry": "ValueError", "candidate-budget": "RuntimeError",
        "admissible-length": "ValueError", "admissible-lists": "none",
        "operator-budget": "RuntimeError",
        "affine-node": "ValueError", "operator-rank": "ValueError",
        "operator-level": "ValueError", "operator-coordinate": "ValueError",
    }
