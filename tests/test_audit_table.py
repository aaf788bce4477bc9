"""Every public name that takes a size, run once on a few-digit input.

A name takes a size when the work it does, or what it returns, can grow with
the value of an integer it is given: a weight's coordinates, a level, a rank,
a part count or a bound.  Each row of ``ROWS`` is one such name, an
expression that calls it, and what the row asserts:

* ``None``: the call returns in under ``SECONDS``;
* a string: the call raises its budget error, whose text starts so;
* an int: the call returns a result of at most that size (the expression
  gives the size).  These rows take over a second here, so a loaded machine
  could push them past ``SECONDS``; they are bounded by their output or by a
  step limit, and README's limits paragraph names each with its time.

All rows run in one child process under the 512 MB address-space cap, which
times each row and prints one JSON line per row.
"""

import json

import pytest

import demazure
from capped_run import run_capped

SECONDS = 2.0

ROWS = [
    ("RootSystem", 'len(RootSystem("A", 62).positive_roots)', 2000),
    ("root_system", 'root_system("A", 10**7)',
     "ValueError: A10000000 has 50000005000000 positive roots, more than the budget"),
    ("dominance_algorithm", "len(dominance_algorithm(A1, AffineWeight((10**6,), 1, 0))[1])",
     10**6),
    ("finite_dominance", "finite_dominance(E8, (-10**6,) * 8)", None),
    ("balanced_split", "len(balanced_split(A2, (10**6, 10**6), 10**6))", 10**6),
    ("enumerate_dominant_splits",
     "next(enumerate_dominant_splits(A2, (10**6, 10**6), 10**6))", None),
    ("candidate_splits", "len(next(candidate_splits(A2, (-10**6, 10**6), 10**6)))", 10**6),
    ("find_1_admissible", "find_1_admissible(A1, (10**5,), 3)",
     "RuntimeError: candidate budget exceeded: 100000 candidates in a row"),
    ("minimal_r", "minimal_r(A2, (10**6, 10**6), ((10**6, 0), (0, 10**6)))", None),
    ("profile_bound_scan", "len(profile_bound_scan(A1, 10**5, 1).records)", 10**5 + 1),
    ("demazure_character", "demazure_character(A2, (10**3, 10**3), 1)",
     "RuntimeError: character budget exceeded"),
    ("demazure_operator", "demazure_operator(A1, 1, GradedCharacter.from_weight((10**6,), 1))",
     "RuntimeError: character budget exceeded"),
    ("finite_character", "finite_character(A2, (10**3, 10**3))",
     "RuntimeError: character budget exceeded"),
    ("parabolic_character", "parabolic_character(A2, (10**6, 10**6), (1,))",
     "RuntimeError: character budget exceeded"),
    ("embedding_certificate", "embedding_certificate(A1, (-10**6,), ((-10**6,),), 10**6)",
     "RuntimeError: character budget exceeded"),
    ("g0_branch", "g0_branch(A2, GradedCharacter.from_weight((10**6, 10**6), 1), (1, 2))",
     "RuntimeError: character budget exceeded"),
    ("build_crystal", "build_crystal(A2, (10**3, 10**3))",
     "RuntimeError: vertex budget exceeded"),
    ("tensor_crystal", "tensor_crystal(A3, *[build_crystal(A3, (3, 3, 3))] * 2)",
     "RuntimeError: vertex budget exceeded"),
    ("demazure_p", "demazure_p(A1, (10**7,), 1)", "RuntimeError: value budget exceeded"),
    ("weyl_p", "weyl_p(A1, (-10**7,))", "RuntimeError: value budget exceeded"),
    ("generalized_weyl_p", "generalized_weyl_p(A1, (-10**7,))",
     "RuntimeError: value budget exceeded"),
    ("relations_M", "relations_M(demazure_p(A1, (-10**4,), 1))",
     "RuntimeError: tuple budget exceeded"),
    ("relations_Mprime", "relations_Mprime(demazure_p(A1, (-10**6 + 1,), 1))", None),
    ("relations_Mpp", "relations_Mpp(demazure_p(A1, (-10**5,), 1))",
     "RuntimeError: tuple budget exceeded"),
    ("simplified_demazure_relations",
     "simplified_demazure_relations(A2, (10**6, -10**6), 10**6)", None),
    ("s_sets", "s_sets(60, 60)", "RuntimeError: support budget exceeded"),
    ("expand_x_element", 'expand_x_element("plain", 60, 60)',
     "RuntimeError: support budget exceeded"),
    ("sm_pair", "sm_pair(10**100, 7)", None),
]

# records, and names whose work is bounded by the length of what they are given
# (a split, a word, a path, a graph, a character or a family), not by its values
SIZE_FREE = {
    "AdmissibilityReport", "AffineWeight", "BranchRecord", "CrystalGraph",
    "EmbeddingCertificate", "GradedCharacter", "IsoClass", "PFamily", "Path", "Relation",
    "Root", "affine_pairing", "affine_reflect", "classify_xi", "component_of",
    "convexity_report", "crystal_decomposition", "demazure_subcrystal", "filter_arrows",
    "is_affine_dominant", "is_preadmissible", "is_r_admissible", "mmmr_classify",
    "pull_back", "root_operator_e", "root_operator_f", "root_profile", "sign_sets",
    "to_dot", "weight_graph", "xi_tuple",
}

CHILD = """
import json, sys, time
from demazure import *
A1, A2, A3, E8 = (root_system(*t) for t in (("A", 1), ("A", 2), ("A", 3), ("E", 8)))
for name, expr in json.loads(sys.argv[1]):
    start = time.perf_counter()
    try:
        got = eval(expr)
        got = got if type(got) is int else None
    except Exception as err:  # a MemoryError under the cap fails its row alone
        got = "%s: %s" % (type(err).__name__, err)
    print(json.dumps([name, time.perf_counter() - start, got]), flush=True)
"""


@pytest.fixture(scope="module")
def measured():
    """{name: (seconds, got)} from one capped child: got is the call's error
    text, its result if that is an int, or else None."""
    proc, _ = run_capped("-c", CHILD, json.dumps([row[:2] for row in ROWS]), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {name: (seconds, got) for name, seconds, got in map(json.loads,
                                                                proc.stdout.splitlines())}


def test_every_public_name_is_a_row_or_size_free():
    names = [row[0] for row in ROWS]
    assert len(set(names)) == len(names) and not set(names) & SIZE_FREE
    assert sorted(set(names) | SIZE_FREE) == demazure.__all__


@pytest.mark.parametrize("name, expr, want", ROWS, ids=[row[0] for row in ROWS])
def test_row_is_bounded(measured, name, expr, want):
    seconds, got = measured[name]
    if want is None:
        assert seconds < SECONDS and not isinstance(got, str), (seconds, got)
    elif isinstance(want, str):
        assert isinstance(got, str) and got.startswith(want), got
    else:
        assert type(got) is int and got <= want, got
