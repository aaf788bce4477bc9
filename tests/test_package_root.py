"""The package root imports a submodule only when one of its names is first
read (PEP 562), and names the same public objects as the submodules."""

import importlib

import pytest

import demazure
from capped_run import run_capped

# the 59 names of ``__all__`` before the root became lazy, in that order
PUBLIC = [
    "AdmissibilityReport", "AffineWeight", "BranchRecord", "CrystalGraph",
    "EmbeddingCertificate", "GradedCharacter", "IsoClass", "PFamily", "Path",
    "Relation", "Root", "RootSystem", "affine_pairing", "affine_reflect",
    "balanced_split", "build_crystal", "candidate_splits", "classify_xi",
    "component_of", "convexity_report", "crystal_decomposition", "demazure_character",
    "demazure_operator", "demazure_p", "demazure_subcrystal", "dominance_algorithm",
    "embedding_certificate", "enumerate_dominant_splits", "expand_x_element",
    "filter_arrows", "find_1_admissible", "finite_character", "finite_dominance",
    "g0_branch", "generalized_weyl_p", "is_affine_dominant", "is_preadmissible",
    "is_r_admissible", "minimal_r", "mmmr_classify", "parabolic_character",
    "profile_bound_scan", "pull_back", "relations_M", "relations_Mpp",
    "relations_Mprime", "root_operator_e", "root_operator_f", "root_profile",
    "root_system", "s_sets", "sign_sets", "simplified_demazure_relations",
    "sm_pair", "tensor_crystal", "to_dot", "weight_graph", "weyl_p", "xi_tuple",
]
SUBMODULES = ("admissibility", "characters", "crystal", "relations", "rootdata", "weights")


def test_all_is_the_recorded_names_in_order():
    assert len(PUBLIC) == 59
    assert demazure.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_submodules_object(name):
    star = {}
    exec("from demazure import *", star)
    value = getattr(demazure, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.removeprefix("demazure.") in SUBMODULES
    assert getattr(home, name) is value and star[name] is value
    assert name in dir(demazure)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        demazure.no_such_name
    with pytest.raises(ImportError):
        exec("from demazure import no_such_name", {})


SCRIPT = """
import sys
import demazure
print(sorted(m for m in sys.modules if m.startswith("demazure.")))
print(sorted(m for m in dir(demazure) if not m.startswith("_")) == demazure.__all__)
print(demazure.crystal.__name__, demazure.rootdata.root_system.__module__)
print(sorted(m for m in sys.modules if m.startswith("demazure.")))
"""


def test_import_loads_no_submodule_until_a_name_is_read():
    proc = run_capped("-c", SCRIPT, timeout=60)[0]
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "True", "demazure.crystal demazure.rootdata",
        "['demazure.crystal', 'demazure.rootdata']"]


def test_cli_import_loads_no_acceptance():
    """Only ``reproduce`` reads the acceptance criteria, so only it imports them."""
    script = ("import sys, demazure.cli\n"
              "print('demazure.acceptance' in sys.modules)\n"
              "demazure.cli.main(['rootdata', '--type', 'A', '--rank', '1'])\n"
              "print('demazure.acceptance' in sys.modules)\n")
    proc = run_capped("-c", script, timeout=60)[0]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "False"
