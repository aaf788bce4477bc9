"""Exact combinatorics of graded Demazure-type modules.

Submodules cover root data, affine weight arithmetic, relation-set
presentations, admissible weight splittings, graded characters and
path crystals, plus a small command line front end.
"""

from .admissibility import (AdmissibilityReport, balanced_split,
                            candidate_splits, enumerate_dominant_splits,
                            find_1_admissible, is_preadmissible,
                            is_r_admissible, minimal_r, profile_bound_scan,
                            pull_back, root_profile)
from .characters import (BranchRecord, EmbeddingCertificate, GradedCharacter,
                         demazure_character, demazure_operator,
                         embedding_certificate, finite_character, g0_branch,
                         parabolic_character)
from .crystal import (CrystalGraph, Path, build_crystal, component_of,
                      crystal_decomposition, demazure_subcrystal,
                      filter_arrows, root_operator_e, root_operator_f,
                      tensor_crystal, to_dot, weight_graph)
from .relations import (IsoClass, PFamily, Relation, classify_xi,
                        convexity_report, demazure_p, expand_x_element,
                        generalized_weyl_p, mmmr_classify, relations_M,
                        relations_Mpp, relations_Mprime, s_sets,
                        simplified_demazure_relations, sm_pair, weyl_p,
                        xi_tuple)
from .rootdata import Root, RootSystem, root_system
from .weights import (AffineWeight, affine_pairing, affine_reflect,
                      dominance_algorithm, finite_dominance,
                      is_affine_dominant, sign_sets)

__all__ = [
    "AdmissibilityReport", "AffineWeight", "BranchRecord", "CrystalGraph",
    "EmbeddingCertificate", "GradedCharacter", "IsoClass", "PFamily", "Path",
    "Relation", "Root", "RootSystem", "affine_pairing", "affine_reflect",
    "balanced_split", "build_crystal", "candidate_splits", "classify_xi",
    "component_of",
    "convexity_report", "crystal_decomposition", "demazure_character",
    "demazure_operator", "demazure_p", "demazure_subcrystal",
    "dominance_algorithm", "embedding_certificate",
    "enumerate_dominant_splits", "expand_x_element", "filter_arrows",
    "find_1_admissible", "finite_character", "finite_dominance", "g0_branch",
    "generalized_weyl_p", "is_affine_dominant", "is_preadmissible",
    "is_r_admissible", "minimal_r", "mmmr_classify", "parabolic_character",
    "profile_bound_scan", "pull_back", "relations_M", "relations_Mpp",
    "relations_Mprime", "root_operator_e", "root_operator_f", "root_profile",
    "root_system", "s_sets", "sign_sets", "simplified_demazure_relations",
    "sm_pair", "tensor_crystal", "to_dot", "weight_graph", "weyl_p",
    "xi_tuple",
]
__version__ = "0.1.0"
