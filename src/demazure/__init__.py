"""Exact combinatorics of graded Demazure-type modules.

Submodules cover root data, affine weight arithmetic, relation-set
presentations, admissible weight splittings, graded characters and
path crystals, plus a small command line front end.  Each public name is
imported from its submodule when it is first read (PEP 562).
"""

_EXPORTS = {
    "admissibility": "AdmissibilityReport balanced_split candidate_splits "
                     "enumerate_dominant_splits find_1_admissible is_preadmissible "
                     "is_r_admissible minimal_r profile_bound_scan pull_back root_profile",
    "characters": "BranchRecord EmbeddingCertificate GradedCharacter demazure_character "
                  "demazure_operator embedding_certificate finite_character g0_branch "
                  "parabolic_character",
    "crystal": "CrystalGraph Path build_crystal component_of crystal_decomposition "
               "demazure_subcrystal filter_arrows root_operator_e root_operator_f "
               "tensor_crystal to_dot weight_graph",
    "relations": "IsoClass PFamily Relation classify_xi convexity_report demazure_p "
                 "expand_x_element generalized_weyl_p mmmr_classify relations_M "
                 "relations_Mpp relations_Mprime s_sets simplified_demazure_relations "
                 "sm_pair weyl_p xi_tuple",
    "rootdata": "Root RootSystem root_system",
    "weights": "AffineWeight affine_pairing affine_reflect dominance_algorithm "
               "finite_dominance is_affine_dominant sign_sets",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A submodule, or a public name read from its submodule and kept here."""
    from importlib import import_module
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
