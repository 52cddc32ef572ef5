"""Moduli of stable n-marked genus-0 tropical curves as a combinatorial
cone complex, with exhaustive verification of its automorphism group."""

__version__ = "0.1.0"

from .trees import (
    LeggedTree,
    Split,
    CanonicalForm,
    Contraction,
    contract,
    tree_from_splits,
    splits_compatible,
    are_isomorphic,
    apply_marking_permutation,
    automorphisms_of_tree,
    single_vertex_tree,
    two_vertex_tree,
)
from .enumeration import (
    StratumCatalog,
    EnvelopeError,
    enumerate_strata,
    expansions,
    count_maximal,
    count_f_vector,
    all_splits,
)
from .cones import ConeComplex, build_complex, star_count
from .groups import PermutationGroup
from .counting import (
    VertexProfile,
    expansion_count_formula,
    per_vertex_partition_count,
    lemma_power_check,
    lemma_power_sweep,
)
from .automorphisms import (
    ComplexAutomorphism,
    aut_via_compat_graph,
    aut_via_poset,
    sn_action,
    sn_kernel,
    reconstruct_sigma,
    verify_main_theorem,
    verify_sn_surjectivity,
)
from .genus2 import (
    WeightedGraph,
    QuotientCell,
    build_m2_complex,
    aut_m2,
    bridge_loop_swap_violation,
)

__all__ = [
    "LeggedTree",
    "Split",
    "CanonicalForm",
    "Contraction",
    "contract",
    "tree_from_splits",
    "splits_compatible",
    "are_isomorphic",
    "apply_marking_permutation",
    "automorphisms_of_tree",
    "single_vertex_tree",
    "two_vertex_tree",
    "StratumCatalog",
    "EnvelopeError",
    "enumerate_strata",
    "expansions",
    "count_maximal",
    "count_f_vector",
    "all_splits",
    "ConeComplex",
    "build_complex",
    "star_count",
    "PermutationGroup",
    "VertexProfile",
    "expansion_count_formula",
    "per_vertex_partition_count",
    "lemma_power_check",
    "lemma_power_sweep",
    "ComplexAutomorphism",
    "aut_via_compat_graph",
    "aut_via_poset",
    "sn_action",
    "sn_kernel",
    "reconstruct_sigma",
    "verify_main_theorem",
    "verify_sn_surjectivity",
    "WeightedGraph",
    "QuotientCell",
    "build_m2_complex",
    "aut_m2",
    "bridge_loop_swap_violation",
]
