"""Exact-arithmetic computations with partial skew groupoid rings.

Builders and analyzers for groupoid rings, generalized matrix rings,
partial group algebras and Leavitt path algebras of finite graphs, with
validation of partial-action axioms, globalization, and Maschke-type
semisimplicity transfer, all over Q or a prime field.
"""

from .exactlin import Field, Matrix, Subspace, rref, solve, kernel
from .groupoid import (
    FiniteGroupoid,
    HomSet,
    validate,
    from_group,
    cyclic_group,
    pair_groupoid,
    disjoint_union,
    connected_components,
    isotropy,
    hom_set,
    is_finite_mor_criterion,
)
from .algebra import StructureAlgebra, BlockDecomposition, cayley_dickson_chain
from .paction import (
    PartialAction,
    Globalization,
    validate_action,
    is_unital,
    is_global,
    support,
    restrict_to_g_sharp,
    is_finite_type,
    finite_type_witnesses,
    trace_map,
    fixed_ring,
    is_invariant_subring,
    globalize,
    globalization_verify,
)
from .skewring import (
    build_skew_groupoid_ring,
    build_groupoid_ring,
    groupoid_ring_action,
    matrix_units_isomorphism,
    exel_semigroup,
    build_partial_group_algebra,
    quotient_by_ideal,
    GradedModule,
    maschke_check,
    maschke_split,
    analyze_algebra,
)
from .leavitt import (
    DirectedGraph,
    Path,
    Word,
    XSpace,
    GrSkewModel,
    graph_analysis,
    hereditary_saturated_subsets,
    theta_map,
    build_gr_skew_ring,
    lpa_path_pair_oracle,
    phi_isomorphism_check,
    lpa_characterization,
)

__all__ = [
    "Field", "Matrix", "Subspace", "rref", "solve", "kernel",
    "FiniteGroupoid", "HomSet", "validate", "from_group", "cyclic_group", "pair_groupoid",
    "disjoint_union", "connected_components", "isotropy", "hom_set",
    "is_finite_mor_criterion",
    "StructureAlgebra", "BlockDecomposition", "cayley_dickson_chain",
    "PartialAction", "Globalization", "validate_action", "is_unital", "is_global", "support",
    "restrict_to_g_sharp", "is_finite_type", "finite_type_witnesses", "trace_map",
    "fixed_ring", "is_invariant_subring", "globalize", "globalization_verify",
    "build_skew_groupoid_ring", "build_groupoid_ring", "groupoid_ring_action",
    "matrix_units_isomorphism", "exel_semigroup", "build_partial_group_algebra",
    "quotient_by_ideal", "GradedModule", "maschke_check", "maschke_split", "analyze_algebra",
    "DirectedGraph", "Path", "Word", "XSpace", "GrSkewModel", "graph_analysis",
    "hereditary_saturated_subsets", "theta_map", "build_gr_skew_ring", "lpa_path_pair_oracle",
    "phi_isomorphism_check", "lpa_characterization",
]
