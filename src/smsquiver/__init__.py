"""Exact combinatorics of simple-minded systems over RFS algebras.

Two independent backends: configurations of stable translation quivers
(mesh-category homs) and the stable module category of self-injective
Nakayama algebras, with mutation and mutation-quiver machinery on top.
"""

from .brauer import count_brauer_trees, count_marked_extremal_trees
from .configs import (
    Orbit,
    enumerate_configurations,
    is_configuration,
    orbit_decomposition,
    transitivity_list_check,
)
from .dynkin import (
    DynkinGraph,
    GraphAutomorphism,
    InvalidTypeError,
    RfsInvariantError,
    RfsType,
    admissible_group,
    coxeter_number,
    is_symmetric_type,
    num_simples,
    parse_type,
    validate_rfs_type,
)
from .meshcat import (
    HomTable,
    SupportBandError,
    fast_table,
    hom_dim_fast,
    hom_dim_oracle,
    oracle_table,
    quotient_hom_dim,
    quotient_hom_table,
)
from .mutation import (
    MutationQuiver,
    build_mutation_quiver,
    nu_orbit_partition,
    orbit_label,
)
from .nakayama import (
    BoundExceededError,
    ConeDecompositionError,
    GenerationUndecided,
    NakayamaAlgebra,
    NotAnSmsError,
    NuStabilityError,
    SerialModule,
    parse_algebra,
)
from .ztquiver import (
    CoveringError,
    MeshSymmetryError,
    StableTranslationQuiver,
    Window,
    WindowTooSmallError,
    automorphisms,
    quotient,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError",
    "ConeDecompositionError",
    "CoveringError",
    "DynkinGraph",
    "GenerationUndecided",
    "GraphAutomorphism",
    "HomTable",
    "InvalidTypeError",
    "MeshSymmetryError",
    "MutationQuiver",
    "NakayamaAlgebra",
    "NotAnSmsError",
    "NuStabilityError",
    "Orbit",
    "RfsInvariantError",
    "RfsType",
    "SerialModule",
    "StableTranslationQuiver",
    "SupportBandError",
    "Window",
    "WindowTooSmallError",
    "admissible_group",
    "automorphisms",
    "build_mutation_quiver",
    "count_brauer_trees",
    "count_marked_extremal_trees",
    "coxeter_number",
    "enumerate_configurations",
    "fast_table",
    "hom_dim_fast",
    "hom_dim_oracle",
    "is_configuration",
    "is_symmetric_type",
    "nu_orbit_partition",
    "num_simples",
    "oracle_table",
    "orbit_decomposition",
    "orbit_label",
    "parse_algebra",
    "parse_type",
    "quotient",
    "quotient_hom_dim",
    "quotient_hom_table",
    "transitivity_list_check",
    "validate_rfs_type",
]
