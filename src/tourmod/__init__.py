"""tourmod: modular structure of tournaments.

Tournaments, their modules and co-modules, the co-modular and
decomposability indices, certified minimum arc-inversion sets, and
brute-force oracles that cross-check all of it.
"""

from .core import (
    Arc,
    Tournament,
    VertexSet,
    Xorshift64Star,
    canonical_form,
    dual,
    enumerate_tournaments,
    format_tourn_v1,
    invert,
    make_tournament,
    pair_count,
    pair_index,
    parse_tourn_v1,
    random_tournament,
    relabel,
    subtournament,
    substitute,
    transitive,
)
from .modular import (
    CoModule,
    TransitiveComponentPartition,
    component_comodule,
    is_comodule,
    is_indecomposable,
    is_module,
    maximal_nontrivial_modules,
    minimal_comodules,
    minimal_nontrivial_modules,
    nontrivial_modules,
    overlap_set,
    smallest_module_containing,
    tilde,
    transitive_components,
)
from .comodular import (
    CoModularDecomposition,
    ConflictGraph,
    all_delta_decompositions,
    comodular_index,
    conflict_graph,
    delta_decomposition,
    hereditary_witness,
    structured_delta_decomposition,
)
from .inversion import (
    GuidedChoiceWarning,
    InversionCertificate,
    VerificationResult,
    certificate_from_json,
    certificate_to_json,
    decomposability_index,
    erdos_transitive_extension,
    feasible_single_arcs,
    reduction_arc_high,
    reduction_arc_three,
    reduction_arc_two,
    synthesize_certificate,
    verify_certificate,
)
from .oracle import (
    SweepReport,
    brute_Delta,
    brute_delta,
    brute_modules,
    report_to_json,
    sweep_verify,
)

__version__ = "0.1.0"
