"""Exactly solvable brickwork circuits from finite-dimensional algebra data."""

from .algebra import (
    AlgebraData,
    AlgebraElement,
    AlgebraSpecError,
    AxiomError,
    CanonicalElementPower,
    ExponentCapError,
    antipode_apply,
    canonical_power,
    check_axioms,
    comultiply,
    counit,
    derive_tier,
    dual_algebra,
    exponent,
    load_algebra,
    multiply,
    save_algebra,
    source_target_maps,
    star_apply,
)
from .representation import (
    Corepresentation,
    RepPair,
    Representation,
    check_corepresentation,
    check_representation,
    corep_to_dual_rep,
    regular_corepresentation,
    regular_representation,
    rep_to_dual_corep,
    restrict_gate,
    tensor_power_corep,
    tensor_power_rep,
)
from .tensors import (
    ProjectorPair,
    SolvableTensorSet,
    build_projectors,
    build_tensors,
    check_unitarity,
    export_tensors,
    gate_tensor,
    import_tensors,
    verify_pentagon,
)

__version__ = "0.1.0"
# the oracle's default ring size cap, here so the CLI reads it without the oracle
DEFAULT_AMPLITUDE_CAP = 2 * 10 ** 4
