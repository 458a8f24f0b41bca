"""Trade-off capacity regions for public/private classical communication
and secret key over small quantum channels."""

from .channels import (
    KrausChannel,
    channel_document,
    dag,
    is_antidegradable_label,
    load_channel,
    make_cloning,
    make_dephasing,
    make_erasure,
    make_identity,
    tensor_channels,
    tensor_product,
)
from .entropy import binary_entropy, entropy_from_eigenvalues
from .regions import (
    BoundTriple,
    BoundaryFamily,
    MembershipResult,
    ParetoPoint,
    RateTriple,
    additivity_gap,
    cloning_bounds,
    cloning_family,
    cloning_spectra,
    corner_from_cq,
    dephasing_bounds,
    dephasing_family,
    dephasing_gamma,
    eb_bounds,
    eb_family,
    erasure_bounds,
    erasure_family,
    membership,
    pareto_point,
    sample_boundary,
    unit_matrix_inverse_check,
)
from .tradeoff import (
    CqEnsemble,
    CqEvaluation,
    RegionQuantities,
    SearchConfig,
    TradeoffWeights,
    antidegradable_value,
    cq_tradeoff_f,
    evaluate_ensemble,
    holevo_capacity,
    maximize_p,
    objective_p,
    pauli_symmetrize,
    private_information,
    public_private_tradeoff,
    quantum_dynamic_d,
    region_quantities,
    tensor_ensembles,
)

__version__ = "0.1.0"
