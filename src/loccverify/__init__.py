"""Verification toolkit for channels implementable by LOCC only in the limit.

The package follows one worked construction from end to end: a protocol
tree of biased local measurements, the channel it implements when stopped
after finitely many rounds, the limiting channel with its continuum of
outcomes, and the convex geometry (zonoids of Kraus products) that
certifies which limits finite protocols can reach.
"""

from .linalg import (
    PartyDims,
    integrate_sqrt_smooth,
    kron,
    partial_trace,
    product_defect,
    sqrt_psd,
    trace_norm,
)
from .channels import (
    ChoiOperator,
    Instrument,
    KrausSet,
    channel_from_leaf_povm,
    choi,
    choi_distance,
    isometric_relation,
    kraus_from_operators,
    kraus_rank,
    minimal_kraus,
    qc_embed,
)
from .zonoid import (
    CoefficientMatrix,
    MembershipReport,
    NotInSpanError,
    ZonoidSpec,
    endpoint_cmatrix,
    hausdorff_estimate,
    membership,
    separation_gap,
    support_function,
    zonoid_spec_for_channel,
    zonoid_spec_for_instrument,
)
from .protocols import (
    NodeView,
    PiecewisePath,
    ProtocolParams,
    ProtocolTree,
    TreeReport,
    build_protocol_pq,
    main_branch_diagonals,
    main_branch_path,
    path_distance_bound,
    protocol_leaf_diagonals,
    verify_tree,
)
from .conditions import (
    CheckedPath,
    EndpointFamily,
    PathConditionReport,
    verify_theorem_conditions,
)
from .twoqubit import (
    BlockedIsometryCheck,
    CoarseGrainCheck,
    IntegralCheck,
    TwoQubitExample,
    WStateReport,
    blocked_isometry_check,
    blocked_limiting_family,
    channel_zonoid,
    coarse_grain_check,
    concurrence,
    continuous_isometry_check,
    instrument_zonoid,
    limiting_choi_2q,
    limiting_family,
    prelimit_channel,
    two_qubit_instrument,
    wstate_analysis,
)
from .pqubit import (
    LimitCheckReport,
    moment_identity_check,
    multiplier_distance,
    multiplier_kraus,
    pqubit_apply,
    pqubit_choi_formula,
    pqubit_coefficients,
    pqubit_limit_check,
    prelimit_coefficients,
    quadrature_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "PartyDims", "integrate_sqrt_smooth", "kron", "partial_trace",
    "product_defect", "sqrt_psd", "trace_norm",
    "ChoiOperator", "Instrument", "KrausSet",
    "channel_from_leaf_povm", "choi", "choi_distance",
    "isometric_relation", "kraus_from_operators", "kraus_rank",
    "minimal_kraus", "qc_embed",
    "CoefficientMatrix", "MembershipReport", "NotInSpanError", "ZonoidSpec",
    "endpoint_cmatrix", "hausdorff_estimate", "membership",
    "separation_gap", "support_function",
    "zonoid_spec_for_channel", "zonoid_spec_for_instrument",
    "CheckedPath", "EndpointFamily", "NodeView", "PathConditionReport",
    "PiecewisePath", "ProtocolParams", "ProtocolTree", "TreeReport",
    "build_protocol_pq", "main_branch_diagonals",
    "main_branch_path", "path_distance_bound", "protocol_leaf_diagonals",
    "verify_theorem_conditions", "verify_tree",
    "BlockedIsometryCheck", "CoarseGrainCheck", "IntegralCheck",
    "TwoQubitExample", "WStateReport", "blocked_isometry_check",
    "blocked_limiting_family", "channel_zonoid", "coarse_grain_check",
    "concurrence", "continuous_isometry_check", "instrument_zonoid",
    "limiting_choi_2q", "limiting_family", "prelimit_channel",
    "two_qubit_instrument", "wstate_analysis",
    "LimitCheckReport", "moment_identity_check",
    "multiplier_distance", "multiplier_kraus", "pqubit_apply",
    "pqubit_choi_formula", "pqubit_coefficients", "pqubit_limit_check",
    "prelimit_coefficients", "quadrature_coefficients",
]
