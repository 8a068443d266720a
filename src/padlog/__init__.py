"""Exact p-adic logarithmic matrix approximants and their factorizations.

The package computes, over Z_p[X] with certified precision tracking:

  * finite-level approximants M_n attached to a Frobenius matrix whose
    slopes sit in the half-open window (-1, 0],
  * stage-by-stage factorization of forward images through the
    cyclotomic divisibilities, with an integral final shift,
  * admissible and strongly admissible bases for a filtered lattice,
    built from constructive escape/merge/extend lemmas,
  * the antidiagonal rank-two specialization with its signed
    logarithms, and
  * Wach-style polynomial towers with their Galois twists.

All number crunching is exact integer and rational arithmetic: inputs
are lifted once, computed on exactly, and rounded once.  p-adic scalars
(PadicScalar) are floating representations (p^v * unit) carrying
explicit precision and no arithmetic, and XSeries and LambdaNElement
are views built from them, so every zero test is a certification, never
a guess.
"""

from .errors import (
    DegenerateInput,
    DenominatorBudgetExceeded,
    DivisionByZero,
    HypothesisFailed,
    Indeterminate,
    InputError,
    IntegralityViolation,
    NotFiltrationAdapted,
    NotInImage,
    NotIntegral,
    PadlogError,
    PrecisionExhausted,
    PrecisionLoss,
    SearchExhausted,
    SingularOperator,
)
from .padic import INF, PadicContext, PadicScalar
from .series import (
    LambdaNElement,
    XSeries,
    divide_exact,
    omega,
    poly_divmod,
    reduce_mod_omega,
)
from .logmatrix import (
    FrobeniusData,
    HypothesisReport,
    ImageConditionResult,
    LogMatrixApprox,
    build_Mn,
    check_evaluation,
    check_hypotheses,
    conjugate_basis_check,
    conjugated_instance,
    det_Mn,
    det_closed_form,
    image_condition_at_zero,
    verify_stabilization,
)
from .coleman import (
    ColemanVector,
    RegulatorVector,
    factor_level,
    forward,
    integral_shift,
    kernel_basis,
    roundtrip_check,
    tower_projection_check,
)
from .basis import (
    AdmissibilityCertificate,
    CandidateBasis,
    LatticeSetup,
    StrongAdmissibilityCertificate,
    avoid_slopes,
    construct_admissible,
    construct_strongly_admissible,
    escape_union,
    generic_position_extend,
    is_admissible,
    is_strongly_admissible,
    merge_complement,
)
from .pollack import (
    closed_form_matrix,
    log_minus_partial,
    log_plus_partial,
    pollack_instance,
    verify_antidiagonal,
)
from .wach import (
    GammaElement,
    WachMatrixTower,
    build_G_gamma,
    build_M_prime,
    build_Pn,
    verify_cocycle,
    verify_commutation,
    verify_p1_twist,
    verify_tower_congruence,
    wach_context,
)
from .reports import Check, Report, Status

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityCertificate",
    "CandidateBasis",
    "Check",
    "ColemanVector",
    "DegenerateInput",
    "DenominatorBudgetExceeded",
    "DivisionByZero",
    "FrobeniusData",
    "GammaElement",
    "HypothesisFailed",
    "HypothesisReport",
    "INF",
    "ImageConditionResult",
    "Indeterminate",
    "InputError",
    "IntegralityViolation",
    "LambdaNElement",
    "LatticeSetup",
    "LogMatrixApprox",
    "NotFiltrationAdapted",
    "NotInImage",
    "NotIntegral",
    "PadicContext",
    "PadicScalar",
    "PadlogError",
    "PrecisionExhausted",
    "PrecisionLoss",
    "RegulatorVector",
    "Report",
    "SearchExhausted",
    "SingularOperator",
    "Status",
    "StrongAdmissibilityCertificate",
    "WachMatrixTower",
    "XSeries",
    "avoid_slopes",
    "build_G_gamma",
    "build_M_prime",
    "build_Mn",
    "build_Pn",
    "check_evaluation",
    "check_hypotheses",
    "closed_form_matrix",
    "conjugate_basis_check",
    "conjugated_instance",
    "construct_admissible",
    "construct_strongly_admissible",
    "det_Mn",
    "det_closed_form",
    "divide_exact",
    "escape_union",
    "factor_level",
    "forward",
    "generic_position_extend",
    "image_condition_at_zero",
    "integral_shift",
    "is_admissible",
    "is_strongly_admissible",
    "kernel_basis",
    "log_minus_partial",
    "log_plus_partial",
    "merge_complement",
    "omega",
    "pollack_instance",
    "poly_divmod",
    "reduce_mod_omega",
    "roundtrip_check",
    "tower_projection_check",
    "verify_antidiagonal",
    "verify_cocycle",
    "verify_commutation",
    "verify_p1_twist",
    "verify_stabilization",
    "verify_tower_congruence",
    "wach_context",
]
