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

`import padlog` loads only `padlog.errors`.  Every other module is
loaded on first use: reading a public name (`padlog.build_Mn`, or
`from padlog import build_Mn`) loads the module that defines it, and
`padlog.<module>` loads that module (PEP 562).  A process pays only for
the modules it runs, which is most of the start-up time of a `padlog`
command.
"""

import sys
from importlib import import_module

from . import errors  # noqa: F401  (the exception classes load eagerly)

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOME = {
    "DegenerateInput": "errors",
    "DenominatorBudgetExceeded": "errors",
    "DivisionByZero": "errors",
    "HypothesisFailed": "errors",
    "Indeterminate": "errors",
    "InputError": "errors",
    "IntegralityViolation": "errors",
    "NotFiltrationAdapted": "errors",
    "NotInImage": "errors",
    "NotIntegral": "errors",
    "PadlogError": "errors",
    "PrecisionExhausted": "errors",
    "PrecisionLoss": "errors",
    "SearchExhausted": "errors",
    "SingularOperator": "errors",
    "INF": "padic",
    "PadicContext": "padic",
    "PadicScalar": "padic",
    "LambdaNElement": "series",
    "XSeries": "series",
    "divide_exact": "series",
    "omega": "series",
    "poly_divmod": "series",
    "reduce_mod_omega": "series",
    "FrobeniusData": "logmatrix",
    "HypothesisReport": "logmatrix",
    "ImageConditionResult": "logmatrix",
    "LogMatrixApprox": "logmatrix",
    "build_Mn": "logmatrix",
    "check_evaluation": "logmatrix",
    "check_hypotheses": "logmatrix",
    "conjugate_basis_check": "logmatrix",
    "conjugated_instance": "logmatrix",
    "det_Mn": "logmatrix",
    "det_closed_form": "logmatrix",
    "image_condition_at_zero": "logmatrix",
    "verify_stabilization": "logmatrix",
    "ColemanVector": "coleman",
    "RegulatorVector": "coleman",
    "factor_level": "coleman",
    "forward": "coleman",
    "integral_shift": "coleman",
    "kernel_basis": "coleman",
    "roundtrip_check": "coleman",
    "tower_projection_check": "coleman",
    "AdmissibilityCertificate": "basis",
    "CandidateBasis": "basis",
    "LatticeSetup": "basis",
    "StrongAdmissibilityCertificate": "basis",
    "avoid_slopes": "basis",
    "construct_admissible": "basis",
    "construct_strongly_admissible": "basis",
    "escape_union": "basis",
    "generic_position_extend": "basis",
    "is_admissible": "basis",
    "is_strongly_admissible": "basis",
    "merge_complement": "basis",
    "closed_form_matrix": "pollack",
    "log_minus_partial": "pollack",
    "log_plus_partial": "pollack",
    "pollack_instance": "pollack",
    "verify_antidiagonal": "pollack",
    "GammaElement": "wach",
    "WachMatrixTower": "wach",
    "build_G_gamma": "wach",
    "build_M_prime": "wach",
    "build_Pn": "wach",
    "verify_cocycle": "wach",
    "verify_commutation": "wach",
    "verify_p1_twist": "wach",
    "verify_tower_congruence": "wach",
    "wach_context": "wach",
    "Check": "reports",
    "Report": "reports",
    "Status": "reports",
}

_MODULES = frozenset({*_HOME.values(), "cli", "linalg", "serialize"})

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name or module of the package, loaded on first use.

    Only the module is kept, by the import system: the name is read off
    its home module on every access, so a name rebound there (by a test,
    or by a tracer that wraps functions) is the one returned here."""
    home = _HOME.get(name)
    if home is None:
        if name not in _MODULES:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
        return import_module(f"{__name__}.{name}")
    qualified = f"{__name__}.{home}"
    module = sys.modules.get(qualified) or import_module(qualified)
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
