"""The antidiagonal rank-two instance and its signed logarithms.

For the Frobenius matrix C = [[0, -1], [1, 0]] (trace zero, unit
determinant) the logarithmic approximants collapse to a checkerboard:
each M_n is antidiagonal, and the two nonzero entries are partial
products of the plus/minus logarithm series

    log_plus(X)  = (1/p) prod_{k >= 1} Phi_{p^{2k}}(1 + X) / p,
    log_minus(X) = (1/p) prod_{k >= 1} Phi_{p^{2k-1}}(1 + X) / p,

truncated to the factors of level at most n.  Concretely, with
E_n = prod of the even-level cyclotomics up to n, O_n the odd-level
ones, q = floor(n / 2) and t = ceil(n / 2):

    M_n = [[0,              -E_n / p^(q + 1)],
           [O_n / p^t,       0              ]]

and the partial products absorb the powers of p cleanly:

    M_n[0][1] = -log_plus_partial(q)        (q even-level factors)
    M_n[1][0] = p * log_minus_partial(t)    (t odd-level factors)

The sign bookkeeping for the induced coordinate functionals: the first
coordinate of a factored preimage pairs with the minus-signed map and
the second with the negative of the plus-signed one.

All of it is exact input, so every check is decided exactly: the
approximant is read off the instance's tower as an integer form, the
closed forms are built as one from the integer cyclotomic
coefficients, and the two are compared over a common denominator.  The
XSeries returned by log_plus_partial, log_minus_partial and
closed_form_matrix are views of those exact polynomials, each
coefficient rounded once to rel_prec digits by PadicContext.over.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .linalg import form_sub
from .logmatrix import FrobeniusData, _at_zero_witness
from .padic import PadicContext
from .series import XSeries, cyclo_product_ints, form_views

SIGN_NOTE = (
    "first factored coordinate pairs with the minus map, second with "
    "the negative of the plus map"
)


def pollack_instance(ctx: PadicContext) -> FrobeniusData:
    """The trace-zero rank-two instance C = [[0, -1], [1, 0]] with a
    one-dimensional filtration step."""
    return FrobeniusData.create(ctx, [[0, -1], [1, 0]], d0=1, r=1)


def log_plus_partial(ctx: PadicContext, n_factors: int,
                     trunc=None) -> XSeries:
    """Partial product of the plus logarithm: (1/p) times the product
    of Phi_{p^{2k}}(1 + X) / p for k = 1 .. n_factors."""
    return _log_partial(ctx, n_factors, 2, trunc)


def log_minus_partial(ctx: PadicContext, n_factors: int,
                      trunc=None) -> XSeries:
    """Partial product of the minus logarithm: (1/p) times the product
    of Phi_{p^{2k-1}}(1 + X) / p for k = 1 .. n_factors."""
    return _log_partial(ctx, n_factors, 1, trunc)


def _log_partial(ctx, n_factors, first, trunc):
    if n_factors < 0:
        raise InputError("n_factors must be nonnegative")
    # (1/p) prod Phi_{p^k}(1 + X) / p over n_factors levels k
    acc = cyclo_product_ints(ctx.p, range(first, first + 2 * n_factors, 2))
    den = ctx.p ** (1 + n_factors)
    return XSeries(ctx, ctx.over(den, acc), trunc)


def _closed_form(p: int, n: int):
    """[[0, -E_n / p^(q+1)], [O_n / p^t, 0]], written as minus the plus
    partial product (even levels up to n) and p times the minus one
    (odd levels up to n), as an integer form."""
    if n < 1:
        raise InputError("n must be at least 1")
    q, t = n // 2, (n + 1) // 2
    even = cyclo_product_ints(p, range(2, n + 1, 2))
    odd = cyclo_product_ints(p, range(1, n + 1, 2))
    return [[[], [-c for c in even]],
            [[c * p ** (q + 1 - t) for c in odd], []]], p ** (q + 1)


def closed_form_matrix(fd: FrobeniusData, n: int):
    """The predicted value of M_n for the antidiagonal instance, as a
    2 x 2 matrix of series, computed without the recursion."""
    _require_pollack(fd)
    return form_views(fd.ctx, _closed_form(fd.ctx.p, n))


def _require_pollack(fd: FrobeniusData) -> None:
    want = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    if fd.C != want or fd.d0 != 1 or fd.r != 1:
        raise InputError(
            "this check applies to the antidiagonal instance "
            "[[0, -1], [1, 0]] with d0 = 1, r = 1")


def verify_antidiagonal(fd: FrobeniusData, n: int) -> dict:
    """Check M_n against the closed antidiagonal form, exactly.

    Confirms: the diagonal vanishes, both off-diagonal entries match
    the even/odd cyclotomic products, the same entries are the partial
    signed logarithms (up to the stated scalings), and the value at
    zero is C_phi = [[0, -1/p], [1, 0]].  A mismatching entry is
    reported as ("nonzero", first differing degree).  Returns a report
    dict with an overall ``ok`` flag.
    """
    _require_pollack(fd)
    M = fd.tower.M(n)
    report = {"n": n, "note": SIGN_NOTE}
    report["diagonal_zero"] = not M[0][0][0] and not M[0][1][1]

    witnesses = {}
    diff, _ = form_sub(M, _closed_form(fd.ctx.p, n))
    for i in (0, 1):
        for j in (0, 1):
            if diff[i][j]:
                witnesses[f"{i},{j}"] = (
                    "nonzero", next(k for k, c in enumerate(diff[i][j]) if c))
    report["entries_match_closed_form"] = not witnesses
    if witnesses:
        report["mismatches"] = witnesses

    # the predicted entries are the signed partial logarithms themselves
    report["upper_is_minus_log_plus_partial"] = "0,1" not in witnesses
    report["lower_is_p_log_minus_partial"] = "1,0" not in witnesses
    report["value_at_zero_ok"] = _at_zero_witness(fd, M) is None

    report["ok"] = (
        report["diagonal_zero"]
        and report["entries_match_closed_form"]
        and report["upper_is_minus_log_plus_partial"]
        and report["lower_is_p_log_minus_partial"]
        and report["value_at_zero_ok"]
    )
    return report
