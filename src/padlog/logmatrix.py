"""Logarithmic matrix approximants.

From an admitted Frobenius matrix C (p-integral, unit determinant) the
tower of approximants is built as

    C_phi = C * diag(I, (1/p) I)
    C_k   = diag(I, Phi_{p^k}(1+X) I) * C^{-1}
    P_k   = C_k * ... * C_1            (P_0 = I)
    M_n   = C_phi^(n+1) * P_n

with the unscaled block of size r*d0 and the scaled block of size
r*(d-d0).  The admission gate checks the Newton-polygon slope window
(-1, 0], that 1 is not an eigenvalue, and that det(C) is a unit.

The chain P_k is one exact product on integer forms: an integer form
(N, d) is a matrix N of integer polynomials over one denominator d,
content-reduced.
M_n, M'_n = C_phi^n P_n and the Coleman kernel all read it; Fractions
are formed only where a result is returned or embedded.  P_n has degree
p^n - 1, so M_n is already reduced modulo omega_n.

The tower satisfies, and this module verifies exactly on the integer
numerators: M_m = M_n mod omega_n, the closed-form determinant, and
the transport law under a basis change.  The XSeries view of M_n, whose
coefficients keep rel_prec digits, carries the certified checks
M_n(0) = C_phi and the coefficient valuation bound (n+1) * minval(C_phi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm

from .errors import (
    DenominatorBudgetExceeded,
    HypothesisFailed,
    Indeterminate,
    InputError,
    NotFiltrationAdapted,
    NotInImage,
    SingularOperator,
)
from .linalg import (
    _fraction_poly,
    _int_dot,
    _int_pmat_mul,
    _int_trim,
    _over_one_denominator,
    _pseudo_divmod,
    cofactor_det,
    fpoly_divmod,
    fpoly_scale,
    fpoly_trim,
    frac_det,
    frac_inv,
    frac_mat,
    frac_charpoly,
    frac_rank,
    hull_root_valuations,
    mat_mul,
    newton_lower_hull,
    vp_frac,
    zp_solve_integral,
)
from .padic import INF, PadicContext
from .series import LambdaNElement, XSeries, omega_ints, phi_cyclo_ints


# -- admission gate --------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    charpoly: tuple
    hull: tuple
    root_valuations: tuple
    det_C: Fraction
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self):
        return {
            "charpoly": [str(c) for c in self.charpoly],
            "newton_hull": [[str(x), str(y)] for x, y in self.hull],
            "root_valuations": [
                [str(v), m] for v, m in self.root_valuations
            ],
            "det_C": str(self.det_C),
            "failures": list(self.failures),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class FrobeniusData:
    """Admitted Frobenius input: the matrix C with block sizes.

    size = r*d total, fil_dim = r*d0 unscaled coordinates (the Fil^0
    block is spanned by the first fil_dim standard vectors).
    """

    ctx: PadicContext
    d: int
    d0: int
    r: int
    C: tuple

    @property
    def size(self) -> int:
        return self.r * self.d

    @property
    def fil_dim(self) -> int:
        return self.r * self.d0

    @property
    def scaled_dim(self) -> int:
        return self.size - self.fil_dim

    @cached_property
    def C_inv(self):
        """C^{-1} as a tuple of rows, inverted once per instance (by
        create, for an admitted instance)."""
        return tuple(map(tuple, frac_inv(self.C)))

    @cached_property
    def C_phi(self):
        """C_phi = C diag(I, (1/p) I) as a tuple of rows."""
        f, p = self.fil_dim, self.ctx.p
        return tuple(tuple(x if j < f else x / p for j, x in enumerate(row))
                     for row in self.C)

    def C_frac(self):
        return [list(row) for row in self.C]

    def C_phi_frac(self):
        return [list(row) for row in self.C_phi]

    def min_val_C_phi(self):
        return min(vp_frac(x, self.ctx.p) for row in self.C_phi for x in row)

    @classmethod
    def create(cls, ctx, C_rows, d0, r: int = 1, force: bool = False):
        C = tuple(tuple(Fraction(x) for x in row) for row in C_rows)
        g = len(C)
        if g == 0 or any(len(row) != g for row in C):
            raise InputError("C must be a nonempty square matrix")
        if r < 1 or g % r != 0:
            raise InputError(f"r={r} does not divide the matrix size {g}")
        d = g // r
        if not (0 <= d0 <= d):
            raise InputError(f"d0={d0} outside 0..{d}")
        fd = cls(ctx=ctx, d=d, d0=d0, r=r, C=C)
        report = check_hypotheses(fd)
        if report.ok:
            fd.C_inv  # an admitted C is invertible: invert it once, now
        elif not force:
            raise HypothesisFailed(
                "; ".join(report.failures), report=report
            )
        return fd

    def to_record(self):
        return {
            "p": self.ctx.p,
            "d": self.d,
            "d0": self.d0,
            "r": self.r,
            "C": [[str(x) for x in row] for row in self.C],
            "rel_prec": self.ctx.rel_prec,
            "denom_budget": self.ctx.denom_budget,
        }


def check_hypotheses(fd: FrobeniusData) -> HypothesisReport:
    """Admission checks on C and C_phi: p-integrality, unit determinant,
    slope window (-1, 0], and 1 not an eigenvalue."""
    p = fd.ctx.p
    failures = []
    if any(vp_frac(x, p) < 0 for row in fd.C for x in row):
        failures.append("C is not p-integral")
    det_C = frac_det(fd.C_frac())
    if vp_frac(det_C, p) != 0:
        failures.append(f"det(C) = {det_C} is not a p-adic unit")
    cphi = fd.C_phi
    cp = frac_charpoly(cphi)
    points = [(i, vp_frac(a, p)) for i, a in enumerate(cp)]
    hull = newton_lower_hull(points)
    roots = hull_root_valuations(hull)
    for val, mult in roots:
        if not (Fraction(-1) < val <= 0):
            failures.append(
                f"eigenvalue valuation {val} (x{mult}) outside (-1, 0]"
            )
    shifted = [[cphi[i][j] - Fraction(int(i == j)) for j in range(fd.size)]
               for i in range(fd.size)]
    if frac_det(shifted) == 0:
        failures.append("1 is an eigenvalue of C_phi")
    return HypothesisReport(
        charpoly=tuple(cp),
        hull=tuple(hull),
        root_valuations=tuple(roots),
        det_C=det_C,
        failures=tuple(failures),
    )


# -- the exact tower -------------------------------------------------------


def build_Cn(fd: FrobeniusData, n: int):
    """C_n = diag(I, Phi_{p^n}(1+X) I) * C^{-1} as a matrix of exact
    Fraction polynomials (lists, [] = 0)."""
    if n < 1:
        raise InputError("build_Cn needs n >= 1")
    phi = phi_cyclo_ints(fd.ctx.p, n)
    return [
        [fpoly_scale(phi, x) if i >= fd.fil_dim else fpoly_trim([x])
         for x in row]
        for i, row in enumerate(fd.C_inv)
    ]


def _integer_matrix(A):
    """(numerators, d): the matrix of rationals A as integers over the
    least common denominator d."""
    d = lcm(*{x.denominator for row in A for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in A], d


def _constant(A, d=1):
    """The matrix of rationals A / d as an integer form of constant
    polynomials."""
    A, m = _integer_matrix(A)
    return [[[x] if x else [] for x in row] for row in A], m * d


def _times(left, right):
    """The product of two integer forms, trimmed and divided by the gcd of
    its denominator and its content."""
    (A, a), (B, b) = left, right
    N = [[_int_trim(e) for e in row] for row in _int_pmat_mul(A, [*zip(*B)])]
    g = gcd(a * b, *[gcd(*e) for row in N for e in row])
    if g > 1:
        N = [[[c // g for c in e] for e in row] for row in N]
    return N, a * b // g


def _fractions(form):
    """The integer form N / d as a matrix of Fraction polynomials."""
    N, d = form
    return [[_fraction_poly(e, d) for e in row] for row in N]


def _integer_form(M):
    """A matrix of Fraction polynomials as an integer form."""
    nums, d = _over_one_denominator([e for row in M for e in row], None)
    entries = iter(nums)
    return [[next(entries) for _ in row] for row in M], d


def build_chain(fd: FrobeniusData, n: int):
    """[P_0, ..., P_n] as integer forms, P_0 = I and P_k = C_k P_{k-1}.
    The scaled rows of C^{-1} P_{k-1} are multiplied by the monic
    Phi_{p^k}(1+X), which keeps the content.  P_k has degree p^k - 1,
    below the degree of omega_k."""
    g, f = fd.size, fd.fil_dim
    C_inv = _constant(fd.C_inv)
    chain = [_constant([[int(i == j) for j in range(g)] for i in range(g)])]
    for k in range(1, n + 1):
        N, d = _times(C_inv, chain[-1])
        phi = phi_cyclo_ints(fd.ctx.p, k)
        N[f:] = [[_int_dot([(phi, e)], None) for e in row] for row in N[f:]]
        chain.append((N, d))
    return chain


def cphi_power_times(fd: FrobeniusData, e: int, P):
    """C_phi^e P for an integer form P, the power formed on integers."""
    A, c = _integer_matrix(fd.C_phi)
    power = [[int(i == j) for j in range(fd.size)] for i in range(fd.size)]
    for _ in range(e):
        power = mat_mul(A, power)
    return _times(_constant(power, c ** e), P)


def _exact_levels(fd: FrobeniusData, levels):
    """{n: M_n} for the requested levels, as integer forms from one chain."""
    if any(n < 0 for n in levels):
        raise InputError("levels must be >= 0")
    top = max(levels, default=0)
    need = (top + 1) * max(0, -fd.min_val_C_phi())
    if need > fd.ctx.denom_budget:
        raise DenominatorBudgetExceeded(
            f"level {top} needs denominator budget {need}, "
            f"context allows {fd.ctx.denom_budget}"
        )
    chain = build_chain(fd, top)
    return {n: cphi_power_times(fd, n + 1, chain[n]) for n in levels}


def _difference(high, low):
    """The numerators of high - low over the least common denominator of
    the two integer forms, trimmed."""
    (A, a), (B, b) = high, low
    m = lcm(a, b)
    return [[_combine(x, m // a, y, m // b) for x, y in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def _combine(f, a, g, b):
    """The integer polynomial a f - b g, trimmed."""
    return _int_trim([a * x - b * y
                      for x, y in zip_longest(f, g, fillvalue=0)])


def _mod_omega(f, p: int, n: int):
    return fpoly_divmod(f, omega_ints(p, n))[1]


def _first_nonzero(f):
    return next((k for k, c in enumerate(f) if c), None)


def _embed_matrix(ctx, M):
    """Matrix of Fraction polynomials -> matrix of XSeries whose
    coefficients keep rel_prec digits."""
    return [[XSeries.from_fractions(ctx, e) for e in row] for row in M]


class LogMatrixApprox:
    """Level-n approximant as XSeries views: the polynomial matrix and
    its classes modulo omega_n."""

    __slots__ = ("fd", "n", "raw", "reduced")

    def __init__(self, fd, n, raw, reduced):
        self.fd = fd
        self.n = n
        self.raw = raw
        self.reduced = reduced


def build_Mn(fd: FrobeniusData, n: int) -> LogMatrixApprox:
    """M_n = C_phi^(n+1) * C_n ... C_1, built exactly and embedded once.
    Its degree is below p^n, so the omega_n classes share the raw
    representatives."""
    return _approx(fd, n, _exact_levels(fd, (n,))[n])


def _approx(fd: FrobeniusData, n: int, M) -> LogMatrixApprox:
    """The XSeries views of the exact M_n, given as an integer form."""
    raw = _embed_matrix(fd.ctx, _fractions(M))
    reduced = [[LambdaNElement(fd.ctx, n, e) for e in row] for row in raw]
    return LogMatrixApprox(fd, n, raw, reduced)


# -- verification ----------------------------------------------------------


def check_evaluation(approx: LogMatrixApprox, cutoff: int = 1):
    """M_n(0) = C_phi: compare the constant terms against the exact
    embedding entry by entry."""
    ctx = approx.fd.ctx
    target = approx.fd.C_phi
    witness = None
    for i, row in enumerate(approx.raw):
        for j, e in enumerate(row):
            diff = e.eval_at_zero() - ctx.from_rational(target[i][j])
            st = diff.zero_status(cutoff)
            if st == "nonzero":
                return {"ok": False, "witness": (i, j, repr(diff))}
            if st == "indeterminate" and witness is None:
                witness = (i, j, repr(diff))
    if witness is not None:
        raise Indeterminate(
            f"evaluation check unresolved at {witness[:2]}", witness
        )
    return {"ok": True, "witness": None}


def verify_stabilization(fd, n: int, m: int) -> bool:
    """True iff M_m = M_n mod omega_n, decided exactly."""
    if not (1 <= n <= m):
        raise InputError("need 1 <= n <= m")
    M = _exact_levels(fd, (n, m))
    return _stabilizes(fd.ctx.p, n, M[n], M[m])


def _stabilizes(p: int, n: int, low, high) -> bool:
    """True iff the integer forms M_m (high) = M_n (low) mod omega_n."""
    omega = omega_ints(p, n)
    return not any(_pseudo_divmod(e, omega)[1]
                   for row in _difference(high, low) for e in row)


def _closed_det(fd: FrobeniusData, n: int):
    """(acc, c): the closed form is acc c, c = det(C) p^-(n+1)s."""
    s = fd.scaled_dim
    acc = [1]
    for k in range(1, n + 1):
        phi = phi_cyclo_ints(fd.ctx.p, k)
        for _ in range(s):
            acc = _int_dot([(phi, acc)], None)
    return acc, frac_det(fd.C) / fd.ctx.p ** ((n + 1) * s)


def det_closed_form(fd: FrobeniusData, n: int) -> XSeries:
    """det(C) * p^-(n+1)s * prod_{k<=n} Phi_{p^k}^s, s = scaled block size."""
    return XSeries.from_fractions(fd.ctx, fpoly_scale(*_closed_det(fd, n)))


def det_Mn(fd: FrobeniusData, n: int):
    """Determinant of M_n against the closed form, both as polynomials
    and modulo omega_n.  The verdicts are exact; det and closed_form are
    reported as XSeries views."""
    return _det_check(fd, n, _exact_levels(fd, (n,))[n])


def _det_check(fd: FrobeniusData, n: int, M):
    """det_Mn on the integer form M_n = N / d: det N / d^size against
    acc c."""
    N, d = M
    det = [x.numerator for x in cofactor_det(N)]
    den = d ** fd.size
    acc, c = _closed_det(fd, n)
    diff = _combine(det, c.denominator, acc, c.numerator * den)
    rem = _pseudo_divmod(diff, omega_ints(fd.ctx.p, n))[1]
    return {
        "n": n,
        "det": XSeries.from_fractions(fd.ctx, _fraction_poly(det, den)),
        "closed_form": XSeries.from_fractions(fd.ctx, fpoly_scale(acc, c)),
        "raw_match": not diff,
        "reduced_match": not rem,
        "witness": _first_nonzero(diff),
    }


def min_coeff_valuation(approx: LogMatrixApprox):
    """Observed minimum coefficient valuation of the raw matrix against
    the guaranteed bound (n+1)*minval(C_phi)."""
    observed = INF
    for row in approx.raw:
        for e in row:
            for c in e.coeffs:
                v = c.prec if c.is_zero_rep else c.v
                observed = min(observed, v)
    bound = (approx.n + 1) * min(0, approx.fd.min_val_C_phi())
    return {"observed": observed, "bound": bound,
            "ok": observed >= bound}


# -- basis change ----------------------------------------------------------


def _validate_adapted(fd: FrobeniusData, B):
    p = fd.ctx.p
    B = frac_mat(B)
    if len(B) != fd.size or any(len(row) != fd.size for row in B):
        raise InputError(f"B must be {fd.size}x{fd.size}")
    if any(vp_frac(x, p) < 0 for row in B for x in row):
        raise NotFiltrationAdapted("B is not p-integral")
    if vp_frac(frac_det(B), p) != 0:
        raise NotFiltrationAdapted("det(B) is not a unit")
    for i in range(fd.fil_dim, fd.size):
        for j in range(fd.fil_dim):
            if B[i][j] != 0:
                raise NotFiltrationAdapted(
                    f"lower-left block entry ({i}, {j}) is nonzero"
                )
    return B


def conjugated_instance(fd: FrobeniusData, B) -> FrobeniusData:
    """The instance whose Frobenius matrix is B C_phi B^{-1} (read off
    through C_w = B C_phi B^{-1} diag(I, p))."""
    return _conjugation(fd, B)[2]


def _conjugation(fd: FrobeniusData, B):
    """(B, B^{-1}, conjugated_instance(fd, B)), B inverted once."""
    B = _validate_adapted(fd, B)
    B_inv = frac_inv(B)
    middle = mat_mul(mat_mul(B, fd.C_phi), B_inv)
    C_w = [
        [middle[i][j] * (1 if j < fd.fil_dim else fd.ctx.p)
         for j in range(fd.size)]
        for i in range(fd.size)
    ]
    return B, B_inv, FrobeniusData.create(fd.ctx, C_w, fd.d0, fd.r)


def log_matrix_in_basis(approx: LogMatrixApprox, B):
    """The conjugate B M_n B^{-1} of an approximant.

    This is the approximant of the conjugated instance only when B is
    block diagonal; for a general adapted B the two differ by the defect
    described in conjugate_basis_check.  The product is formed on the
    exact M_n of approx.fd and approx.n and rounded once.
    """
    Bq = frac_mat(B)
    M = _exact_levels(approx.fd, (approx.n,))[approx.n]
    conj = _times(_times(_constant(Bq), M), _constant(frac_inv(Bq)))
    return _embed_matrix(approx.fd.ctx, _fractions(conj))


def conjugate_basis_check(fd: FrobeniusData, B, levels=(1, 2)):
    """Compare B M_{n,v} B^{-1} with the approximant M_{n,w} rebuilt
    from the conjugated instance, exactly and modulo omega_n, per level.

    Write B = [[P, Q], [0, R]], N = [[0, P^{-1} Q], [0, 0]] and
    D_k = diag(I, Phi_{p^k}(1+X)/p I), so that C_k = D_k C_phi^{-1}.
    Then B^{-1} D_k B = D_k E_k with E_k = I + (1 - Phi_{p^k}(1+X)/p) N,
    and therefore:

    (a) if Q = 0, M_{n,w} = B M_{n,v} B^{-1} exactly at every level,
        hence also modulo omega_n;
    (b) if Q != 0, the level-1 defect M_{1,w} - B M_{1,v} B^{-1} is
        exactly (1 - Phi_p(1+X)/p) B C_phi^2 N C_phi^{-1} B^{-1},
        which is nonzero, so "exact" is False;
    (c) for every adapted B, det M_{n,w} = det M_{n,v}, and the defect
        is divisible by X (E_k(0) = I), so the value at zero is
        transported.

    Both approximants come from one chain per instance, and every
    verdict is exact, decided on integer numerators.  Returns a report;
    raises NotFiltrationAdapted when B lacks the adapted block form.
    """
    B, B_inv, fd_w = _conjugation(fd, B)
    left, right = _constant(B), _constant(B_inv)
    mv = _exact_levels(fd, levels)
    mw = _exact_levels(fd_w, levels)
    per_level = {}
    for n in levels:
        diff = _difference(_times(_times(left, mv[n]), right), mw[n])
        omega = omega_ints(fd.ctx.p, n)
        exact_ok = mod_ok = True
        witness = None
        for i, row in enumerate(diff):
            for j, e in enumerate(row):
                if not e:
                    continue
                exact_ok = False
                rem = _pseudo_divmod(e, omega)[1]
                if rem:
                    mod_ok = False
                    if witness is None:
                        witness = (i, j, _first_nonzero(rem))
        per_level[n] = {
            "exact": exact_ok,
            "mod_omega": mod_ok,
            "witness": witness,
        }
    all_exact = all(lev["exact"] for lev in per_level.values())
    return {
        "adapted": True,
        "levels": per_level,
        "all_exact": all_exact,
        "all_mod_omega": all(lev["mod_omega"] for lev in per_level.values()),
        "ok": all_exact,
        "conjugated_C": fd_w.C,
    }


# -- image condition at zero -----------------------------------------------


class ImageConditionResult:
    """Membership verdict plus the pseudo-surjectivity rank criterion."""

    __slots__ = ("membership", "finite_index", "details")

    def __init__(self, membership, finite_index, details):
        self.membership = membership
        self.finite_index = finite_index
        self.details = details

    def __bool__(self):
        return self.membership

    def __repr__(self):
        return (f"ImageConditionResult(membership={self.membership}, "
                f"finite_index={self.finite_index})")


def image_condition_at_zero(fd: FrobeniusData, I, w,
                            trivial_character: bool = False):
    """Test whether w lies in the projected image lattice U_I.

    U_I = pr_I((1-phi)(1-phi/p)^{-1} Fil0) in the trivial-character
    case, pr_I(Fil0) otherwise, with Fil0 spanned by the first fil_dim
    standard vectors.  Membership is an exact p-integral linear solve;
    the finite-index flag reports whether pr_I restricted to the
    transported Fil0 has full rank |I|.
    """
    g = fd.size
    I = sorted(set(I))
    if not I or I[0] < 1 or I[-1] > g:
        raise InputError(f"index set must be a nonempty subset of 1..{g}")
    w = [Fraction(x) for x in w]
    if len(w) != len(I):
        raise InputError(f"w must have {len(I)} coordinates (one per index)")
    fil = [[Fraction(int(i == k)) for i in range(g)]
           for k in range(fd.fil_dim)]
    if trivial_character:
        phi = fd.C_phi_frac()
        one_minus_phi = [
            [Fraction(int(i == j)) - phi[i][j] for j in range(g)]
            for i in range(g)
        ]
        one_minus_phi_over_p = [
            [Fraction(int(i == j)) - phi[i][j] / fd.ctx.p for j in range(g)]
            for i in range(g)
        ]
        if frac_det(one_minus_phi) == 0:
            raise SingularOperator("1 - phi is singular")
        if frac_det(one_minus_phi_over_p) == 0:
            raise SingularOperator("1 - phi/p is singular")
        inv = frac_inv(one_minus_phi_over_p)
        op = mat_mul(one_minus_phi, inv)
        transported = [
            [sum(op[i][k] * v[k] for k in range(g)) for i in range(g)]
            for v in fil
        ]
    else:
        transported = fil
    columns = [[v[i - 1] for i in I] for v in transported]
    try:
        coeffs = zp_solve_integral(columns, w, fd.ctx.p)
        membership = True
    except NotInImage:
        coeffs = None
        membership = False
    proj_rank = frac_rank([[col[i] for col in columns]
                           for i in range(len(I))])
    finite_index = proj_rank == len(I)
    stack = [[Fraction(int(idx - 1 == i)) for i in range(g)] for idx in I]
    stack += [[Fraction(int(j == i)) for i in range(g)]
              for j in range(fd.fil_dim, g)]
    dual_ok = frac_rank(stack) == len(stack)
    return ImageConditionResult(
        membership,
        finite_index,
        {
            "I": I,
            "trivial_character": trivial_character,
            "coefficients": coeffs,
            "projected_rank": proj_rank,
            "dual_intersection_trivial": dual_ok,
        },
    )
