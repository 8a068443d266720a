"""Logarithmic matrix approximants.

From an admitted Frobenius matrix C (p-integral, unit determinant) the
tower of approximants is built as

    C_phi = C * diag(I, (1/p) I)
    C_k   = diag(I, Phi_{p^k}(1+X) I) * C^{-1}
    P_k   = C_k * ... * C_1            (P_0 = I)
    M_n   = C_phi^(n+1) * P_n

with the unscaled block of size r*d0 and the scaled block of size
r*(d-d0).  The admission gate checks the Newton-polygon slope window
(-1, 0], that 1 is not an eigenvalue, and that det(C) is a unit, all
read off the characteristic polynomial of C_phi.  An adapted change of
basis carries admission over, so the conjugated instance of
conjugate_basis_check is transported, not gated: its tower is built
from C_w and C_w^-1 on integers.  conjugated_instance still gates it,
and builds no tower.

Each instance grows one ExactTower on first use, its one integer lift:
C and C^-1 as integer forms (linalg's exact polynomial type: a matrix N
of integer polynomials over one denominator d, content-reduced), and on
them C_phi^(+-1), their powers and the chain P_k.  M_n, M'_n = C_phi^n
P_n and the Coleman and Wach maps read it; Fractions are formed only
where a result is returned.
P_n has degree p^n - 1, so M_n is already reduced modulo omega_n.

The tower satisfies, and this module verifies exactly on the integer
numerators: M_m = M_n mod omega_n, the closed-form determinant, the
transport law under a basis change, M_n(0) = C_phi and the coefficient
valuation bound (n+1) * minval(C_phi).  No verdict reads a rounded view:
the XSeries that build_Mn, det_Mn and log_matrix_in_basis return are
rounded once, by series.form_views, for the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import (
    DenominatorBudgetExceeded,
    HypothesisFailed,
    InputError,
    NotFiltrationAdapted,
    NotInImage,
    SingularOperator,
)
from .linalg import (
    cofactor_det,
    form_at_zero,
    form_const,
    form_depth,
    form_mod,
    form_mul,
    form_sub,
    form_valuation,
    form_witness,
    frac_det,
    frac_identity,
    frac_inv,
    frac_mat,
    frac_charpoly,
    frac_rank,
    hull_root_valuations,
    int_dot,
    newton_lower_hull,
    vp_frac,
    zp_solve_integral,
)
from .padic import PadicContext
from .series import (
    LambdaNElement,
    XSeries,
    form_views,
    omega_ints,
    phi_cyclo_ints,
)


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
    def tower(self):
        """The instance's ExactTower: C and C^-1 lifted once, on use."""
        return ExactTower(self.ctx, self.fil_dim, form_const(self.C),
                          form_const(self.C_inv))

    @cached_property
    def C_phi(self):
        """C_phi = C diag(I, (1/p) I) as a tuple of rows."""
        f, p = self.fil_dim, self.ctx.p
        return tuple(tuple(x if j < f else x / p for j, x in enumerate(row))
                     for row in self.C)

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
        return cls(ctx=ctx, d=d, d0=d0, r=r, C=C)._gate(force)

    def _gate(self, force: bool = False):
        """self once it passes check_hypotheses (or is forced through)."""
        report = check_hypotheses(self)
        if report.ok:
            self.C_inv  # an admitted C is invertible: invert it once, now
        elif not force:
            raise HypothesisFailed(
                "; ".join(report.failures), report=report
            )
        return self

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
    cp = frac_charpoly(fd.C_phi)
    # det C_phi = det C / p^s is (-1)^size a_0
    det_C = (-1) ** fd.size * cp[0] * p ** fd.scaled_dim
    if vp_frac(det_C, p) != 0:
        failures.append(f"det(C) = {det_C} is not a p-adic unit")
    points = [(i, vp_frac(a, p)) for i, a in enumerate(cp)]
    hull = newton_lower_hull(points)
    roots = hull_root_valuations(hull)
    for val, mult in roots:
        if not (Fraction(-1) < val <= 0):
            failures.append(
                f"eigenvalue valuation {val} (x{mult}) outside (-1, 0]"
            )
    if sum(cp) == 0:  # the value at 1 is det(I - C_phi)
        failures.append("1 is an eigenvalue of C_phi")
    return HypothesisReport(
        charpoly=tuple(cp),
        hull=tuple(hull),
        root_valuations=tuple(roots),
        det_C=det_C,
        failures=tuple(failures),
    )


# -- the exact tower -------------------------------------------------------


def _diagonal(entries, d: int):
    """The integer form diag(entries) / d, for integer polynomials."""
    return [[e if i == j else [] for j in range(len(entries))]
            for i, e in enumerate(entries)], d


class ExactTower:
    """One instance's exact tower on integer forms and its one integer
    lift, held by FrobeniusData.tower and freed with it: the forms of C
    (frob) and C^-1 (frob_inv), C_k, the chain P_k = C_k P_(k-1) grown a
    level at a time, C_phi^(+-1) and their powers, M_k and M'_k, each
    formed once and shared read-only, by no elimination.  A transported
    tower is built from C_w and C_w^-1 (see _conjugation)."""

    __slots__ = ("p", "fil_dim", "depth", "budget", "frob", "frob_inv",
                 "chain", "_powers", "_products")

    def __init__(self, ctx: PadicContext, fil_dim: int, frob, frob_inv):
        g, f, p = len(frob[0]), fil_dim, ctx.p
        self.p, self.fil_dim, self.budget = p, f, ctx.denom_budget
        self.frob, self.frob_inv = frob, frob_inv
        self.chain, self._products = [_diagonal([[1]] * g, 1)], {}
        self._powers = {
            1: form_mul(frob, _diagonal([[p]] * f + [[1]] * (g - f), p)),
            -1: form_mul(_diagonal([[1]] * f + [[p]] * (g - f), 1), frob_inv)}
        self.depth = -form_depth(self._powers[1], p)

    def _scaled(self, A, phi):
        """diag(I, phi I) A, phi an integer polynomial; as reduced as A."""
        (N, d), f = A, self.fil_dim
        return N[:f] + [[int_dot([(phi, e)]) for e in row]
                        for row in N[f:]], d

    def _grow(self):
        """Append P_k = C_k P_(k-1), of degree p^k - 1 < deg omega_k."""
        P = form_mul(self.frob_inv, self.chain[-1])
        phi = phi_cyclo_ints(self.p, len(self.chain))
        self.chain.append(self._scaled(P, phi))

    def P(self, k: int):
        """P_k = C_k ... C_1 (P_0 = I)."""
        while len(self.chain) <= k:
            self._grow()
        return self.chain[k]

    def C(self, k: int):
        """C_k = diag(I, Phi_{p^k}(1+X) I) C^-1, for k >= 1."""
        return self._scaled(self.frob_inv, phi_cyclo_ints(self.p, k))

    def cphi_power(self, e: int):
        """C_phi^e, for e != 0, as C_phi^(+-1) C_phi^(e -+ 1)."""
        if e not in self._powers:
            s = 1 if e > 0 else -1
            self._powers[e] = form_mul(self._powers[s], self.cphi_power(e - s))
        return self._powers[e]

    def _product(self, e: int, k: int):
        if (e, k) not in self._products:
            self._products[e, k] = form_mul(self.cphi_power(e), self.P(k))
        return self._products[e, k]

    def M(self, n: int):
        """M_n = C_phi^(n+1) P_n; a level whose M_n needs deeper
        denominators than the budget raises before anything is built."""
        if n < 0:
            raise InputError("levels must be >= 0")
        if (n + 1) * self.depth > self.budget:
            raise DenominatorBudgetExceeded(
                f"level {n} needs denominator budget {(n + 1) * self.depth}"
                f", context allows {self.budget}")
        return self._product(n + 1, n)

    def M_prime(self, k: int):
        """M'_k = C_phi^k P_k, for k >= 1."""
        return self._product(k, k)


def build_Cn(fd: FrobeniusData, n: int):
    """C_n = diag(I, Phi_{p^n}(1+X) I) * C^{-1} as an integer form."""
    if n < 1:
        raise InputError("build_Cn needs n >= 1")
    return fd.tower.C(n)


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
    """M_n = C_phi^(n+1) * C_n ... C_1, built exactly and rounded once.
    Its degree is below p^n, so the omega_n classes share the raw
    representatives."""
    raw = form_views(fd.ctx, fd.tower.M(n))
    reduced = [[LambdaNElement(fd.ctx, n, e) for e in row] for row in raw]
    return LogMatrixApprox(fd, n, raw, reduced)


# -- verification ----------------------------------------------------------


def _at_zero_witness(fd: FrobeniusData, M):
    """(i, j, detail) at the first entry where M(0) != C_phi, or None."""
    diff, d = form_sub(form_at_zero(M), fd.tower.cphi_power(1))
    w = form_witness((diff, d), fd.ctx.p)
    return w and (*w[:2],
                  f"M_n(0) - C_phi = {Fraction(diff[w[0]][w[1]][0], d)}")


def check_evaluation(approx: LogMatrixApprox):
    """M_n(0) = C_phi, decided exactly on the integer form of M_n."""
    witness = _at_zero_witness(approx.fd, approx.fd.tower.M(approx.n))
    return {"ok": witness is None, "witness": witness}


def verify_stabilization(fd, n: int, m: int) -> bool:
    """True iff M_m = M_n mod omega_n, decided exactly."""
    if not (1 <= n <= m):
        raise InputError("need 1 <= n <= m")
    high = fd.tower.M(m)  # first: the budget at m bounds the one at n
    return _stabilizes(fd.ctx.p, n, fd.tower.M(n), high)


def _stabilizes(p: int, n: int, low, high) -> bool:
    """True iff the integer forms M_m (high) = M_n (low) mod omega_n."""
    return form_witness(form_mod(form_sub(high, low), omega_ints(p, n)),
                        p) is None


def _closed_det(fd: FrobeniusData, n: int):
    """The closed form as a 1 x 1 integer form, reading
    prod_{k<=n} Phi_{p^k}(1+X) as omega_n / X."""
    p, s = fd.ctx.p, fd.scaled_dim
    base, acc = omega_ints(p, n)[1:], [1]
    for _ in range(s):
        acc = int_dot([(base, acc)])
    c = frac_det(fd.C) / p ** ((n + 1) * s)
    return [[[c.numerator * x for x in acc]]], c.denominator


def det_closed_form(fd: FrobeniusData, n: int) -> XSeries:
    """det(C) * p^-(n+1)s * prod_{k<=n} Phi_{p^k}^s, s = scaled block
    size, which is det(C) p^-(n+1)s (omega_n / X)^s."""
    return form_views(fd.ctx, _closed_det(fd, n))[0][0]


def det_Mn(fd: FrobeniusData, n: int):
    """Determinant of M_n = N / d, det N / d^size, against the closed
    form, both as polynomials and modulo omega_n, on 1 x 1 integer forms.
    The verdicts are exact; det and closed_form are XSeries views, one
    shared view when raw_match proves the two forms equal."""
    p = fd.ctx.p
    N, d = fd.tower.M(n)
    det = [[cofactor_det(N)]], d ** fd.size
    closed = _closed_det(fd, n)
    diff = form_sub(det, closed)
    witness = form_witness(diff, p)
    view = form_views(fd.ctx, det)[0][0]
    return {
        "n": n,
        "det": view,
        "closed_form": view if witness is None
        else form_views(fd.ctx, closed)[0][0],
        "raw_match": witness is None,
        "reduced_match": form_witness(form_mod(diff, omega_ints(p, n)),
                                      p) is None,
        "witness": witness and witness[2],
    }


def min_coeff_valuation(approx: LogMatrixApprox):
    """The least coefficient valuation of the exact M_n (INF when it is
    zero) against the guaranteed bound (n+1)*minval(C_phi)."""
    observed = form_valuation(approx.fd.tower.M(approx.n), approx.fd.ctx.p)
    bound = (approx.n + 1) * min(0, approx.fd.min_val_C_phi())
    return {"observed": observed, "bound": bound,
            "ok": observed >= bound}


# -- basis change ----------------------------------------------------------


def _validate_adapted(fd: FrobeniusData, B):
    """(B, B^-1) for a filtration-adapted B, from one elimination: for a
    p-integral B, det B is a unit exactly when B is invertible with a
    p-integral inverse (det B det B^-1 = 1, B^-1 = adj B / det B)."""
    p = fd.ctx.p
    B = frac_mat(B)
    if len(B) != fd.size or any(len(row) != fd.size for row in B):
        raise InputError(f"B must be {fd.size}x{fd.size}")
    if any(vp_frac(x, p) < 0 for row in B for x in row):
        raise NotFiltrationAdapted("B is not p-integral")
    try:
        B_inv = frac_inv(B)
    except SingularOperator:
        B_inv = None
    if B_inv is None or any(vp_frac(x, p) < 0 for row in B_inv for x in row):
        raise NotFiltrationAdapted("det(B) is not a unit")
    for i in range(fd.fil_dim, fd.size):
        for j in range(fd.fil_dim):
            if B[i][j] != 0:
                raise NotFiltrationAdapted(
                    f"lower-left block entry ({i}, {j}) is nonzero"
                )
    return B, B_inv


def conjugated_instance(fd: FrobeniusData, B) -> FrobeniusData:
    """The instance whose Frobenius matrix is B C_phi B^{-1} (read off
    through C_w = B C_phi B^{-1} diag(I, p)), run through the gate."""
    return _conjugation(fd, B)[2]._gate()


def _lift(A, f: int, p: int):
    """Delta^-1 A Delta, Delta = diag(I_f, p I), for a block upper
    triangular integer form A: the entries with i < f <= j times p."""
    N, d = A
    return [[[c * p for c in e] if i < f <= j else e
             for j, e in enumerate(row)] for i, row in enumerate(N)], d


def _conjugation(fd: FrobeniusData, B):
    """(B, B^-1, the conjugated instance, C_w, C_w^-1), all but the
    instance as integer forms.

    With Delta = diag(I, p I), C_w = B C_phi B^-1 Delta is B C lift(B^-1)
    and C_w^-1 is lift(B) C^-1 B^-1, lift(A) = Delta^-1 A Delta, formed
    on fd's tower, for conjugate_basis_check to build the transported
    one; the instance holds C_w as Fractions.  It skips the gate, as it
    passes exactly when fd does: lift(B^-1) is p-integral, so C_w is when
    C is; det C_w = det C; and C_w Delta^-1 = B C_phi B^-1 has the
    characteristic polynomial of C_phi.
    """
    B, B_inv = _validate_adapted(fd, B)
    f, p, tower = fd.fil_dim, fd.ctx.p, fd.tower
    left, right = form_const(B), form_const(B_inv)
    C_w = form_mul(form_mul(left, tower.frob), _lift(right, f, p))
    C_w_inv = form_mul(form_mul(_lift(left, f, p), tower.frob_inv), right)
    N, d = C_w
    fd_w = replace(fd, C=tuple(tuple(Fraction(e[0] if e else 0, d)
                                     for e in row) for row in N))
    return left, right, fd_w, C_w, C_w_inv


def log_matrix_in_basis(approx: LogMatrixApprox, B):
    """The conjugate B M_n B^{-1} of an approximant.

    This is the approximant of the conjugated instance only when B is
    block diagonal; for a general adapted B the two differ by the defect
    described in conjugate_basis_check.  The product is formed on the
    exact M_n of approx.fd and approx.n and rounded once.
    """
    Bq = frac_mat(B)
    M = approx.fd.tower.M(approx.n)
    conj = form_mul(form_mul(form_const(Bq), M), form_const(frac_inv(Bq)))
    return form_views(approx.fd.ctx, conj)


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

    The conjugated instance is transported from fd, not gated (see
    _conjugation).  Both approximants are read off the instances'
    towers; every verdict is exact, decided on integer numerators.
    Returns a report; raises InputError on an empty levels, before any
    tower is built, and NotFiltrationAdapted when B lacks the adapted
    block form.
    """
    levels = tuple(levels)
    if not levels:
        raise InputError("levels must name at least one level")
    left, right, fd_w, C_w, C_w_inv = _conjugation(fd, B)
    p, tower_w = fd.ctx.p, ExactTower(fd.ctx, fd.fil_dim, C_w, C_w_inv)
    # a negative level fails first, then the budget at the top level
    order = sorted(levels, key=lambda n: (n >= 0, -n))
    mv, mw = ({n: t.M(n) for n in order} for t in (fd.tower, tower_w))
    per_level = {}
    for n in levels:
        diff = form_sub(form_mul(form_mul(left, mv[n]), right), mw[n])
        witness = form_witness(form_mod(diff, omega_ints(p, n)), p)
        per_level[n] = {"exact": form_witness(diff, p) is None,
                        "mod_omega": witness is None, "witness": witness}
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
    op = frac_identity(g)
    if trivial_character:
        one_minus_phi, one_minus_phi_over_p = (
            [[int(i == j) - x / scale for j, x in enumerate(row)]
             for i, row in enumerate(fd.C_phi)] for scale in (1, fd.ctx.p))
        if frac_det(one_minus_phi) == 0:
            raise SingularOperator("1 - phi is singular")
        try:
            # (1 - phi)(1 - phi/p)^-1 = (1 - phi/p)^-1 (1 - phi): both
            # are polynomials in phi
            op = frac_inv(one_minus_phi_over_p, one_minus_phi)
        except SingularOperator:
            raise SingularOperator("1 - phi/p is singular") from None
    # Fil0 is spanned by the first fil_dim standard vectors: its images
    # are the first fil_dim columns of op
    columns = [[op[i - 1][k] for i in I] for k in range(fd.fil_dim)]
    try:
        coeffs = zp_solve_integral(columns, w, fd.ctx.p)
        membership = True
    except NotInImage:
        coeffs = None
        membership = False
    proj_rank = frac_rank(columns)  # the rank of the transpose
    finite_index = proj_rank == len(I)
    # e_i (i in I) and e_(fil_dim+1), ..., e_g are independent exactly
    # when I lies in 1..fil_dim
    return ImageConditionResult(
        membership,
        finite_index,
        {
            "I": I,
            "trivial_character": trivial_character,
            "coefficients": coeffs,
            "projected_rank": proj_rank,
            "dual_intersection_trivial": I[-1] <= fd.fil_dim,
        },
    )
