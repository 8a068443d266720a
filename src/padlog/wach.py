"""Wach-style matrix towers over Z_p[[pi]] and their Galois twists.

The variable is written pi.  Frobenius acts by pi -> (1 + pi)^p - 1 and
the cyclotomic group element gamma_c by pi -> (1 + pi)^c - 1 with
c = 1 mod p.  With q = Phi_p(1 + pi) one has phi^{k-1}(q) =
Phi_{p^k}(1 + pi), and the level-k connection matrix is

    P_k = C * diag(I_{fil}, (1 / phi^{k-1}(q)) I)

whose inverse diag(I_{fil}, phi^{k-1}(q) I) * C^{-1} is an honest
polynomial matrix, the C_k of logmatrix.  The tower approximants

    M'_n = C_phi^n * P_n^{-1} * ... * P_1^{-1} = C_phi^n * C_n * ... * C_1

are read off logmatrix's exact chain C_n ... C_1, the same product
that gives M_n = C_phi * M'_n.  They are exact polynomial matrices with
M'_n(0) = I, congruent to each other modulo (1 + pi)^{p^n} - 1, and
they satisfy M'_n = C_phi * phi(M'_{n-1}) * P_1^{-1}, since phi carries
C_k to C_{k+1}; the tests check that identity, the library does not
run it.  The twist of gamma by the tower,

    G^(n) = (M'_n)^{-1} * gamma(M'_n),

is computed modulo a chosen power pi^T.  A substitution f(g) with
g(0) = 0 depends only on f mod pi^T, so every substitution that feeds a
truncated result is truncated from the start: f is cut to T terms,
(1 + pi)^c - 1 mod pi^T comes straight from the binomial coefficients,
and Horner's rule cuts to T terms after every multiply.  The cost of a
twist therefore does not depend on the size of c.  M'_n is cut to pi^T
first and its inverse mod pi^T comes from the adjugate divided by the
determinant (linalg's cofactor_det, cut mod pi^T), whose constant term
is exactly 1, so that the expansion is a denominator-free recurrence.
The twist runs in exact rational arithmetic for both kinds of exponent:
a PadicScalar c known mod p^N runs on its lift, and each coefficient is
then rounded once to the digits that every lift of c shares.  The twist
must come out p-integral and congruent to I mod pi, and these claims
are verified rather than assumed.

The commutation relation linking consecutive levels,

    P_1 * phi(G^(n)) = G^(n+1) * gamma(P_1),

is checked with denominators cleared: both sides are multiplied by
q * gamma(q), turning the identity into one between polynomial-by-
truncated-series products that can be compared coefficient by
coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    InputError,
    IntegralityViolation,
    PrecisionExhausted,
)
from .linalg import (
    cofactor_det,
    fpoly_add,
    fpoly_mul,
    fpoly_scale,
    fpoly_trim,
    frac_identity,
    mat_map,
    pmat_const,
    pmat_mul,
    pmat_sub,
    vp_frac,
)
from .logmatrix import (
    FrobeniusData,
    _mod_omega,
    build_chain,
    build_Cn,
    cphi_power_times,
)
from .padic import PadicContext, PadicScalar
from .series import XSeries, phi_cyclo_ints


def wach_context(p: int, rel_prec: int = 60, denom_budget: int = 64):
    """A context generous enough for twist computations, whose
    intermediate values sink far below the unit ball before the final
    integrality is restored."""
    return PadicContext(p, rel_prec=rel_prec, denom_budget=denom_budget)


class GammaElement:
    """A group element gamma_c acting by pi -> (1 + pi)^c - 1.

    ``c`` is either a positive integer congruent to 1 mod p or a
    PadicScalar certified congruent to 1 mod p.
    """

    __slots__ = ("p", "c")

    def __init__(self, p: int, c):
        if isinstance(c, PadicScalar):
            if c.p != p:
                raise InputError("gamma scalar lives over a different prime")
            diff = c - c.ctx.one()
            if diff.abs_prec() < 1 or diff.valuation() < 1:
                raise InputError("gamma exponent must be certified 1 mod p")
        else:
            c = int(c)
            if c < 1 or c % p != 1:
                raise InputError(
                    "integer gamma exponent must be positive and 1 mod p")
        self.p = p
        self.c = c

    @classmethod
    def default(cls, p: int) -> "GammaElement":
        return cls(p, 1 + p)

    @property
    def is_integer(self) -> bool:
        return isinstance(self.c, int)

    def __repr__(self):
        return f"gamma({self.c!r})"


# ---------------------------------------------------------------------------
# exact polynomial layer (Fraction coefficients, [] = zero)
# ---------------------------------------------------------------------------


def _binom_shift(e: int, T=None):
    """(1 + pi)^e - 1 as an exact polynomial in pi, mod pi^T when T is
    given."""
    top = e if T is None else min(e, T - 1)
    return fpoly_trim([Fraction(0)] + [Fraction(math.comb(e, k))
                                       for k in range(1, top + 1)])


def _pcompose(f, g, T=None):
    """f(g(pi)) for polynomials with g(0) = 0, mod pi^T when T is given.

    As g^k is divisible by pi^k, only f mod pi^T matters, and Horner's
    rule cuts every partial result to T terms.
    """
    if g and g[0] != 0:
        raise InputError("substitution requires zero constant term")
    acc = []
    for c in reversed(list(f)[:T]):
        acc = fpoly_add(fpoly_mul(acc, g, T), [Fraction(c)])
    return acc


def phi_act_poly(p: int, f, trunc=None):
    """Substitute pi -> (1 + pi)^p - 1 into a polynomial, mod pi^trunc
    when trunc is given."""
    return _pcompose(f, _binom_shift(p, trunc), trunc)


def gamma_act_poly(gamma: GammaElement, f, trunc=None):
    """Substitute pi -> (1 + pi)^c - 1, integer exponent only, mod
    pi^trunc when trunc is given."""
    if not gamma.is_integer:
        raise InputError("exact substitution needs an integer exponent")
    return _pcompose(f, _binom_shift(gamma.c, trunc), trunc)


def _padj(A, T: int):
    """Adjugate mod pi^T."""
    d = len(A)
    if d == 1:
        return [[[Fraction(1)]]]
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [
                [A[r][c] for c in range(d) if c != j]
                for r in range(d) if r != i
            ]
            cof = cofactor_det(minor, T)
            if (i + j) % 2:
                cof = fpoly_scale(cof, -1)
            out[j][i] = cof
    return out


def _pseries_inv(f, T: int):
    """Inverse of a polynomial with nonzero constant term, mod pi^T."""
    if not f or f[0] == 0:
        raise InputError("series inverse needs a nonzero constant term")
    c0 = Fraction(f[0])
    g = [Fraction(1) / c0]
    for k in range(1, T):
        acc = Fraction(0)
        for j in range(max(0, k - len(f) + 1), k):
            acc += g[j] * f[k - j]
        g.append(-acc / c0)
    return fpoly_trim(g)


def _pmat_integral(A, p: int):
    """First non p-integral coefficient, or None when all are."""
    for i, row in enumerate(A):
        for j, e in enumerate(row):
            for k, c in enumerate(e):
                if Fraction(c).denominator % p == 0:
                    return {"entry": (i, j), "degree": k, "value": str(c)}
    return None


# ---------------------------------------------------------------------------
# tower construction
# ---------------------------------------------------------------------------


def _require_wach(fd: FrobeniusData) -> None:
    if fd.r != 1:
        raise InputError("the tower is implemented for r = 1 only")


def q_poly(p: int):
    """q = Phi_p(1 + pi) as an exact polynomial."""
    return [Fraction(c) for c in phi_cyclo_ints(p, 1)]


def build_Pn(fd: FrobeniusData, n: int) -> dict:
    """The level-n connection data.

    Returns the exact polynomial inverse ``P_inv`` =
    diag(I, phi^{n-1}(q) I) C^{-1}, the cleared form ``qP`` =
    C diag(phi^{n-1}(q) I, I) with q_n P_n = qP, and the scalar
    polynomial ``q_n`` = phi^{n-1}(q) = Phi_{p^n}(1 + pi) itself, with
    integer coefficients.
    """
    _require_wach(fd)
    if n < 1:
        raise InputError("n must be at least 1")
    qn = list(phi_cyclo_ints(fd.ctx.p, n))
    qP = [
        [fpoly_scale(qn, x) if j < fd.fil_dim else fpoly_trim([x])
         for j, x in enumerate(row)]
        for row in fd.C_frac()
    ]
    return {"P_inv": build_Cn(fd, n), "qP": qP, "q_n": qn}


class WachMatrixTower:
    """Exact polynomial approximants M'_1, ..., M'_n for one instance."""

    __slots__ = ("fd", "n", "levels")

    def __init__(self, fd: FrobeniusData, n: int, levels):
        self.fd = fd
        self.n = n
        self.levels = levels

    def matrix(self, k: int):
        if not 1 <= k <= self.n:
            raise InputError(f"level must be in 1..{self.n}")
        return self.levels[k - 1]

    def value_at_zero_is_identity(self, k: int) -> bool:
        return pmat_const(self.matrix(k)) == frac_identity(self.fd.size)

    def twist(self, k: int, gamma: GammaElement, trunc: int) -> dict:
        """G^(k) = (M'_k)^{-1} gamma(M'_k) mod pi^trunc.

        Integer exponents run exactly over rationals; the result must be
        p-integral with constant term I, and IntegralityViolation carries
        a witness otherwise.  A scalar c known mod p^N runs on its lift
        c0, reports integrality, constant term and witness of the exact
        result, and rounds degree j to p^(N - floor(log_p j) - d_M - d_inv)
        (with 0 for floor(log_p 0)), as binom(c, i) = binom(c0, i) mod
        p^(N - floor(log_p i)); d_M and d_inv are the denominator depths
        of M'_k and its inverse mod pi^T; with no digit left at degree
        T - 1 it raises PrecisionExhausted.
        """
        T = trunc
        if T < 1:
            raise InputError("trunc must be positive")
        M = mat_map(self.matrix(k), lambda e: fpoly_trim(e[:T]))
        det = cofactor_det(M, T)
        if not det or det[0] != 1:
            raise InputError("tower determinant must have constant term 1")
        inv_det = _pseries_inv(det, T)
        Minv = mat_map(_padj(M, T), lambda e: fpoly_mul(e, inv_det, T))
        c = gamma.c if gamma.is_integer else gamma.c.lift()
        shift = _binom_shift(c, T)
        G = pmat_mul(Minv, mat_map(M, lambda e: _pcompose(e, shift, T)), T)
        ctx, p = self.fd.ctx, self.fd.ctx.p
        bad = _pmat_integral(G, p)
        const = pmat_const(G)
        if gamma.is_integer:
            if bad is not None:
                raise IntegralityViolation(
                    "twist has a non p-integral coefficient", witness=bad)
            if const != frac_identity(self.fd.size):
                raise IntegralityViolation(
                    "twist is not congruent to I mod pi",
                    witness={"constant_term": mat_map(const, str)})
            return {"G": G, "exact": True, "trunc": T, "n": k}
        N = gamma.c.abs_prec() + sum(  # less the depths d_M and d_inv
            min([0] + [vp_frac(x, p) for row in A for e in row for x in e
                       if x.denominator % p == 0]) for A in (M, Minv))
        # less floor(log_p j), read as 0 at j = 0
        Ns = [N - next(e for e in range(T) if p ** (e + 1) > j)
              for j in range(T)]
        if Ns[-1] < 1:
            raise PrecisionExhausted(
                f"c has too few digits to certify G at degree {T - 1}")
        G = [[XSeries(ctx, [ctx.from_rational(x, Nj) for x, Nj in
                            zip(e + [0] * (T - len(e)), Ns)], T)
              for e in row] for row in G]
        # every N_j >= 1, so the rounded G is integral with constant
        # term I exactly when the exact one is
        return {"G": G, "exact": False, "trunc": T, "n": k,
                "integral": bad is None,
                "constant_is_identity": const == frac_identity(self.fd.size),
                "witness": bad and (*bad["entry"], bad["degree"])}


def build_M_prime(fd: FrobeniusData, n: int) -> WachMatrixTower:
    """Build the tower up to level n as M'_k = C_phi^k * C_k ... C_1,
    from one exact chain."""
    _require_wach(fd)
    if n < 1:
        raise InputError("n must be at least 1")
    chain = build_chain(fd, n)
    levels = [cphi_power_times(fd, k, chain[k]) for k in range(1, n + 1)]
    return WachMatrixTower(fd, n, levels)


def verify_tower_congruence(tower: WachMatrixTower, m: int, n: int) -> bool:
    """Whether M'_m = M'_n modulo (1 + pi)^{p^n} - 1, exactly."""
    if not 1 <= n <= m <= tower.n:
        raise InputError("need 1 <= n <= m <= built level")
    p = tower.fd.ctx.p
    return not any(_mod_omega(e, p, n)
                   for row in pmat_sub(tower.matrix(m), tower.matrix(n))
                   for e in row)


# ---------------------------------------------------------------------------
# the gamma twist
# ---------------------------------------------------------------------------


def build_G_gamma(fd: FrobeniusData, n: int, gamma: GammaElement,
                  trunc: int) -> dict:
    """G^(n) = (M'_n)^{-1} gamma(M'_n) mod pi^trunc, on a fresh tower;
    see WachMatrixTower.twist."""
    return build_M_prime(fd, n).twist(n, gamma, trunc)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def verify_p1_twist(fd: FrobeniusData, gamma: GammaElement,
                    trunc: int) -> dict:
    """P_1 gamma(P_1^{-1}) must be congruent to I mod pi.

    Computed exactly for integer exponents: the product equals
    (1/q) * qP_1 * gamma(P_1^{-1}), and 1/q is expanded as
    (1/p) * inverse of (q/p), whose constant term is 1.
    """
    _require_wach(fd)
    if not gamma.is_integer:
        raise InputError("exact check needs an integer gamma exponent")
    p = fd.ctx.p
    data = build_Pn(fd, 1)
    q = q_poly(p)
    q_over_p = fpoly_scale(q, Fraction(1, p))
    inv_q = fpoly_scale(_pseries_inv(q_over_p, trunc), Fraction(1, p))
    moved = mat_map(data["P_inv"], lambda e: gamma_act_poly(gamma, e, trunc))
    prod = pmat_mul(data["qP"], moved, trunc)
    prod = mat_map(prod, lambda e: fpoly_mul(e, inv_q, trunc))
    const = pmat_const(prod)
    return {"identity_mod_pi": const == frac_identity(fd.size),
            "constant_term": mat_map(const, str)}


def verify_commutation(fd: FrobeniusData, n: int, gamma: GammaElement,
                       trunc: int) -> dict:
    """Check P_1 phi(G^(n)) = G^(n+1) gamma(P_1) mod pi^trunc.

    Both sides are multiplied by q * gamma(q), clearing every
    denominator: the comparison is between exact truncated rational
    series.  Integer exponents only.
    """
    _require_wach(fd)
    if not gamma.is_integer:
        raise InputError("exact check needs an integer gamma exponent")
    p = fd.ctx.p
    tower = build_M_prime(fd, n + 1)
    Gn = tower.twist(n, gamma, trunc)["G"]
    Gn1 = tower.twist(n + 1, gamma, trunc)["G"]
    qP = build_Pn(fd, 1)["qP"]
    q = q_poly(p)
    gq = gamma_act_poly(gamma, q, trunc)
    gqP = mat_map(qP, lambda e: gamma_act_poly(gamma, e, trunc))
    phi_G = mat_map(Gn, lambda e: phi_act_poly(p, e, trunc))
    lhs = pmat_mul(qP, phi_G, trunc)
    lhs = mat_map(lhs, lambda e: fpoly_mul(e, gq, trunc))
    rhs = pmat_mul(Gn1, gqP, trunc)
    rhs = mat_map(rhs, lambda e: fpoly_mul(e, q, trunc))
    diff = pmat_sub(lhs, rhs)
    mismatch = None
    for i, row in enumerate(diff):
        for j, e in enumerate(row):
            if e:
                mismatch = mismatch or {
                    "entry": (i, j),
                    "degree": next(k for k, c in enumerate(e) if c != 0),
                }
    return {"n": n, "trunc": trunc, "ok": mismatch is None,
            "mismatch": mismatch}


def verify_cocycle(fd: FrobeniusData, n: int, c1: int, c2: int,
                   trunc: int) -> dict:
    """G^(n)(gamma_1 gamma_2) = G^(n)(gamma_1) * gamma_1(G^(n)(gamma_2))."""
    _require_wach(fd)
    p = fd.ctx.p
    g1 = GammaElement(p, c1)
    g2 = GammaElement(p, c2)
    g12 = GammaElement(p, c1 * c2)
    tower = build_M_prime(fd, n)
    lhs, G1, G2 = (tower.twist(n, g, trunc)["G"] for g in (g12, g1, g2))
    moved = mat_map(G2, lambda e: gamma_act_poly(g1, e, trunc))
    rhs = pmat_mul(G1, moved, trunc)
    diff = pmat_sub(lhs, rhs)
    ok = all(not e for row in diff for e in row)
    return {"n": n, "trunc": trunc, "ok": ok}
