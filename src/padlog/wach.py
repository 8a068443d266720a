"""Wach-style matrix towers over Z_p[[pi]] and their Galois twists.

The variable is written pi.  Frobenius acts by pi -> (1 + pi)^p - 1 and
the cyclotomic group element gamma_c by pi -> (1 + pi)^c - 1 with
c = 1 mod p.  With q = Phi_p(1 + pi) one has phi^{k-1}(q) =
Phi_{p^k}(1 + pi), and the level-k connection matrix is

    P_k = C * diag(I_{fil}, (1 / phi^{k-1}(q)) I)

whose inverse diag(I_{fil}, phi^{k-1}(q) I) * C^{-1} is an honest
polynomial matrix, the C_k of logmatrix.  The tower approximants

    M'_n = C_phi^n * P_n^{-1} * ... * P_1^{-1} = C_phi^n * C_n * ... * C_1

are read off the instance's exact tower (logmatrix.ExactTower), which
also gives M_n = C_phi * M'_n, as integer forms (N, d), the exact
polynomial type of linalg.  They are exact polynomial matrices with
M'_n(0) = I, congruent to each other modulo (1 + pi)^{p^n} - 1, and
they satisfy M'_n = C_phi * phi(M'_{n-1}) * P_1^{-1}, since phi carries
C_k to C_{k+1}; the tests check that identity, the library does not
run it.  The twist of gamma by the tower,

    G^(n) = (M'_n)^{-1} * gamma(M'_n),

is computed modulo a chosen power pi^T.  A substitution f(g) with
g(0) = 0 depends only on f mod pi^T, so every substitution that feeds a
truncated result is truncated from the start: f is cut to T terms,
g = (1 + pi)^c - 1 mod pi^T comes straight from the binomial
coefficients, and f(g) is the integer numerators of f times one integer
matrix whose row k is g^k mod pi^T, formed once per twist.  The cost of
a twist therefore does not depend on the size of c.  M'_n = N / d is
cut to pi^T first and its inverse mod pi^T is d adj(N) times the series
inverse, an integer recurrence, of det N, read off adj(N).  Every stage,
the product with gamma(M'_n) and the checks run on integer forms, and
only an exact G is formed as Fractions, once.  The twist is exact
for both kinds of exponent: a PadicScalar c known mod p^N runs on its
lift, and each coefficient is then rounded once to the digits that
every lift of c shares.  The twist must come out p-integral and
congruent to I mod pi, and these claims are verified rather than
assumed.

The commutation relation linking consecutive levels,

    P_1 * phi(G^(n)) = G^(n+1) * gamma(P_1),

is checked with denominators cleared: both sides are multiplied by
q * gamma(q), turning the identity into one between polynomial-by-
truncated-series products that are compared as integer forms.
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
    form_at_zero,
    form_depth,
    form_mul,
    form_sub,
    form_to_fractions,
    form_witness,
    int_dot,
    int_trim,
)
from .logmatrix import FrobeniusData, _diagonal, _stabilizes
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
            if (c.valuation() < 0 or c.abs_prec() < 1
                    or (c.lift() - 1) % p):
                raise InputError("gamma exponent must be certified 1 mod p")
        elif not isinstance(c, int) or isinstance(c, bool):
            raise InputError("gamma exponent must be an int or a PadicScalar")
        elif c < 1 or c % p != 1:
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
# exact polynomial layer (integer numerators of integer forms, [] = zero)
# ---------------------------------------------------------------------------


def _binom_shift(e: int, T=None):
    """(1 + pi)^e - 1 as an integer polynomial in pi, mod pi^T when T is
    given."""
    top = e if T is None else min(e, T - 1)
    return int_trim([0] + [math.comb(e, k) for k in range(1, top + 1)])


def _power_matrix(g, rows: int, T: int):
    """The rows g^k mod pi^T for k < rows: the substitution pi -> g as an
    integer matrix, for g with integer coefficients and g(0) = 0."""
    if g and g[0] != 0:
        raise InputError("substitution requires zero constant term")
    S = [[1]]
    for _ in range(1, rows):
        S.append(int_dot([(S[-1], g)], T))
    return S


def _substitute(f, S, T):
    """f(g) mod pi^T: the coefficients of f times the power matrix S of
    g.  The library passes integer numerators; rational coefficients
    give a rational result."""
    return int_trim(int_dot((([a], row) for a, row in zip(f, S) if a), T))


def _pcompose(f, g, T=None):
    """f(g(pi)) for g with integer coefficients and g(0) = 0, mod pi^T
    when T is given, else to full degree.  As g^k is divisible by pi^k,
    only f mod pi^T and the powers g^k with k < T matter."""
    if T is None:
        T = (len(f) - 1) * max(len(g) - 1, 0) + 1
    return _substitute(f, _power_matrix(g, min(len(f), T), T), T)


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


def _act(act, A):
    """The integer form A with act applied to each entry's numerator."""
    N, d = A
    return [[act(e) for e in row] for row in N], d


def _padj(A, T: int):
    """Adjugate mod pi^T of a square matrix of integer polynomials."""
    d = len(A)
    if d == 1:
        return [[[1]]]
    minors = [[cofactor_det([row[:j] + row[j + 1:]
                             for r, row in enumerate(A) if r != i], T)
               for i in range(d)] for j in range(d)]
    return [[[-c for c in e] if (i + j) % 2 else e for i, e in enumerate(row)]
            for j, row in enumerate(minors)]


def _pseries_inv(F, T: int):
    """(H, c^T): the inverse mod pi^T (T >= 1) of the integer polynomial
    F with c = F[0] != 0 is H / c^T.  Coefficient k of 1/F is
    h_k / c^(k+1) for the integers h_0 = 1 and
    h_k = -sum_(j<k) h_j c^(k-1-j) F[k-j], so H_k = h_k c^(T-1-k)."""
    if not F or F[0] == 0:
        raise InputError("series inverse needs a nonzero constant term")
    c = F[0]
    h, cpow = [1], [1]
    for k in range(1, T):
        cpow.append(cpow[-1] * c)
        h.append(-sum(h[j] * cpow[k - 1 - j] * F[k - j]
                      for j in range(max(0, k - len(F) + 1), k)))
    return (int_trim([x * y for x, y in zip(h, reversed(cpow))]),
            c ** len(cpow))


def _constant_term(A):
    """The value at zero of the integer form A, as strings."""
    return [[str(e[0]) if e else "0" for e in row]
            for row in form_to_fractions(form_at_zero(A))]


# ---------------------------------------------------------------------------
# tower construction
# ---------------------------------------------------------------------------


def _require_wach(fd: FrobeniusData) -> None:
    if fd.r != 1:
        raise InputError("the tower is implemented for r = 1 only")


def _qP(fd: FrobeniusData, q):
    """C diag(q I, I) as an integer form, for an integer polynomial q."""
    N, d = fd.tower.frob
    return [[int_dot([(q, e)]) if j < fd.fil_dim else e
             for j, e in enumerate(row)] for row in N], d


def build_Pn(fd: FrobeniusData, n: int) -> dict:
    """The level-n connection data.

    Returns the exact polynomial inverse ``P_inv`` =
    diag(I, phi^{n-1}(q) I) C^{-1}, the cleared form ``qP`` =
    C diag(phi^{n-1}(q) I, I) with q_n P_n = qP, both as matrices of
    Fraction polynomials, and the scalar polynomial ``q_n`` =
    phi^{n-1}(q) = Phi_{p^n}(1 + pi) itself, with integer coefficients.
    """
    _require_wach(fd)
    if n < 1:
        raise InputError("n must be at least 1")
    qn = list(phi_cyclo_ints(fd.ctx.p, n))
    return {"P_inv": form_to_fractions(fd.tower.C(n)),
            "qP": form_to_fractions(_qP(fd, qn)), "q_n": qn}


class WachMatrixTower:
    """Exact polynomial approximants M'_1, ..., M'_n for one instance,
    held as integer forms (levels[k - 1] is M'_k)."""

    __slots__ = ("fd", "n", "levels")

    def __init__(self, fd: FrobeniusData, n: int, levels):
        self.fd = fd
        self.n = n
        self.levels = levels

    def _level(self, k: int):
        if not 1 <= k <= self.n:
            raise InputError(f"level must be in 1..{self.n}")
        return self.levels[k - 1]

    def matrix(self, k: int):
        """M'_k as a matrix of Fraction polynomials."""
        return form_to_fractions(self._level(k))

    def value_at_zero_is_identity(self, k: int) -> bool:
        return form_at_zero(self._level(k)) == self.fd.tower.P(0)

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
        T - 1 it raises PrecisionExhausted.  G is an integer form, read
        as Fractions (exact c) or with one PadicContext.over a degree.
        """
        T = trunc
        G, bad, const_ok, depth = self._twist(k, gamma, T)
        if gamma.is_integer:
            return {"G": form_to_fractions(G), "exact": True, "trunc": T,
                    "n": k}
        N = gamma.c.abs_prec() + depth
        p = self.fd.ctx.p
        # less floor(log_p j), read as 0 at j = 0
        Ns = [N - next(e for e in range(T) if p ** (e + 1) > j)
              for j in range(T)]
        if Ns[-1] < 1:
            raise PrecisionExhausted(
                f"c has too few digits to certify G at degree {T - 1}")
        ctx, (X, d) = self.fd.ctx, G
        entries = [e + [0] * (T - len(e)) for row in X for e in row]
        views = iter(zip(*(ctx.over(d, [e[j] for e in entries], Nj)
                           for j, Nj in enumerate(Ns))))
        G = [[XSeries(ctx, next(views), T) for _ in row] for row in X]
        # every N_j >= 1, so the rounded G is integral with constant
        # term I exactly when the exact one is
        return {"G": G, "exact": False, "trunc": T, "n": k,
                "integral": bad is None,
                "constant_is_identity": const_ok,
                "witness": bad and (*bad["entry"], bad["degree"])}

    def _twist(self, k: int, gamma: GammaElement, T: int):
        """(G, bad, const_ok, depth): G^(k) mod pi^T as an integer form,
        its first non p-integral coefficient (None if there is none),
        whether G(0) = I, and d_M + d_inv for a scalar exponent (0 for an
        integer one, which raises IntegralityViolation on a bad G).

        M = N / d is cut to pi^T and M^-1 = d adj(N) / det N, with det N =
        N[0] . (column 0 of adj N) and 1 / det N = H / den (_pseries_inv)."""
        if T < 1:
            raise InputError("trunc must be positive")
        N, d = self._level(k)
        N = [[int_trim(e[:T]) for e in row] for row in N]
        size = self.fd.size
        adj = _padj(N, T)
        det = int_trim(int_dot(zip(N[0], [row[0] for row in adj]), T))
        if not det or det[0] != d ** size:
            raise InputError("tower determinant must have constant term 1")
        H, den = _pseries_inv(det, T)
        Minv = form_mul((adj, 1),
                        _diagonal([[d * h for h in H]] * size, den), T)
        c = gamma.c if gamma.is_integer else gamma.c.lift()
        S = _power_matrix(_binom_shift(c, T), T, T)
        G = form_mul(Minv, _act(lambda e: _substitute(e, S, T), (N, d)), T)
        p = self.fd.ctx.p
        bad = form_witness(G, p, 0)  # the first non p-integral coefficient
        if bad:
            i, j, k = bad
            bad = {"entry": (i, j), "degree": k,
                   "value": str(Fraction(G[0][i][j][k], G[1]))}
        const_ok = form_at_zero(G) == self.fd.tower.P(0)
        if not gamma.is_integer:
            depth = form_depth((N, d), p) + form_depth(Minv, p)
            return G, bad, const_ok, depth
        if bad is not None:
            raise IntegralityViolation(
                "twist has a non p-integral coefficient", witness=bad)
        if not const_ok:
            raise IntegralityViolation(
                "twist is not congruent to I mod pi",
                witness={"constant_term": _constant_term(G)})
        return G, None, True, 0


def build_M_prime(fd: FrobeniusData, n: int) -> WachMatrixTower:
    """The tower up to level n, M'_k = C_phi^k * C_k ... C_1, read off
    the instance's exact tower."""
    _require_wach(fd)
    if n < 1:
        raise InputError("n must be at least 1")
    return WachMatrixTower(fd, n, [fd.tower.M_prime(k)
                                   for k in range(1, n + 1)])


def verify_tower_congruence(tower: WachMatrixTower, m: int, n: int) -> bool:
    """Whether M'_m = M'_n modulo (1 + pi)^{p^n} - 1, exactly, by the
    remainder check of verify_stabilization."""
    if not 1 <= n <= m <= tower.n:
        raise InputError("need 1 <= n <= m <= built level")
    return _stabilizes(tower.fd.ctx.p, n, tower.levels[n - 1],
                       tower.levels[m - 1])


# ---------------------------------------------------------------------------
# the gamma twist
# ---------------------------------------------------------------------------


def build_G_gamma(fd: FrobeniusData, n: int, gamma: GammaElement,
                  trunc: int) -> dict:
    """G^(n) = (M'_n)^{-1} gamma(M'_n) mod pi^trunc; see
    WachMatrixTower.twist."""
    return build_M_prime(fd, n).twist(n, gamma, trunc)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def verify_p1_twist(fd: FrobeniusData, gamma: GammaElement,
                    trunc: int) -> dict:
    """P_1 gamma(P_1^{-1}) must be congruent to I mod pi.

    Computed exactly for integer exponents as (1/q) * qP_1 *
    gamma(P_1^{-1}) mod pi^min(trunc, 1), as only its constant term
    C diag(I, gamma(q)(0) / q(0)) C^{-1} is read.  That is I by
    construction, so the check guards C_1 and the substitution, not the
    input; a trunc below 1 leaves a zero product (False).
    """
    _require_wach(fd)
    if not gamma.is_integer:
        raise InputError("exact check needs an integer gamma exponent")
    T = min(trunc, 1)
    q = phi_cyclo_ints(fd.ctx.p, 1)
    moved = _act(lambda e: gamma_act_poly(gamma, e, T), fd.tower.C(1))
    inv, den = _pseries_inv(q, T)
    prod = form_mul(form_mul(_qP(fd, q), moved, T),
                    _diagonal([inv] * fd.size, den), T)
    return {"identity_mod_pi": form_at_zero(prod) == fd.tower.P(0),
            "constant_term": _constant_term(prod)}


def verify_commutation(fd: FrobeniusData, n: int, gamma: GammaElement,
                       trunc: int) -> dict:
    """Check P_1 phi(G^(n)) = G^(n+1) gamma(P_1) mod pi^trunc.

    Both sides are multiplied by q * gamma(q), clearing every
    denominator: the comparison is between exact truncated series, as
    integer forms.  Integer exponents only.
    """
    _require_wach(fd)
    if not gamma.is_integer:
        raise InputError("exact check needs an integer gamma exponent")
    p = fd.ctx.p
    tower = build_M_prime(fd, n + 1)
    Gn = tower._twist(n, gamma, trunc)[0]
    Gn1 = tower._twist(n + 1, gamma, trunc)[0]
    q = phi_cyclo_ints(p, 1)
    qP = _qP(fd, q)
    gq = gamma_act_poly(gamma, q, trunc)
    gqP = _act(lambda e: gamma_act_poly(gamma, e, trunc), qP)
    phi_G = _act(lambda e: phi_act_poly(p, e, trunc), Gn)
    lhs = form_mul(form_mul(qP, phi_G, trunc), _diagonal([gq] * fd.size, 1),
                   trunc)
    rhs = form_mul(form_mul(Gn1, gqP, trunc), _diagonal([q] * fd.size, 1),
                   trunc)
    mismatch = form_witness(form_sub(lhs, rhs), p)
    if mismatch:
        mismatch = {"entry": mismatch[:2], "degree": mismatch[2]}
    return {"n": n, "trunc": trunc, "ok": mismatch is None,
            "mismatch": mismatch}


def verify_cocycle(fd: FrobeniusData, n: int, c1: int, c2: int,
                   trunc: int) -> dict:
    """G^(n)(gamma_1 gamma_2) = G^(n)(gamma_1) * gamma_1(G^(n)(gamma_2)),
    compared as canonical integer forms."""
    _require_wach(fd)
    p = fd.ctx.p
    g1 = GammaElement(p, c1)
    g2 = GammaElement(p, c2)
    g12 = GammaElement(p, c1 * c2)
    tower = build_M_prime(fd, n)
    lhs, G1, G2 = (tower._twist(n, g, trunc)[0] for g in (g12, g1, g2))
    moved = _act(lambda e: gamma_act_poly(g1, e, trunc), G2)
    return {"n": n, "trunc": trunc,
            "ok": lhs == form_mul(G1, moved, trunc)}
