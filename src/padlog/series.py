"""Certified views of polynomials, truncated series and Lambda_n classes,
and the integer coefficients of Phi_{p^k}(1+X) and omega_n.

An XSeries is either an exact polynomial (trunc is None, trailing
certified-exact zero coefficients stripped) or a series known modulo
X^trunc (coefficient list padded to exactly trunc entries).  The p-adic
uncertainty of each coefficient is tracked by the scalars themselves;
trunc tracks only the X-adic uncertainty.  A LambdaNElement is a class
in Z_p[X]/(omega_n), omega_n = (1+X)^(p^n) - 1, held as its
degree-reduced representative.

The library computes and decides on linalg's integer forms and rounds
a returned value into these views once, with PadicContext.over, through
form_views or in the scalar Wach twist and the partial logarithms.  No
library path multiplies or divides views: __mul__, poly_divmod,
divide_exact and reduce_mod_omega stay only because the benchmark's
tracer names them.  They run once on the exact lifts of the
coefficients with the worst-case rules of _times and round each output
coefficient once; from_fractions serves omega and tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DenominatorBudgetExceeded,
    InputError,
    NotInImage,
    PrecisionLoss,
)
from .linalg import int_dot, int_trim, vp_frac
from .padic import INF, PadicContext, PadicScalar


class XSeries:
    __slots__ = ("ctx", "coeffs", "trunc")

    def __init__(self, ctx: PadicContext, coeffs, trunc=None):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, PadicScalar) or (c.ctx is not ctx
                                                   and c.ctx != ctx):
                raise InputError("coefficients must be scalars of the same context")
        if trunc is None:
            while coeffs and coeffs[-1].is_zero_rep and coeffs[-1].prec == INF:
                coeffs.pop()
        else:
            if not isinstance(trunc, int) or trunc < 1:
                raise InputError(f"trunc must be a positive int, got {trunc!r}")
            if len(coeffs) > trunc:
                coeffs = coeffs[:trunc]
            while len(coeffs) < trunc:
                coeffs.append(ctx.zero())
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("XSeries is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_fractions(cls, ctx, fracs, trunc=None):
        return cls(ctx, [ctx.from_rational(q) for q in fracs], trunc)

    from_ints = from_fractions

    # -- structure -----------------------------------------------------

    @property
    def is_exact_poly(self) -> bool:
        return self.trunc is None

    def coeff(self, j: int) -> PadicScalar:
        """Coefficient of X^j.  Beyond an exact polynomial's length this
        is an exact zero; at or past a finite trunc it is unknown."""
        if j < 0:
            raise InputError("negative index")
        if self.trunc is not None and j >= self.trunc:
            raise PrecisionLoss(f"coefficient {j} not known mod X^{self.trunc}")
        if j < len(self.coeffs):
            return self.coeffs[j]
        return self.ctx.zero()

    def degree(self, cutoff: int = 1) -> int:
        """Degree of the reduction, treating coefficients certified zero
        mod p^cutoff as zero.  Exact polynomials only.  Raises
        PrecisionLoss when a trailing coefficient is indeterminate, and
        returns -1 for the zero polynomial."""
        if not self.is_exact_poly:
            raise PrecisionLoss("degree of a truncated series is not defined")
        for j in range(len(self.coeffs) - 1, -1, -1):
            st = self.coeffs[j].zero_status(cutoff)
            if st == "nonzero":
                return j
            if st == "indeterminate":
                raise PrecisionLoss(
                    f"coefficient {j} has too few digits to certify zero"
                )
        return -1

    # -- arithmetic ------------------------------------------------------

    def _join_trunc(self, other):
        if self.trunc is None:
            return other.trunc
        if other.trunc is None:
            return self.trunc
        return min(self.trunc, other.trunc)

    def _check(self, other):
        if not isinstance(other, XSeries):
            raise InputError("expected an XSeries operand")
        if other.ctx != self.ctx:
            raise InputError("mixed-context series arithmetic")

    def __mul__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        self._check(other)
        t = self._join_trunc(other)
        a, b = _lifts(self), _lifts(other)
        n = max(len(a) + len(b) - 1, 0) if t is None else t
        out = []
        for j in range(n):
            terms = [_times(self.ctx, a[i], b[j - i]) for i in
                     range(max(0, j - len(b) + 1), min(j + 1, len(a)))]
            out.append(self.ctx.from_rational(
                sum(x for x, _ in terms),
                min((N for _, N in terms), default=INF)))
        return XSeries(self.ctx, out, t)

    # -- predicates / io -------------------------------------------------

    def zero_status(self, cutoff: int = 1):
        """('nonzero', j) at the first certified-nonzero coefficient;
        ('indeterminate', j) if none but some coefficient is unresolved;
        otherwise ('zero', None).  Refers only to stored coefficients."""
        witness = None
        for j, c in enumerate(self.coeffs):
            st = c.zero_status(cutoff)
            if st == "nonzero":
                return ("nonzero", j)
            if st == "indeterminate" and witness is None:
                witness = j
        if witness is not None:
            return ("indeterminate", witness)
        return ("zero", None)

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.trunc, self.coeffs))

    def __repr__(self):
        tail = "" if self.trunc is None else f" + O(X^{self.trunc})"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero_rep and c.prec == INF:
                continue
            terms.append(f"({c!r})*X^{j}" if j else f"({c!r})")
        body = " + ".join(terms) if terms else "0"
        return body + tail


def form_views(ctx: PadicContext, A, N=INF, length: int = 0):
    """The one rounding of an exact result: the integer form A = X / d as
    XSeries, each coefficient c / d rounded once at absolute precision N
    (keeping at most rel_prec digits) by one ctx.over on the integers of
    the form, each trimmed entry padded with O(p^N) zeros to length."""
    X, d = A
    X = [[int_trim(e) for e in row] for row in X]
    scalars = iter(ctx.over(d, [c for row in X for e in row for c in e], N))
    zero = ctx.zero(N)
    return [[XSeries(ctx, [next(scalars) for _ in e]
                     + [zero] * (length - len(e))) for e in row] for row in X]


# -- exact lifts: the product and long division -------------------------


def _lifts(s: XSeries):
    """Each coefficient as (x, N): its exact rational lift p^v u (0 for a
    zero representation) and the absolute precision N it is known to."""
    return [(0 if c.is_zero_rep else Fraction(c.p) ** c.v * c.u,
             c.abs_prec()) for c in s.coeffs]


def _times(ctx: PadicContext, a, b):
    """The product of two lifts (x, N), known to min(N_a + v_b, N_b + v_a)
    with each v read as min(v_p(x), N); a sum of such terms is known to
    the least N of its terms.  A nonzero product of valuation below
    -denom_budget raises."""
    (x, na), (y, nb) = a, b
    va, vb = min(vp_frac(x, ctx.p), na), min(vp_frac(y, ctx.p), nb)
    if va < na and vb < nb and va + vb < -ctx.denom_budget:
        raise DenominatorBudgetExceeded(
            f"product valuation {va + vb} below budget -{ctx.denom_budget}")
    return x * y, min(na + vb, nb + va)


def poly_divmod(f: XSeries, g: XSeries, cutoff: int = 1):
    """Long division of exact polynomials: f = q*g + r with deg r < deg g,
    where deg g reads coefficients certified zero mod p^cutoff as zero.
    It runs on exact lifts: 1/lead is known to N - 2v for a lead known
    to p^N of valuation v, every product follows _times, and each
    coefficient of q and r is rounded once."""
    if not (f.is_exact_poly and g.is_exact_poly):
        raise PrecisionLoss("polynomial division needs exact polynomials")
    f._check(g)
    dg = g.degree(cutoff)
    if dg < 0:
        raise InputError("division by the zero polynomial")
    ctx, lead = f.ctx, g.coeffs[dg]
    if lead.v > ctx.denom_budget:
        raise DenominatorBudgetExceeded(
            f"inverse valuation {-lead.v} below budget -{ctx.denom_budget}")
    rem, low = _lifts(f), _lifts(g)
    x, N = low[dg]
    inv = 1 / x, N - 2 * lead.v
    q = [(0, INF)] * max(len(rem) - dg, 0)
    for j in range(len(rem) - 1, dg - 1, -1):
        if rem[j][1] == INF:  # an exact zero
            continue
        q[j - dg] = factor = _times(ctx, rem[j], inv)
        for i, c in enumerate(low[:dg]):
            (x, N), (y, M) = rem[j - dg + i], _times(ctx, factor, c)
            rem[j - dg + i] = x - y, min(N, M)
    return (XSeries(ctx, [ctx.from_rational(*c) for c in q]),
            XSeries(ctx, [ctx.from_rational(*c) for c in rem[:dg]]))


def divide_exact(f: XSeries, g: XSeries, cutoff: int = 1) -> XSeries:
    """Exact polynomial quotient f/g.  Raises NotInImage when the
    remainder is certified nonzero and PrecisionLoss when it cannot be
    resolved at the given cutoff."""
    q, r = poly_divmod(f, g, cutoff)
    status, j = r.zero_status(cutoff)
    if status == "nonzero":
        raise NotInImage(f"division leaves certified-nonzero remainder at X^{j}")
    if status == "indeterminate":
        raise PrecisionLoss(f"remainder coefficient {j} unresolved at cutoff {cutoff}")
    return q


# -- cyclotomic levels ----------------------------------------------------


@lru_cache(maxsize=None)
def phi_cyclo_ints(p: int, k: int):
    """Integer coefficient tuple of Phi_{p^k}(1+X): the sum of
    (1+X)^(i*p^(k-1)) over 0 <= i < p, each binomial row walked by
    c_(j+1) = c_j (e - j) / (j + 1)."""
    if k < 1:
        raise InputError("phi_cyclo needs k >= 1")
    deg = (p - 1) * p ** (k - 1)
    out = [0] * (deg + 1)
    for i in range(p):
        e = i * p ** (k - 1)
        c = 1
        for j in range(e + 1):
            out[j] += c
            c = c * (e - j) // (j + 1)
    return tuple(out)


def cyclo_product_ints(p: int, levels):
    """Integer coefficients of prod_(k in levels) Phi_{p^k}(1+X)."""
    acc = [1]
    for k in levels:
        acc = int_dot([(phi_cyclo_ints(p, k), acc)])
    return acc


@lru_cache(maxsize=None)
def omega_ints(p: int, n: int):
    """Integer coefficient tuple of (1+X)^(p^n) - 1."""
    if n < 0:
        raise InputError("omega needs n >= 0")
    e = p ** n
    out = [math.comb(e, j) for j in range(e + 1)]
    out[0] -= 1
    return tuple(out)


def omega(ctx: PadicContext, n: int) -> XSeries:
    """(1+X)^(p^n) - 1, the level-n kernel polynomial."""
    return XSeries.from_fractions(ctx, omega_ints(ctx.p, n))


class LambdaNElement:
    """Class in Z_p[X]/(omega_n), held as its degree-reduced representative."""

    __slots__ = ("ctx", "level", "rep")

    def __init__(self, ctx: PadicContext, level: int, rep: XSeries):
        if level < 0:
            raise InputError("level must be >= 0")
        if not rep.is_exact_poly:
            raise InputError("representative must be an exact polynomial")
        if len(rep.coeffs) > ctx.p ** level:
            raise InputError("representative not degree-reduced")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("LambdaNElement is immutable")

    def zero_status(self, cutoff: int = 1):
        return self.rep.zero_status(cutoff)

    def __eq__(self, other):
        if not isinstance(other, LambdaNElement):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.level == other.level
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.ctx, self.level, self.rep))

    def __repr__(self):
        return f"[{self.rep!r} mod omega_{self.level}]"


def reduce_mod_omega(f: XSeries, n: int) -> LambdaNElement:
    """Reduce an exact polynomial modulo omega_n."""
    if not f.is_exact_poly:
        raise PrecisionLoss("cannot reduce a truncated series modulo omega_n")
    w = omega(f.ctx, n)
    if len(f.coeffs) <= f.ctx.p ** n:
        return LambdaNElement(f.ctx, n, f)
    _, r = poly_divmod(f, w)
    return LambdaNElement(f.ctx, n, r)

