"""Certified p-adic floating-point scalars.

A nonzero scalar is stored as p^v * u + O(p^(v+k)) with v an integer,
u a unit mantissa in [1, p^k), and k the number of certified mantissa
digits.  A zero representation carries only an absolute precision N
(possibly infinite) and stands for an element of p^N Z_p.

Every nonzero construction checks the denominator budget: a valuation
below -denom_budget raises instead of silently growing denominators.

Scalars have no arithmetic.  They are the rounded coefficients of the
views in padlog.series: verdicts are decided on linalg's exact integer
forms, and PadicContext.over makes every returned view (c / d for an
integer form, on integers, with no Fraction); its one-scalar case
from_rational also rounds the series product and long division, which
run on exact lifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DenominatorBudgetExceeded, InputError

INF = float("inf")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    f = 41
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PadicContext:
    """Arithmetic context: the odd prime, relative precision, and the
    bound on how deep denominators may go."""

    p: int
    rel_prec: int = 20
    denom_budget: int = 20

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 3 or not _is_prime(self.p):
            raise InputError(f"p must be an odd prime, got {self.p!r}")
        if self.rel_prec < 1:
            raise InputError(f"rel_prec must be >= 1, got {self.rel_prec}")
        if self.denom_budget < 0:
            raise InputError(f"denom_budget must be >= 0, got {self.denom_budget}")

    # -- factories ---------------------------------------------------

    def valuation_of_integer(self, n: int):
        """Split n as p^v * u with u prime to p.  Returns (v, u); the
        zero integer maps to (INF, None)."""
        if n == 0:
            return (INF, None)
        v = 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return (v, n)

    def zero(self, abs_prec=INF) -> "PadicScalar":
        """The zero representation O(p^abs_prec); exact by default."""
        return PadicScalar(self, INF, None, abs_prec)

    def integer(self, n: int) -> "PadicScalar":
        """Embed an exact integer at full relative precision."""
        return self.from_rational(n)

    def one(self) -> "PadicScalar":
        return self.integer(1)

    def from_rational(self, value, abs_prec=INF) -> "PadicScalar":
        """Embed a rational (Fraction, int, or num/den pair) known modulo
        p^abs_prec, exact by default, keeping at most rel_prec digits.
        A value that vanishes modulo p^abs_prec is O(p^abs_prec)."""
        if isinstance(value, tuple):
            value = Fraction(value[0], value[1])
        elif not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        if not value:
            return self.zero(abs_prec)
        return self.over(value.denominator, [value.numerator], abs_prec)[0]

    def over(self, d: int, nums, abs_prec=INF):
        """[from_rational(Fraction(c, d), abs_prec) for c in nums], d > 0,
        on integers: with d = p^vd ud, c / d is p^v u, v = v_p(c) - vd,
        k = min(rel_prec, abs_prec - v) (O(p^abs_prec) if k <= 0) and
        u = (c / p^v_p(c)) ud^-1 mod p^k, ud^-1 found once per k; a
        factor common to c and d changes neither v nor u."""
        p, zero, inverses, out = self.p, None, {}, []
        vd, ud = self.valuation_of_integer(d)
        for c in nums:
            v = -vd
            while c and c % p == 0:
                c //= p
                v += 1
            k = min(self.rel_prec, abs_prec - v) if c else 0
            if k <= 0:
                zero = zero or self.zero(abs_prec)
                out.append(zero)
                continue
            if k not in inverses:
                mod = p ** k
                inverses[k] = mod, pow(ud, -1, mod)
            mod, inv = inverses[k]
            out.append(PadicScalar(self, v, c * inv % mod, k))
        return out


class PadicScalar:
    """One certified p-adic number tied to a PadicContext.

    Instances are immutable.  Equality is representation equality:
    same context parameters, same (v, u, prec) triple.
    """

    __slots__ = ("ctx", "v", "u", "prec")

    def __init__(self, ctx: PadicContext, v, u, prec):
        if u is None:
            if v != INF:
                raise InputError("zero representation requires v = INF")
            if prec != INF and (not isinstance(prec, int)):
                raise InputError("zero precision must be int or INF")
        else:
            if not isinstance(v, int) or not isinstance(u, int):
                raise InputError("nonzero scalar needs integer v and u")
            if not isinstance(prec, int) or prec < 1:
                raise InputError("nonzero scalar needs prec >= 1")
            if prec > ctx.rel_prec:
                raise InputError("prec exceeds context rel_prec")
            if not (1 <= u < ctx.p ** prec) or u % ctx.p == 0:
                raise InputError("mantissa must be a reduced unit")
            if v < -ctx.denom_budget:
                raise DenominatorBudgetExceeded(
                    f"valuation {v} below budget -{ctx.denom_budget}"
                )
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("PadicScalar is immutable")

    # -- structure ---------------------------------------------------

    @property
    def is_zero_rep(self) -> bool:
        return self.u is None

    def valuation(self):
        """Exact valuation for nonzero; INF for a zero representation."""
        return self.v

    def abs_prec(self):
        """The exponent N with value known modulo p^N."""
        if self.is_zero_rep:
            return self.prec
        return self.v + self.prec

    def zero_status(self, cutoff: int = 1) -> str:
        """Three-valued test: 'nonzero', 'zero' (certified divisible by
        p^cutoff), or 'indeterminate' (too few digits to tell)."""
        if not self.is_zero_rep:
            return "nonzero"
        if self.prec >= cutoff:
            return "zero"
        return "indeterminate"

    def lift(self) -> int:
        """Smallest non-negative integer representative p^v * u; requires
        v >= 0.  Zero representations lift to 0."""
        if self.is_zero_rep:
            return 0
        if self.v < 0:
            raise InputError("cannot lift a scalar with negative valuation")
        return self.p ** self.v * self.u

    @property
    def p(self) -> int:
        return self.ctx.p

    # -- comparison / io ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.v == other.v
            and self.u == other.u
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.ctx, self.v, self.u, self.prec))

    def __repr__(self):
        if self.is_zero_rep:
            tag = "exact" if self.prec == INF else f"prec {self.prec}"
            return f"0 ({tag})"
        return f"{self.p}^{self.v} * {self.u} (prec {self.prec})"

    def to_record(self):
        if self.is_zero_rep:
            prec = "inf" if self.prec == INF else self.prec
            return {"v": "inf", "u": None, "prec": prec}
        return {"v": self.v, "u": str(self.u), "prec": self.prec}

    @classmethod
    def from_record(cls, ctx: PadicContext, rec) -> "PadicScalar":
        try:
            v, u, prec = rec["v"], rec["u"], rec["prec"]
            if v == "inf":
                return ctx.zero(INF if prec == "inf" else int(prec))
            return cls(ctx, int(v), int(u), int(prec))
        except (TypeError, KeyError, ValueError) as exc:
            raise InputError(f"bad scalar record {rec!r}") from exc
