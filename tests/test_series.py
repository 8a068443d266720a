"""Series and quotient-ring arithmetic: truncation rules, exact
division, cyclotomic identities.

The outcomes of 200 seeded products and divisions are pinned in
tests/golden/series/arith.json.  To rewrite that file from the current
code, run from the repository root:

    PYTHONPATH=src python tests/test_series.py
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog import (
    INF,
    DenominatorBudgetExceeded,
    InputError,
    NotInImage,
    PadicContext,
    PadlogError,
    PrecisionLoss,
    XSeries,
    divide_exact,
    omega,
    poly_divmod,
    reduce_mod_omega,
)
from padlog.series import (
    LambdaNElement,
    form_views,
    omega_ints,
    phi_cyclo_ints,
)

from oracles import (
    agree_mod_precision,
    known_sum,
    matches_rational,
    omega_oracle,
    padd,
    pdivmod,
    phi_oracle,
    pmul,
    ptrim,
    vp_rational,
)

CTX = PadicContext(3, rel_prec=20, denom_budget=24)
CTX5 = PadicContext(5, rel_prec=16, denom_budget=20)


def embed(ints, trunc=None):
    return XSeries.from_ints(CTX, ints, trunc)


def agrees(f, want):
    """The series f agrees with want (exact rationals or coefficients
    of another series) wherever both are known."""
    return agree_mod_precision(f.coeffs, want, CTX.p)


def test_exact_polynomials_strip_trailing_zeros():
    f = embed([1, 2, 0, 0])
    assert len(f.coeffs) == 2
    assert f.degree() == 1


def test_truncated_series_pad_to_length():
    f = embed([1], trunc=4)
    assert len(f.coeffs) == 4
    assert f.coeff(3).is_zero_rep
    with pytest.raises(PrecisionLoss):
        f.coeff(4)


def test_min_trunc_rule():
    f = embed([1, 1], trunc=5)
    g = embed([0, 2], trunc=3)
    assert (f * g).trunc == 3
    assert (f * embed([1, 1])).trunc == 5


def test_degree_needs_resolution():
    f = XSeries(CTX, [CTX.integer(1), CTX.zero(abs_prec=0)], None)
    with pytest.raises(PrecisionLoss):
        f.degree()


def test_phi_cyclo_frozen_p3():
    assert phi_cyclo_ints(3, 1) == (3, 3, 1)
    assert omega_ints(3, 1) == (0, 3, 3, 1)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_phi_cyclo_matches_division_oracle(p, k):
    assert list(phi_cyclo_ints(p, k)) == phi_oracle(p, k)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 5), (3, 6), (5, 1), (5, 4),
                                 (7, 3)])
def test_phi_cyclo_matches_the_binomial_sum(p, k):
    # the sum of the binomial rows of (1+X)^(i p^(k-1)), i < p, computed
    # afresh with math.comb
    phi_cyclo_ints.cache_clear()
    deg = (p - 1) * p ** (k - 1)
    want = [sum(math.comb(i * p ** (k - 1), j) for i in range(p))
            for j in range(deg + 1)]
    assert list(phi_cyclo_ints(p, k)) == want


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_omega_factors_through_cyclotomics(p, n):
    # omega_n = X * prod_{k <= n} Phi_{p^k}
    prod = [Fraction(0), Fraction(1)]
    for k in range(1, n + 1):
        prod = pmul(prod, phi_oracle(p, k))
    assert prod == [Fraction(c) for c in omega_oracle(p, n)]
    assert ptrim(list(omega_ints(p, n))) == [c for c in omega_oracle(p, n)]


def test_poly_divmod_exact():
    f = embed([0, 3, 3, 1])              # omega_1
    g = embed([3, 3, 1])                 # phi_1
    q, r = poly_divmod(f, g)
    assert q.degree() == 1
    status, _ = r.zero_status()
    assert status == "zero"
    # q g + r = f, with the product formed by the library
    assert agree_mod_precision(known_sum((q * g).coeffs, r.coeffs, 3),
                               [0, 3, 3, 1], 3)


def test_divide_exact_raises_on_nonmultiple():
    f = embed([1])
    g = embed([3, 3, 1])
    with pytest.raises(NotInImage):
        divide_exact(f, g)


def test_divide_exact_recovers_factor():
    g = embed(phi_cyclo_ints(3, 1))
    h = embed([2, 0, 1, 5])
    q = divide_exact(g * h, g)
    assert agrees(q, [2, 0, 1, 5])


def test_lambda_reduction_matches_long_division():
    f = embed([1, 0, 0, 2, 0, 0, 1])  # degree 6 at level 1 (p^1 = 3)
    elem = reduce_mod_omega(f, 1)
    assert elem.level == 1
    q, r = poly_divmod(f, omega(CTX, 1))
    assert agrees(elem.rep, r.coeffs)
    assert agrees(elem.rep, pdivmod([1, 0, 0, 2, 0, 0, 1],
                                    omega_oracle(3, 1))[1])


def test_phi_divides_class_iff_poly_divides():
    phi = embed(phi_cyclo_ints(3, 1))
    g = embed([1, 2, 0, 1])
    multiple = reduce_mod_omega(phi * g, 1)
    back = divide_exact(multiple.rep, phi)
    assert back.degree() <= 0 or back.degree() >= 0  # division succeeded
    nonmult = reduce_mod_omega(embed([1]), 1)
    with pytest.raises(NotInImage):
        divide_exact(nonmult.rep, phi)


small_polys = st.lists(
    st.integers(min_value=-20, max_value=20), min_size=0, max_size=6
)


@settings(max_examples=80, deadline=None)
@given(small_polys, small_polys)
def test_mul_commutes(a, b):
    f, g = embed(a), embed(b)
    assert agrees(f * g, (g * f).coeffs)
    assert agrees(f * g, pmul(a, b))


@settings(max_examples=80, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_mul_distributes(a, b, c):
    f, g, h = embed(a), embed(b), embed(c)
    lhs = f * embed(padd(b, c))
    rhs = known_sum((f * g).coeffs, (f * h).coeffs, CTX.p)
    assert agrees(lhs, rhs)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_divmod_recomposition(a, b):
    g = embed(b)
    if g.zero_status()[0] == "zero":
        return
    f = embed(a)
    q, r = poly_divmod(f, g)
    assert agrees(embed(a), known_sum((q * g).coeffs, r.coeffs, CTX.p))


# -- the worst-case rules of the product and long division ----------------

SHORT = PadicContext(3, rel_prec=5, denom_budget=10)


def test_product_sum_is_known_to_its_least_precise_term():
    # 1/3 + 1, the coefficient of X in [1/3, 1] * [1, 1]: 1/3 is known
    # to p^19 only
    c = (XSeries.from_fractions(CTX, [Fraction(1, 3), 1]) * embed([1, 1])
         ).coeffs[1]
    assert c.v == -1
    assert c.abs_prec() == 19


def test_product_cancellation_leaves_a_certified_zero():
    c = (embed([7, 7]) * embed([1, -1])).coeffs[1]
    assert c.is_zero_rep and c.prec == 20
    assert c.zero_status(cutoff=20) == "zero"
    assert c.zero_status(cutoff=21) == "indeterminate"


def test_product_reads_a_zero_factor_at_its_precision():
    # O(p^4) * 1/9 is O(p^2), and O(p^3) * O(p^4) is O(p^7), not exact
    for a, b, N in ((CTX.zero(4), CTX.from_rational(Fraction(1, 9)), 2),
                    (CTX.zero(3), CTX.zero(4), 7)):
        (c,) = (XSeries(CTX, [a]) * XSeries(CTX, [b])).coeffs
        assert c.is_zero_rep and c.prec == N


def test_division_by_two_gives_the_frozen_inverse():
    # 1/2 = (3^5 + 1)/2 mod 3^5 = 122
    (c,) = divide_exact(XSeries.from_ints(SHORT, [1]),
                        XSeries.from_ints(SHORT, [2])).coeffs
    assert (c.v, c.u, c.prec) == (0, 122, 5)
    assert matches_rational(c, Fraction(1, 2))


def test_inverse_of_the_lead_is_known_to_N_minus_2v():
    # 1/(3 + O(3^3)) = 3^-1 (1 + O(3^2)), and 1/(1/3) = 3 known to 3^6
    one = XSeries.from_ints(SHORT, [1])
    for lead, want in ((SHORT.from_rational(3, 3), (-1, 1, 2)),
                       (SHORT.from_rational(Fraction(1, 3)), (1, 1, 5))):
        q, r = poly_divmod(one, XSeries(SHORT, [lead]))
        assert _triples(q) == [want] and r.coeffs == ()


def test_budget_holds_on_intermediate_products_and_the_inverse():
    ctx = PadicContext(3, rel_prec=5, denom_budget=1)
    third = ctx.from_rational(Fraction(1, 3))
    # 1/3 * 1/3 has valuation -2, though the O(3^-2) beside it would
    # absorb it: in a product, and in the remainder of a long division
    low = XSeries(ctx, [ctx.zero(-1), third], trunc=2)
    for run in (lambda: low * XSeries(ctx, [third, third]),
                lambda: poly_divmod(XSeries(ctx, [ctx.zero(-2), third]),
                                    XSeries(ctx, [third, ctx.one()]))):
        with pytest.raises(DenominatorBudgetExceeded,
                           match="product valuation -2 below budget -1"):
            run()
    # a lead of valuation 2 has an inverse of valuation -2, refused
    # before any step, even when f is shorter than g
    with pytest.raises(DenominatorBudgetExceeded,
                       match="inverse valuation -2 below budget -1"):
        poly_divmod(XSeries.from_ints(ctx, [1]),
                    XSeries.from_ints(ctx, [1, 9]))


def _rounded(ctx, q, N):
    """(v, u, prec) of the rational q known modulo p^N by the Fraction
    rule: v = v_p(q), k = min(rel_prec, N - v) and u the unit part of q
    mod p^k; O(p^N) when q = 0 or k <= 0."""
    p = ctx.p
    if q == 0:
        return (INF, None, N)
    v = vp_rational(q, p)
    k = min(ctx.rel_prec, N - v)
    if k <= 0:
        return (INF, None, N)
    unit, mod = q / Fraction(p) ** v, p ** k
    return (v, unit.numerator * pow(unit.denominator, -1, mod) % mod, k)


def _triples(xs):
    return [(c.v, c.u, c.prec) for c in xs.coeffs]


def test_form_views_round_each_coefficient_as_from_rational():
    # zero entries and coefficients, negative coefficients, trailing
    # zeros, content shared with d, d divisible by p^j for every j up to
    # the budget, exact and finite N (N <= v gives O(p^N)) and padding
    rng = random.Random(29)
    seen = set()
    for p in (3, 5):
        ctx = PadicContext(p, rel_prec=6, denom_budget=5)
        for _ in range(150):
            j = rng.randint(0, ctx.denom_budget)
            d = p ** j * rng.choice((1, 2, 4, 7, 8))
            seen.add(("depth", j))
            X = [[[rng.choice((0, 1, -1, 2, -7, 10 ** 9 + 7))
                   * p ** rng.randint(0, 9) * rng.choice((1, 2, 7))
                   for _ in range(rng.randint(0, 5))]
                  for _ in range(rng.randint(1, 3))]
                 for _ in range(rng.randint(1, 3))]
            N = rng.choice((INF, rng.randint(-7, 12)))
            length = rng.choice((0, 4, 8))
            want = []
            for row in X:
                want.append([])
                for e in row:
                    t = ptrim(list(e))
                    qs = [Fraction(c, d) for c in t]
                    exp = ([_rounded(ctx, q, N) for q in qs]
                           + [(INF, None, N)] * (length - len(t)))
                    while N == INF and exp and exp[-1] == (INF, None, INF):
                        exp.pop()
                    ref = XSeries(ctx, [ctx.from_rational(q, N) for q in qs]
                                  + [ctx.zero(N)] * (length - len(t)))
                    want[-1].append((exp, ref))
                    for c, q in zip(t, qs):
                        seen.add("negative" if c < 0 else
                                 "zero" if c == 0 else "positive")
                        if q and N != INF and N <= vp_rational(q, p):
                            seen.add("N <= v")
                        if q and q.denominator != d:
                            seen.add("shared content")
                    seen.add("padded" if length > len(t) else "unpadded")
            got = form_views(ctx, (X, d), N, length)
            assert [len(row) for row in got] == [len(row) for row in want]
            for view_row, want_row in zip(got, want):
                for view, (exp, ref) in zip(view_row, want_row):
                    assert _triples(view) == exp
                    assert view == ref
    assert seen >= {"negative", "zero", "positive", "N <= v", "padded",
                    "unpadded", "shared content",
                    *(("depth", j) for j in range(6))}


def test_rounding_keeps_the_denominator_budget():
    ctx = PadicContext(3, rel_prec=6, denom_budget=5)
    assert _triples(form_views(ctx, ([[[1, 3]]], 3 ** 5))[0][0]) == [
        (-5, 1, 6), (-4, 1, 6)]
    for rounding in (lambda: form_views(ctx, ([[[3, 1]]], 3 ** 6)),
                     lambda: ctx.from_rational(Fraction(1, 3 ** 6))):
        with pytest.raises(DenominatorBudgetExceeded):
            rounding()


def test_form_views_make_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    A = ([[[1, -3, 9, 0], []], [[0, 2], [5]]], 18)
    for N, length in ((INF, 0), (4, 6), (-1, 3)):
        views = form_views(CTX, A, N, length)
        assert len(views) == 2
    assert made == []


# -- pinned products and divisions -----------------------------------------

ARITH_GOLDEN = (Path(__file__).resolve().parent / "golden" / "series"
                / "arith.json")


def _random_coefficient(ctx, rng):
    """An exact zero, an O(p^N) zero, or a rational of valuation down to
    -denom_budget, embedded exactly or known modulo p^N (which may leave
    an O(p^N) zero)."""
    p, kind = ctx.p, rng.randrange(8)
    if kind == 0:
        return ctx.zero()
    if kind == 1:
        return ctx.zero(rng.randint(-ctx.denom_budget, 6))
    v = rng.randint(-ctx.denom_budget, 3)
    value = Fraction(p) ** v * rng.randint(-p ** 4, p ** 4)
    if kind < 5:
        return ctx.from_rational(value)
    return ctx.from_rational(value, v + rng.randint(-1, ctx.rel_prec))


def _random_series(ctx, rng, length, trunc=None):
    return XSeries(ctx, [_random_coefficient(ctx, rng)
                         for _ in range(rng.randint(0, length))], trunc)


def _random_divisor(ctx, rng):
    """An exact polynomial, most often with a nonzero top coefficient of
    valuation in [-denom_budget, denom_budget + 1]."""
    p, low = ctx.p, _random_series(ctx, rng, 3).coeffs
    if rng.randrange(5):
        e = rng.randint(-ctx.denom_budget, ctx.denom_budget + 1)
        lead = ctx.from_rational(Fraction(p) ** e * rng.choice((1, 2, -1, 4)))
        low += (lead,) + (ctx.zero(rng.randint(-1, 3)),) * rng.randrange(2)
    return XSeries(ctx, low)


def arith_cases(rng, count, rel_precs, budgets):
    """count seeded runs, in turn a product (of exact or truncated
    operands), poly_divmod, divide_exact (of a product or of a random
    polynomial) and reduce_mod_omega at level 0 or 1."""
    for i in range(count):
        ctx = PadicContext(rng.choice((3, 5, 7)), rng.choice(rel_precs),
                           rng.choice(budgets))
        op, cutoff = i % 4, rng.randint(1, 3)
        if op == 0:
            f, g = (_random_series(ctx, rng, 5, rng.choice(
                (None, None, rng.randint(1, 6)))) for _ in range(2))
            yield lambda f=f, g=g: f * g
        elif op == 1:
            f, g = _random_series(ctx, rng, 6), _random_divisor(ctx, rng)
            yield lambda f=f, g=g, c=cutoff: poly_divmod(f, g, c)
        elif op == 2:
            g, h = _random_divisor(ctx, rng), _random_series(ctx, rng, 4)
            f = None if rng.randrange(2) else _random_series(ctx, rng, 6)
            yield lambda f=f, g=g, h=h, c=cutoff: divide_exact(
                g * h if f is None else f, g, c)
        else:
            f = _random_series(ctx, rng, 2 * ctx.p + 2)
            yield lambda f=f, n=rng.randint(0, 1): reduce_mod_omega(f, n)


def arith_outcome(run):
    """The (trunc, [[v, u, prec], ...]) of each series a run returns, or
    the type and message of the error it raises."""
    try:
        out = run()
    except PadlogError as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(out, LambdaNElement):
        out = (out.rep,)
    elif isinstance(out, XSeries):
        out = (out,)
    return [[s.trunc, [[c.to_record()[k] for k in ("v", "u", "prec")]
                       for c in s.coeffs]] for s in out]


def _pinned_outcomes():
    return [arith_outcome(run) for run in arith_cases(
        random.Random(32), 200, range(2, 9), range(5))]


def test_products_and_divisions_match_the_pinned_outcomes():
    want = json.loads(ARITH_GOLDEN.read_text())
    assert _pinned_outcomes() == want
    raised = {(w[0], w[1].split()[0]) for w in want if isinstance(w[0], str)}
    assert raised >= {("DenominatorBudgetExceeded", "product"),
                      ("DenominatorBudgetExceeded", "inverse"),
                      ("NotInImage", "division"), ("InputError", "division"),
                      ("PrecisionLoss", "remainder"),
                      ("PrecisionLoss", "coefficient")}


if __name__ == "__main__":
    ARITH_GOLDEN.parent.mkdir(exist_ok=True)
    ARITH_GOLDEN.write_text(json.dumps(_pinned_outcomes()) + "\n")
