"""Series and quotient-ring arithmetic: truncation rules, exact
division, cyclotomic identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog import (
    InputError,
    NotInImage,
    PadicContext,
    PrecisionLoss,
    XSeries,
    divide_exact,
    omega,
    poly_divmod,
    reduce_mod_omega,
)
from padlog.series import LambdaNElement, omega_ints, phi_cyclo_ints

from oracles import (
    agree_mod_precision,
    known_sum,
    omega_oracle,
    padd,
    pdivmod,
    phi_oracle,
    pmul,
    ptrim,
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
