"""The antidiagonal rank-two instance: checkerboard approximants,
closed-form entries, and signed logarithm partial products."""

from fractions import Fraction

import pytest

from padlog import (
    InputError,
    PadicContext,
    XSeries,
    build_Mn,
    closed_form_matrix,
    log_minus_partial,
    log_plus_partial,
    pollack_instance,
    verify_antidiagonal,
)
from padlog.pollack import SIGN_NOTE
from padlog.series import cyclo_product_ints

from instances import pollack_fd
from oracles import agree_mod_precision, phi_oracle, pmul, pscale


def ctx_for(p):
    return PadicContext(p, rel_prec=20, denom_budget=30)


def test_instance_passes_gate():
    for p in (3, 5):
        fd = pollack_instance(ctx_for(p))
        assert fd.d0 == 1 and fd.size == 2


def test_m1_matches_closed_form_entries():
    fd = pollack_fd()
    m1 = build_Mn(fd, 1)
    want = closed_form_matrix(fd, 1)
    for i in range(2):
        for j in range(2):
            assert agree_mod_precision(m1.raw[i][j].coeffs,
                                       want[i][j].coeffs, fd.ctx.p)


def test_partial_products_match_direct_expansion():
    # independent route: multiply the division-oracle cyclotomics
    for p in (3, 5):
        ctx = ctx_for(p)
        for j in (0, 1, 2):
            plus = log_plus_partial(ctx, j)
            minus = log_minus_partial(ctx, j)
            want_plus = [Fraction(1, p)]
            want_minus = [Fraction(1, p)]
            for k in range(1, j + 1):
                even = [Fraction(c) for c in phi_oracle(p, 2 * k)]
                odd = [Fraction(c) for c in phi_oracle(p, 2 * k - 1)]
                want_plus = pscale(pmul(want_plus, even), Fraction(1, p))
                want_minus = pscale(pmul(want_minus, odd), Fraction(1, p))
            for got, want in ((plus, want_plus), (minus, want_minus)):
                assert agree_mod_precision(got.coeffs, want, p)


@pytest.mark.parametrize("p", [3, 5])
def test_partial_logs_round_their_integer_products_once(p, monkeypatch):
    # (1/p) prod Phi_{p^k}(1+X) / p is the integer product over
    # p^(1 + n_factors), rounded straight from the integers: the same
    # series as rounding each Fraction, with no Fraction made
    ctx = ctx_for(p)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    for fn, first in ((log_plus_partial, 2), (log_minus_partial, 1)):
        for j in range(4):
            if (p, first, j) == (5, 2, 3):
                continue  # Phi_(5^6)(1+X), of degree 12500, takes ~30 s
            acc = cyclo_product_ints(p, range(first, first + 2 * j, 2))
            fracs = [Fraction(c, p ** (1 + j)) for c in acc]
            for trunc in (None, max(1, len(acc) // 2), len(acc) + 3):
                want = XSeries.from_fractions(ctx, fracs, trunc)
                monkeypatch.setattr(Fraction, "__new__", counted)
                got = fn(ctx, j, trunc)
                monkeypatch.undo()
                assert got == want and made == []


def test_zero_factors_is_one_over_p():
    ctx = ctx_for(3)
    for fn in (log_plus_partial, log_minus_partial):
        s = fn(ctx, 0)
        assert s.degree() == 0
        c = s.coeff(0)
        assert c.v == -1 and c.u == 1


def test_negative_factor_count_rejected():
    with pytest.raises(InputError):
        log_plus_partial(ctx_for(3), -1)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_antidiagonal_report(p, n):
    fd = pollack_instance(ctx_for(p))
    rep = verify_antidiagonal(fd, n)
    assert rep["ok"]
    assert rep["diagonal_zero"]
    assert rep["entries_match_closed_form"]
    assert rep["upper_is_minus_log_plus_partial"]
    assert rep["lower_is_p_log_minus_partial"]
    assert rep["value_at_zero_ok"]
    assert rep["note"] == SIGN_NOTE


def test_closed_form_scaling_exponents():
    # n = 3: q = 1, t = 2; the upper entry carries p^-(q+1) = p^-2 and
    # the lower p^-t = p^-2
    fd = pollack_fd()
    m = closed_form_matrix(fd, 3)
    up = min(c.v for c in m[0][1].coeffs if not c.is_zero_rep)
    lo = min(c.v for c in m[1][0].coeffs if not c.is_zero_rep)
    assert up == -2 and lo == -2


def test_closed_form_rejects_other_instances():
    from instances import random_instance
    fd = random_instance(3, 2, 1, 3)
    if fd.C == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0))):
        pytest.skip("random draw happened to be the antidiagonal instance")
    with pytest.raises(InputError):
        closed_form_matrix(fd, 1)


def test_truncated_partials_respect_trunc():
    ctx = ctx_for(3)
    s = log_plus_partial(ctx, 2, trunc=10)
    assert s.trunc == 10
    full = log_plus_partial(ctx, 2)
    assert agree_mod_precision(s.coeffs, full.coeffs[:10], ctx.p)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("rel_prec", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_antidiagonal_decides_at_low_precision(p, rel_prec, n):
    # the instance and the closed forms are exact, so the verdict must
    # not depend on how many digits the context keeps
    fd = pollack_instance(PadicContext(p, rel_prec=rel_prec,
                                       denom_budget=30))
    rep = verify_antidiagonal(fd, n)
    assert rep["ok"]
    assert rep["diagonal_zero"]
    assert rep["entries_match_closed_form"]
    assert rep["upper_is_minus_log_plus_partial"]
    assert rep["lower_is_p_log_minus_partial"]
    assert rep["value_at_zero_ok"]
    assert "mismatches" not in rep
