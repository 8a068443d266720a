"""Scalar arithmetic: representation rules, certification, ring laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog import (
    INF,
    DenominatorBudgetExceeded,
    DivisionByZero,
    InputError,
    PadicContext,
)

from oracles import matches_rational

CTX = PadicContext(3, rel_prec=5, denom_budget=10)
WIDE = PadicContext(3, rel_prec=20, denom_budget=24)


def test_context_validation():
    with pytest.raises(InputError):
        PadicContext(4)
    with pytest.raises(InputError):
        PadicContext(2)
    with pytest.raises(InputError):
        PadicContext(3, rel_prec=0)


def test_context_primality_past_the_small_prime_table():
    # 41 and 43 are the first primes the trial division decides
    assert PadicContext(41).p == 41 and PadicContext(43).p == 43
    for n in (41 ** 2, 41 * 43):
        with pytest.raises(InputError, match="odd prime"):
            PadicContext(n)


def test_integer_embedding_frozen():
    x = CTX.integer(18)
    assert (x.v, x.u, x.prec) == (2, 2, 5)
    z = CTX.integer(0)
    assert z.is_zero_rep and z.prec == INF


def test_inverse_frozen_value():
    # 1/2 = (3^5 + 1)/2 mod 3^5 = 122
    inv = CTX.integer(2).inv()
    assert (inv.v, inv.u) == (0, 122)
    assert matches_rational(inv, Fraction(1, 2))


def test_from_rational_matches_oracle():
    for q in (Fraction(7, 4), Fraction(-5, 9), Fraction(6, 1),
              Fraction(1, 2), Fraction(-27, 8)):
        assert matches_rational(WIDE.from_rational(q), q)


def test_addition_precision_floor():
    a = WIDE.from_rational(Fraction(1, 3))   # v = -1, abs prec 19
    b = WIDE.integer(1)                      # v = 0, abs prec 20
    s = a + b
    assert s.v == -1
    assert s.abs_prec() == 19


def test_cancellation_produces_zero_rep():
    a = WIDE.integer(7)
    d = a - a
    assert d.is_zero_rep
    assert d.prec == 20
    assert d.zero_status() == "zero"
    assert d.zero_status(cutoff=21) == "indeterminate"


def test_zero_statuses():
    assert WIDE.integer(9).zero_status() == "nonzero"
    assert WIDE.zero().zero_status(cutoff=10 ** 6) == "zero"


def test_mul_by_zero_shifts_precision():
    z = WIDE.zero(abs_prec=4)
    x = WIDE.from_rational(Fraction(1, 9))  # v = -2
    prod = z * x
    assert prod.is_zero_rep and prod.prec == 2


def test_budget_enforced():
    deep = CTX.from_rational(Fraction(1, 3 ** 10))
    assert deep.v == -10
    with pytest.raises(DenominatorBudgetExceeded):
        CTX.from_rational(Fraction(1, 3 ** 11))


def test_division_by_certified_zero():
    with pytest.raises(DivisionByZero):
        CTX.zero().inv()


def test_lift_roundtrip():
    x = WIDE.integer(7 * 27)
    assert x.lift() == 7 * 27
    with pytest.raises(InputError):
        WIDE.from_rational(Fraction(1, 3)).lift()


def test_record_roundtrip():
    from padlog.padic import PadicScalar

    for x in (WIDE.integer(10), WIDE.zero(), WIDE.zero(abs_prec=3),
              WIDE.from_rational(Fraction(-7, 27))):
        assert PadicScalar.from_record(WIDE, x.to_record()) == x


@pytest.mark.parametrize("rec", (
    {"v": 1, "u": "2", "prec": "inf"},
    {"v": 1, "u": "x", "prec": 3},
    {"v": "inf", "u": None, "prec": "x"},
    {"v": 1, "u": None, "prec": 3},
))
def test_malformed_record_is_input_error(rec):
    # a field that is not a number raises InputError naming the record,
    # as a missing field does
    from padlog.padic import PadicScalar

    with pytest.raises(InputError, match="bad scalar record"):
        PadicScalar.from_record(WIDE, rec)


small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-400, max_value=400),
    st.sampled_from([1, 2, 3, 4, 5, 9, 27]),
)


@settings(max_examples=120, deadline=None)
@given(small_rationals, small_rationals)
def test_add_matches_exact(a, b):
    got = WIDE.from_rational(a) + WIDE.from_rational(b)
    assert matches_rational(got, a + b, depth=8)


@settings(max_examples=120, deadline=None)
@given(small_rationals, small_rationals)
def test_mul_matches_exact(a, b):
    got = WIDE.from_rational(a) * WIDE.from_rational(b)
    assert matches_rational(got, a * b, depth=8)


@settings(max_examples=80, deadline=None)
@given(small_rationals, small_rationals, small_rationals)
def test_mul_distributes(a, b, c):
    xa, xb, xc = (WIDE.from_rational(q) for q in (a, b, c))
    lhs = xa * (xb + xc)
    rhs = xa * xb + xa * xc
    diff = lhs - rhs
    assert diff.zero_status(cutoff=1) in ("zero", "indeterminate") or (
        not diff.is_zero_rep and diff.valuation() >= lhs.abs_prec()
    )
    assert matches_rational(lhs, a * (b + c), depth=6)


@settings(max_examples=80, deadline=None)
@given(small_rationals)
def test_inv_is_inverse(a):
    if a == 0:
        return
    x = WIDE.from_rational(a)
    prod = x * x.inv()
    diff = prod - WIDE.one()
    assert diff.is_zero_rep
    assert diff.prec >= 10


@settings(max_examples=100, deadline=None)
@given(small_rationals, small_rationals)
def test_add_commutes_representationally(a, b):
    assert (WIDE.from_rational(a) + WIDE.from_rational(b)
            == WIDE.from_rational(b) + WIDE.from_rational(a))
