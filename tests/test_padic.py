"""Scalars: contexts, representation rules, certified decisions and
records.  Scalars have no arithmetic; the worst-case rules of the series
product and long division are tested in test_series.py."""

from fractions import Fraction

import pytest

from padlog import (
    INF,
    DenominatorBudgetExceeded,
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


def test_from_rational_matches_oracle():
    for q in (Fraction(7, 4), Fraction(-5, 9), Fraction(6, 1),
              Fraction(1, 2), Fraction(-27, 8)):
        assert matches_rational(WIDE.from_rational(q), q)


def test_from_rational_refuses_a_float():
    # 3 ** -2 is the float nearest 1/9, a fraction over 2^56
    with pytest.raises(InputError, match="float"):
        PadicContext(3).from_rational(3 ** -2)
    with pytest.raises(InputError, match="float"):
        WIDE.integer(2.0)
    assert PadicContext(3).from_rational(Fraction(3) ** -2).v == -2


@pytest.mark.parametrize("value", [(0.5, 1), (1, 0.5), 1j, (1, 0), "abc",
                                   (1, 2, 3), (1,), None],
                         ids=["float-pair", "float-den", "complex",
                              "zero-den", "bad-string", "triple", "single",
                              "none"])
def test_from_rational_refuses_malformed_input_as_input_error(value):
    with pytest.raises(InputError, match="cannot embed"):
        PadicContext(3).from_rational(value)


def test_from_rational_keeps_every_accepted_form():
    ninth = PadicContext(3).from_rational(Fraction(2, 9))
    for value in ((2, 9), "2/9", " 2/9 ", (Fraction(2), 9)):
        assert PadicContext(3).from_rational(value) == ninth
    assert PadicContext(3).from_rational(6) == PadicContext(3).integer(6)


def test_zero_statuses():
    assert WIDE.integer(9).zero_status() == "nonzero"
    assert WIDE.zero().zero_status(cutoff=10 ** 6) == "zero"


def test_budget_enforced():
    deep = CTX.from_rational(Fraction(1, 3 ** 10))
    assert deep.v == -10
    with pytest.raises(DenominatorBudgetExceeded):
        CTX.from_rational(Fraction(1, 3 ** 11))


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

