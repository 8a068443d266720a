"""JSON record loading and dumping: string integers, rationals,
error paths that name the offending field."""

import random
from fractions import Fraction

import pytest

from padlog import InputError, PadicContext, XSeries
from padlog.serialize import (
    as_fraction,
    as_int,
    class_to_record,
    context_from_record,
    instance_from_record,
    matrix_to_record,
    read_json,
    series_to_record,
    setup_from_record,
    vector_from_record,
    write_json,
)

from instances import pollack_fd, random_instance
from oracles import agree_mod_precision, omega_oracle, pdivmod


def test_as_int_forms():
    assert as_int(7, "x") == 7
    assert as_int("-12", "x") == -12
    assert as_int("123456789012345678901234567890", "x") == \
        123456789012345678901234567890
    with pytest.raises(InputError):
        as_int(True, "x")
    with pytest.raises(InputError):
        as_int("3/4", "x")
    with pytest.raises(InputError):
        as_int(1.5, "x")


def test_as_fraction_forms():
    assert as_fraction(7, "x") == Fraction(7)
    assert as_fraction("-3/4", "x") == Fraction(-3, 4)
    assert as_fraction("5", "x") == Fraction(5)
    with pytest.raises(InputError):
        as_fraction(False, "x")
    with pytest.raises(InputError):
        as_fraction("1/0", "x")
    with pytest.raises(InputError):
        as_fraction("abc", "x")


def test_context_from_record_defaults():
    ctx = context_from_record({"p": 5}, "input")
    assert ctx.p == 5
    with pytest.raises(InputError):
        context_from_record({}, "input")


def test_instance_without_budgets_gets_the_documented_defaults():
    # README, "File formats": rel_prec and denom_budget default to 20
    fd = instance_from_record(
        {"p": 3, "d0": 1, "C": [["0", "-1"], ["1", "0"]]}, "input")
    assert fd.ctx.denom_budget == PadicContext(3).denom_budget == 20
    assert fd.ctx.rel_prec == PadicContext(3).rel_prec == 20


def test_instance_roundtrip():
    fd = pollack_fd()
    rec = fd.to_record()
    back = instance_from_record(rec, "roundtrip")
    assert back.C == fd.C
    assert back.d0 == fd.d0 and back.r == fd.r
    assert back.ctx.p == fd.ctx.p


def test_instance_rejects_bad_shape():
    with pytest.raises(InputError) as exc:
        instance_from_record(
            {"p": 3, "d0": 1, "C": [["1", "0"]]}, "bad.json")
    assert "bad.json" in str(exc.value)


def test_vector_from_record():
    fd = pollack_fd()
    n, comps = vector_from_record(
        {"n": 1, "components": [["1", "2"], ["0", "1"]]}, fd, "v")
    assert n == 1
    assert len(comps) == 2
    assert all(c.level == 1 for c in comps)
    with pytest.raises(InputError):
        vector_from_record({"n": 0, "components": [[], []]}, fd, "v")
    with pytest.raises(InputError):
        vector_from_record({"n": 1, "components": [["1"]]}, fd, "v")


@pytest.mark.parametrize("fd", [pollack_fd(), random_instance(5, 2, 1, 0)],
                         ids=("p3", "p5"))
def test_vector_from_record_reduces_mod_omega(fd):
    # components of degree p^n and beyond, some with p in a denominator,
    # land in the class of their remainder by omega_n
    p = fd.ctx.p
    rng = random.Random(p)
    for n in (1, 2):
        comps = [[Fraction(rng.randrange(-40, 40),
                           rng.choice((1, 2, p, p * p, 7 * p)))
                  for _ in range(p ** n + rng.randrange(1, p ** n + 3))]
                 for _ in range(fd.size)]
        record = {"n": n, "components": [[str(c) for c in f] for f in comps]}
        got_n, classes = vector_from_record(record, fd)
        assert got_n == n
        for f, c in zip(comps, classes):
            assert c.level == n and len(c.rep.coeffs) <= p ** n
            want = pdivmod(f, omega_oracle(p, n))[1]
            assert agree_mod_precision(c.rep.coeffs, want, p)


def test_series_and_matrix_records():
    fd = pollack_fd()
    s = XSeries.from_fractions(fd.ctx, [Fraction(1, 3), Fraction(2)])
    rec = series_to_record(s)
    assert rec["coeffs"][0] == {"v": -1, "u": "1", "prec": 20}
    mat = matrix_to_record([[s]])
    assert mat[0][0]["coeffs"] == rec["coeffs"]
    from padlog import reduce_mod_omega
    elem = reduce_mod_omega(XSeries.from_ints(fd.ctx, [1, 1]), 1)
    crec = class_to_record(elem)
    assert crec["level"] == 1
    assert len(crec["coeffs"]) == 2


def test_setup_from_record():
    setup = setup_from_record(
        {"p": 3, "g": 3, "g_minus": 2, "fil0_dual": [["0", "0", "1"]]},
        "s")
    assert setup.g == 3 and setup.g_plus == 1
    assert setup.phi_matrix is None
    with_phi = setup_from_record(
        {"p": 3, "g": 2, "g_minus": 1, "fil0_dual": [["0", "1"]],
         "phi_matrix": [["2", "0"], ["0", "1/2"]]},
        "s")
    assert with_phi.phi_matrix[1][1] == Fraction(1, 2)
    with pytest.raises(InputError):
        setup_from_record({"p": 3, "g": 3, "g_minus": 2}, "s")


def test_write_and_read_json(tmp_path):
    path = str(tmp_path / "obj.json")
    write_json(path, {"a": [1, 2], "b": Fraction(1, 3)})
    back = read_json(path)
    assert back["a"] == [1, 2]
    assert back["b"] == "1/3"
    with pytest.raises(InputError):
        read_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InputError):
        read_json(str(bad))
