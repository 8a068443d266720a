"""Factorization of the forward map on finite-level quotients:
roundtrips, kernel structure, tower compatibility, negative controls."""

import functools
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from padlog import (
    INF,
    ColemanVector,
    FrobeniusData,
    InputError,
    NotInImage,
    NotIntegral,
    PadicContext,
    PrecisionLoss,
    RegulatorVector,
    XSeries,
    build_Mn,
    check_evaluation,
    conjugate_basis_check,
    det_Mn,
    factor_level,
    forward,
    integral_shift,
    kernel_basis,
    reduce_mod_omega,
    roundtrip_check,
    tower_projection_check,
)
from padlog.cli import main
import padlog.coleman as coleman
from padlog.coleman import _as_classes, _first_unresolved
from padlog.linalg import form_depth, form_mod, form_sub, fp_rank
from padlog.logmatrix import log_matrix_in_basis, min_coeff_valuation
from padlog.series import cyclo_residue, omega_ints
from padlog.serialize import vector_from_record
from padlog.wach import GammaElement, build_M_prime

from instances import (
    pollack_fd,
    random_adapted_B,
    random_instance,
    random_polynomial_vector,
)
from oracles import (
    agree_mod_precision,
    inv_oracle,
    known_sum,
    matches_rational,
    mn_poly_oracle,
    omega_oracle,
    padd,
    pdivmod,
    phi_oracle,
    pmul,
    poly_mat_mul,
    pscale,
)


def classes(fd, n, int_lists):
    return [reduce_mod_omega(XSeries.from_ints(fd.ctx, c), n)
            for c in int_lists]


def test_forward_linear_in_input():
    fd = pollack_fd()
    a = classes(fd, 1, [[1, 2], [0, 1]])
    b = classes(fd, 1, [[3], [1, 1, 1]])
    both = classes(fd, 1, [padd(x, y) for x, y in
                           zip([[1, 2], [0, 1]], [[3], [1, 1, 1]])])
    fa, fb, fab = (forward(fd, 1, v) for v in (a, b, both))
    for x, y, z in zip(fa.components, fb.components, fab.components):
        assert agree_mod_precision(
            known_sum(x.rep.coeffs, y.rep.coeffs, fd.ctx.p), z.rep.coeffs,
            fd.ctx.p)


def test_roundtrip_simple_vectors():
    fd = pollack_fd()
    for n in (1, 2):
        for comps in ([[1, 2], [0, 1]], [[5], [1, 0, 2]], [[0, 1], [7]]):
            assert roundtrip_check(fd, n, classes(fd, n, comps))["ok"]


def test_roundtrip_random_vectors():
    rng = random.Random(21)
    for fd in (pollack_fd(), random_instance(3, 4, 2, 1)):
        for n in (1, 2):
            for _ in range(4):
                col = random_polynomial_vector(fd, rng)
                assert roundtrip_check(fd, n, col)["ok"]


def test_negative_control_unit_in_scaled_block():
    # (0, 1) has a unit in the scaled block, which Phi_{p^1} cannot divide
    fd = pollack_fd()
    L = classes(fd, 1, [[0], [1]])
    with pytest.raises(NotInImage):
        factor_level(fd, 1, L)


def test_negative_control_level_two():
    fd = pollack_fd()
    L = classes(fd, 2, [[1], [0]])
    # the stage-2 division hits the unscaled block, but stage 1 sees the
    # rotated coordinates; a pure first-coordinate unit dies at some stage
    with pytest.raises(NotInImage):
        factor_level(fd, 2, L)


def test_negative_control_linear_term():
    fd = pollack_fd()
    L = classes(fd, 1, [[0], [0, 1]])  # X in the scaled block
    with pytest.raises(NotInImage):
        factor_level(fd, 1, L)


def test_factored_image_lands_in_target():
    fd = pollack_fd()
    n = 2
    col = classes(fd, n, [[1, 1], [2]])
    L = forward(fd, n, col)
    rec = factor_level(fd, n, L)
    assert rec.level == n
    assert rec.kernel_tag == f"mod ker h_{n}"
    again = forward(fd, n, rec)
    for a, b in zip(again.components, L.components):
        assert agree_mod_precision(a.rep.coeffs, b.rep.coeffs, fd.ctx.p)


def test_kernel_size_matches_rank_count():
    # dim ker = s * (p^n - 1) with s the scaled block size
    fd = pollack_fd()
    ker1 = kernel_basis(fd, 1)
    assert len(ker1) == 1 * (3 - 1)
    ker2 = kernel_basis(fd, 2)
    assert len(ker2) == 1 * (9 - 1)


def test_kernel_vectors_map_to_zero():
    fd = pollack_fd()
    for n in (1, 2):
        for vec in kernel_basis(fd, n):
            img = forward(fd, n, vec)
            for c in img.components:
                assert c.zero_status()[0] == "zero"


def test_kernel_vectors_are_saturated():
    # no kernel vector is p times an integral vector: some coefficient
    # must be a p-adic unit
    fd = pollack_fd()
    p = fd.ctx.p
    for vec in kernel_basis(fd, 1):
        vals = []
        for c in vec.components:
            for coeff in c.rep.coeffs:
                if not coeff.is_zero_rep:
                    vals.append(coeff.v)
        assert min(vals) == 0


def test_kernel_gl4_count():
    fd = random_instance(3, 4, 2, 0)
    ker = kernel_basis(fd, 1)
    assert len(ker) == fd.scaled_dim * (3 - 1)


def _assert_saturated_kernel(fd, n, ker):
    p = fd.ctx.p
    assert len(ker) == fd.scaled_dim * (p ** n - 1)
    for vec in ker:
        for c in forward(fd, n, vec).components:
            assert c.zero_status()[0] == "zero"
    # saturated: integral, and still independent mod p
    residues = []
    for vec in ker:
        row = []
        for c in vec.components:
            assert all(x.is_zero_rep or x.v >= 0 for x in c.rep.coeffs)
            digits = [x.u % p if not x.is_zero_rep and x.v == 0 else 0
                      for x in c.rep.coeffs]
            row += digits + [0] * (p ** n - len(digits))
        residues.append(row)
    assert fp_rank(residues, p) == len(ker)


def test_kernel_random_instance_level_two():
    # a random size-3 instance, whose C_k are not antidiagonal
    fd = random_instance(3, 3, 1, 1)
    _assert_saturated_kernel(fd, 2, kernel_basis(fd, 2))


def test_kernel_dimension_54():
    # 2 * 3^3 coefficients: the largest kernel the benchmark computes
    fd = random_instance(3, 2, 1, 1)
    _assert_saturated_kernel(fd, 3, kernel_basis(fd, 3))


def test_kernel_size_eight_within_the_budget():
    # 8 * 3^1 = 24 coefficient columns: size 8 is admitted
    fd = random_instance(3, 8, 4, 1)
    _assert_saturated_kernel(fd, 1, kernel_basis(fd, 1))


def test_kernel_budget_refuses_before_building_the_matrix(monkeypatch):
    # 4 * 3^4 = 324 columns is past the budget of 256; the refusal comes
    # before the tower is read, so it is immediate
    from padlog.logmatrix import ExactTower

    fd = random_instance(3, 4, 2, 1)

    def unreachable(self, k):
        raise AssertionError("the coefficient matrix was built")

    monkeypatch.setattr(ExactTower, "P", unreachable)
    start = time.perf_counter()
    with pytest.raises(InputError, match="size \\* p\\^n <= 256, got 324"):
        kernel_basis(fd, 4)
    assert time.perf_counter() - start < 1


def test_tower_projection_compatibility():
    rng = random.Random(22)
    fd = pollack_fd()
    for _ in range(4):
        col = random_polynomial_vector(fd, rng)
        assert tower_projection_check(fd, 1, col)["ok"]
        assert tower_projection_check(fd, 2, col)["ok"]


def test_forward_input_validation():
    fd = pollack_fd()
    with pytest.raises(InputError):
        forward(fd, 0, classes(fd, 1, [[1], [1]]))
    with pytest.raises(InputError):
        forward(fd, 1, classes(fd, 1, [[1], [1]])[:1])
    wrong_level = classes(fd, 2, [[1], [1]])
    with pytest.raises(InputError):
        forward(fd, 1, wrong_level)
    # the level is checked before the vector is lifted at level n + 1
    for n in (0, -1, -2):
        with pytest.raises(InputError, match="tower_projection_check"):
            tower_projection_check(fd, n, classes(fd, 1, [[1], [1]]))


def test_vectors_reject_classes_at_another_level():
    # both vector types share one component check: classes, at the level
    fd = pollack_fd()
    at_one = classes(fd, 1, [[1, 2], [0, 1]])
    for make in (RegulatorVector, ColemanVector):
        assert make(1, at_one).components == tuple(at_one)
        for bad in (classes(fd, 2, [[1], [1]]), [XSeries.from_ints(
                fd.ctx, [1])] * 2):
            with pytest.raises(InputError, match="classes at the level"):
                make(1, bad)


def test_integral_shift_certifies():
    from padlog import integral_shift
    fd = pollack_fd()
    ctx = fd.ctx
    good = [XSeries.from_ints(ctx, [3, 9]), XSeries.from_ints(ctx, [0, 3])]
    out = integral_shift(fd, 1, good)
    assert out.level == 1
    bad = [XSeries.from_fractions(ctx, [Fraction(1, 3 ** 6)]),
           XSeries.from_ints(ctx, [0])]
    with pytest.raises(NotIntegral):
        integral_shift(fd, 1, bad)


def test_integral_shift_finds_nonintegral_past_lost_precision():
    # C_phi^-2 = -3 I sends [O(3^-1), 3^-6 X] to [O(1), -3^-5 X]: the
    # vector is known to absolute precision -1 only, yet its X coefficient
    # lies below that, so it is certified nonintegral
    fd = pollack_fd()
    ctx = fd.ctx
    low = XSeries(ctx, [ctx.zero(-1), ctx.from_rational(Fraction(1, 3 ** 6))])
    vec = [low, XSeries.from_ints(ctx, [1])]
    with pytest.raises(NotIntegral) as err:
        integral_shift(fd, 1, vec)
    assert err.value.witness[:2] == (0, 1)
    vague = [XSeries(ctx, [ctx.zero(-1)]), XSeries.from_ints(ctx, [1])]
    with pytest.raises(PrecisionLoss, match="absolute precision -1"):
        integral_shift(fd, 1, vague)


def _forward_oracle(fd, n, vec):
    """P_n v mod omega_n with P_n = C_phi^-(n+1) M_n, from the oracles."""
    p, g, fil = fd.ctx.p, fd.size, fd.fil_dim
    cphi = [[x if j < fil else x / p for j, x in enumerate(row)]
            for row in fd.C]
    inv = [[[x] if x else [] for x in row] for row in inv_oracle(cphi)]
    P = mn_poly_oracle(fd, n)
    for _ in range(n + 1):
        P = poly_mat_mul(inv, P)
    w = omega_oracle(p, n)
    out = []
    for row in P:
        acc = []
        for e, v in zip(row, vec):
            acc = padd(acc, pmul(e, v))
        out.append(pdivmod(acc, w)[1])
    return out


@pytest.mark.parametrize("fd, levels", [
    (pollack_fd(), (1, 2, 3)),
    (random_instance(3, 2, 1, 5), (1, 2, 3)),
    (random_instance(3, 3, 1, 1), (1, 2)),
    (random_instance(3, 4, 2, 1), (1, 2)),
], ids=["antidiagonal", "size2", "size3", "size4"])
def test_forward_matches_chain_oracle(fd, levels):
    rng = random.Random(23)
    p = fd.ctx.p
    for n in levels:
        for _ in range(2):
            vec = [[Fraction(rng.randrange(-9, 10), rng.choice((1, 2, p)))
                    for _ in range(rng.randrange(1, 6))]
                   for _ in range(fd.size)]
            got = forward(fd, n, [XSeries.from_fractions(fd.ctx, v)
                                  for v in vec])
            want = _forward_oracle(fd, n, vec)
            for comp, exact in zip(got.components, want):
                assert len(comp.rep.coeffs) <= p ** n
                for j in range(p ** n):
                    value = exact[j] if j < len(exact) else 0
                    assert matches_rational(comp.rep.coeff(j), value)


# -- low-precision inputs, verdicts, random instances, integral shift ------


def _series_at(ctx, ints, prec):
    """The integers as coefficients known modulo p^prec."""
    return XSeries(ctx, [ctx.from_rational(Fraction(m), prec) for m in ints])


def _certifies(vec, exact, length):
    """Every coefficient below length agrees with the exact polynomials
    at the precision it claims; an exact zero must be exactly zero."""
    for comp, want in zip(vec.components, exact):
        for j in range(length):
            value = want[j] if j < len(want) else 0
            if not matches_rational(comp.rep.coeff(j), value, depth=60):
                return False
    return True


def _residue(c, q):
    """The p-integral rational c modulo q, in range(q)."""
    return c.numerator * pow(c.denominator, -1, q) % q


def _factor_oracle(fd, n, vec):
    """The stage-by-stage inverse of forward on exact polynomials: for
    k = n..1 divide the scaled block by Phi_{p^k}, then multiply by C."""
    p, g, fil = fd.ctx.p, fd.size, fd.fil_dim
    C = [[Fraction(x) for x in row] for row in fd.C]
    vec = [pdivmod(v, omega_oracle(p, n))[1] for v in vec]
    for k in range(n, 0, -1):
        phi = phi_oracle(p, k)
        for i in range(fil, g):
            q, r = pdivmod(vec[i], phi)
            assert r == [], "the lifts are chosen inside the image"
            vec[i] = q
        vec = [functools.reduce(padd, (pscale(v, C[i][j])
                                       for j, v in enumerate(vec)), [])
               for i in range(g)]
    return vec


@pytest.mark.parametrize("fd", [
    pollack_fd(), random_instance(3, 3, 1, 1), random_instance(3, 2, 1, 5),
], ids=["antidiagonal", "size3", "size2"])
def test_low_precision_maps_certify_only_what_every_lift_shares(fd):
    # inputs known modulo 3^4: every output coefficient must agree, at
    # the precision it claims, with the exact map applied to several
    # lifts x + 3^4 y, where y moves only the stored coefficients; the
    # first component of the second vector is known modulo 3^6
    rng = random.Random(24)
    ctx, p = fd.ctx, fd.ctx.p
    q = p ** 4
    for n in (1, 2):
        terms = p ** n
        inputs = [[[rng.randrange(q)
                    for _ in range(rng.randrange(1, terms + 1))]
                   for _ in range(fd.size)] for _ in range(2)]
        inputs.append([[0] * terms for _ in range(fd.size)])
        for x, first in zip(inputs, (4, 6, 4)):
            precs = [first] + [4] * (fd.size - 1)
            got = forward(fd, n, [_series_at(ctx, c, e)
                                  for c, e in zip(x, precs)])
            for _ in range(3):
                lift = [[a + p ** e * rng.randrange(-20, 21) for a in c]
                        for c, e in zip(x, precs)]
                assert _certifies(got, _forward_oracle(fd, n, lift), terms)
            if not any(map(any, x)):
                # the all-O(p^4) vector: no coefficient of its image is
                # known to vanish exactly
                for comp in got.components:
                    assert all(not (comp.rep.coeff(j).is_zero_rep
                                    and comp.rep.coeff(j).prec == INF)
                               for j in range(terms))
            # factor_level: the input is an image known modulo 3^4, and
            # its lifts stay inside the image
            image = _forward_oracle(fd, n, x)
            L = [[_residue(image[i][j], q) if j < len(image[i]) else 0
                  for j in range(terms)] for i in range(fd.size)]
            got = factor_level(fd, n, [_series_at(ctx, c, 4) for c in L])
            for _ in range(3):
                u = [[rng.randrange(-20, 21) for _ in range(terms)]
                     for _ in range(fd.size)]
                lift = _forward_oracle(fd, n, [padd(c, pscale(d, q))
                                               for c, d in zip(x, u)])
                assert _certifies(got, _factor_oracle(fd, n, lift), terms)


def test_factor_level_verdicts_at_precision_three():
    # Phi_3(1+X) = 3 + 3X + X^2 and the unscaled component is [1, 2],
    # all known modulo 3^3
    fd = pollack_fd()
    ctx = fd.ctx

    def vector(scaled):
        return [_series_at(ctx, [1, 2], 3), _series_at(ctx, scaled, 3)]

    # divisible modulo 3^3 only: certified at cutoff 1, not at 5
    with pytest.raises(PrecisionLoss):
        factor_level(fd, 1, vector([3, 3, 1]), cutoff=5)
    got = factor_level(fd, 1, vector([3, 3, 1]), cutoff=1)
    assert _certifies(got, [[-1], [1, 2]], 3)
    # 30 = 3 mod 3^3: the remainder 27 is invisible at this precision
    with pytest.raises(PrecisionLoss):
        factor_level(fd, 1, vector([30, 3, 1]), cutoff=5)
    with pytest.raises(NotInImage):
        factor_level(fd, 1, vector([1]))


def test_a_nonzero_remainder_is_not_masked_by_an_earlier_component():
    # every component is searched for a certified nonzero before the
    # precision falls back to indeterminate: the zeros are known modulo
    # 3 only, yet a unit in either scaled component is not in the image
    fd = random_instance(3, 4, 2, 1)
    ctx = fd.ctx
    z = XSeries(ctx, [ctx.zero(1)])
    u = XSeries(ctx, [ctx.from_rational(1, 1)])
    for vector in ([z, z, z, u], [z, z, u, z]):
        with pytest.raises(NotInImage):
            factor_level(fd, 1, vector, cutoff=2)
    with pytest.raises(PrecisionLoss):
        factor_level(fd, 1, [z, z, z, z], cutoff=2)
    # the column (0, 3X): 3 is nonzero below N = 2 and zero modulo 3^1
    x = ([[[]], [[0, 3]]], 1)
    assert _first_unresolved(x, 3, 2, 2) == (1, 1, "nonzero")
    assert _first_unresolved(x, 3, 1, 2) == (0, 0, "indeterminate")
    assert _first_unresolved(x, 3, 1, 1) is None
    assert _first_unresolved(([], 1), 3, 1, 2) is None


@pytest.mark.parametrize("fd", [
    random_instance(3, 3, 1, 1), random_instance(3, 4, 2, 1),
], ids=["size3", "size4"])
def test_tower_projection_and_roundtrip_on_random_instances(fd):
    # random C_k are not antidiagonal, so a transposed or misplaced
    # factor shows here
    rng = random.Random(25)
    for n in (1, 2):
        for _ in range(3):
            col = random_polynomial_vector(fd, rng)
            assert tower_projection_check(fd, n, col) == {
                "ok": True, "witness": None}
            rep = roundtrip_check(fd, n, col)
            assert rep["ok"] and rep["witness"] is None


def _projection_by_full_reduction(fd, n, col, cutoff):
    """tower_projection_check with C_(n+1) built in full and each entry
    reduced mod omega_n, the route the cached residue replaced."""
    p, tower = fd.ctx.p, fd.tower
    low, N = coleman._forward(fd, n, *_as_classes(fd, n + 1, col))
    top = form_mod(tower.C(n + 1), omega_ints(p, n))
    cphi_inv = tower.cphi_power(-1)
    hi = coleman._apply(top, low, p, n)
    twisted = coleman._apply(cphi_inv, low, p, n)
    N += min(form_depth(tower.frob_inv, p), form_depth(cphi_inv, p))
    witness = _first_unresolved(form_sub(hi, twisted), p, N, cutoff)
    return {"ok": not witness, "witness": witness}


def _inexact_vector(fd, rng):
    """Random polynomials whose coefficients are known to 1-4 digits."""
    ctx = fd.ctx
    return [XSeries(ctx, [ctx.from_rational(rng.randrange(-9, 10),
                                            rng.randrange(1, 5))
                          for _ in range(rng.randrange(1, 5))])
            for _ in range(fd.size)]


@pytest.mark.parametrize("p,size,d0", [(3, 2, 1), (5, 2, 1), (3, 3, 1),
                                       (5, 3, 1), (3, 4, 2), (5, 4, 2)])
def test_tower_projection_matches_the_full_reduction(p, size, d0):
    # C_(n+1) mod omega_n is diag(I, r I) C^-1 with r the cached residue
    # of Phi_{p^(n+1)}(1+X); the verdicts, witnesses included, are those
    # of the full reduction, on exact and on inexact vectors
    rng = random.Random(f"projection-{p}-{size}")
    for seed in (1, 2):
        fd = random_instance(p, size, d0, seed)
        tower = fd.tower
        for n in (1, 2):
            assert (tower._scaled(tower.frob_inv, cyclo_residue(p, n + 1, n))
                    == form_mod(tower.C(n + 1), omega_ints(p, n)))
            seen = set()
            for make in (random_polynomial_vector, _inexact_vector) * 2:
                col = make(fd, rng)
                for cutoff in (1, 3, 25):
                    got = tower_projection_check(fd, n, col, cutoff)
                    assert got == _projection_by_full_reduction(
                        fd, n, col, cutoff)
                    seen.add(got["ok"])
            assert seen == {True, False}


def test_roundtrip_reads_one_chain_and_returns_the_image(grown):
    fd = random_instance(3, 3, 1, 1)
    col = random_polynomial_vector(fd, random.Random(27))
    rep = roundtrip_check(fd, 2, col)
    # both images read P_2, grown once
    assert rep["ok"] and grown == [(fd.tower, 1), (fd.tower, 2)]
    want = forward(fd, 2, col)
    assert len(grown) == 2
    assert ([list(c.rep.coeffs) for c in rep["image"].components]
            == [list(c.rep.coeffs) for c in want.components])


def _composed_roundtrip(fd, n, col, cutoff):
    """The roundtrip as a composition of the public maps: each map lifts
    its input and rounds its output, and the two images are compared on
    their lifts."""
    image = forward(fd, n, col)
    recovered = factor_level(fd, n, image, cutoff)
    (a, Na), (b, Nb) = (_as_classes(fd, n, v)
                        for v in (image, forward(fd, n, recovered)))
    witness = _first_unresolved(form_sub(a, b), fd.ctx.p, min(Na, Nb),
                                cutoff)
    if witness:
        return {"ok": False, "witness": witness, "image": image}
    return {"ok": True, "witness": None, "recovered": recovered,
            "image": image}


def _outcome(call):
    """The result of call() with its vectors read as (components,
    kernel tag), keys in order, or the type and message it raised."""
    try:
        rep = call()
    except Exception as exc:
        return type(exc), str(exc)
    return [(k, (v.components, getattr(v, "kernel_tag", None))
             if isinstance(v, (RegulatorVector, ColemanVector)) else v)
            for k, v in rep.items()]


def _random_coefficient(ctx, rng):
    """An exact rational, a scalar of negative or positive valuation
    known to a few digits, or a zero O(p^k)."""
    p, kind = ctx.p, rng.randrange(6)
    if kind < 3:
        return ctx.from_rational(Fraction(rng.randrange(-40, 41),
                                          p ** rng.randrange(3)))
    if kind < 5:
        v = rng.randrange(-2, 3)
        return ctx.from_rational(Fraction(p) ** v * rng.randrange(1, p ** 20),
                                 v + rng.randrange(1, 21))
    return ctx.zero(rng.randrange(-1, 21))


def _roundtrip_instances(rel_prec):
    ctx = PadicContext(3, rel_prec=rel_prec, denom_budget=24)
    return [random_instance(3, 2, 1, 5, rel_prec=rel_prec)] + [
        FrobeniusData.create(ctx, C, d0=1, r=1, force=True)
        for C in ([[Fraction(1, 3), 1], [2, 1]], [[3, 1], [1, 1]])]


def test_roundtrip_is_the_composition_of_the_public_maps():
    # one lift and exact forms through forward, factor and forward give
    # the outcome of composing the public maps (five lifts and three
    # roundings), since rounding at the image's precision loses nothing;
    # the forced C = [[1/3, 1], [2, 1]] loses a digit a stage, and its
    # second image, known to fewer digits, is indeterminate
    rng = random.Random(30)
    seen = set()
    for rel_prec in (3, 8, 20):
        for fd in _roundtrip_instances(rel_prec):
            for _ in range(6):
                col = [XSeries(fd.ctx, [_random_coefficient(fd.ctx, rng)
                                        for _ in range(rng.randrange(1, 11))])
                       for _ in range(fd.size)]
                for n, cutoff in itertools.product((0, 1, 2), (1, 2, 5)):
                    got = _outcome(lambda: roundtrip_check(fd, n, col, cutoff))
                    want = _outcome(lambda: _composed_roundtrip(
                        fd, n, col, cutoff))
                    assert got == want
                    seen.add(got[0] if isinstance(got, tuple)
                             else got[0][1])
    assert {True, False, PrecisionLoss, InputError} <= seen


def test_roundtrip_witnesses_a_preimage_that_does_not_map_back(monkeypatch):
    # forward(factor(y)) differs from y only by the dropped remainders,
    # which vanish to the compared precision, so a correct factorization
    # never gives a nonzero witness; a preimage moved by the unit 1 in
    # component 0 must give one
    fd = random_instance(3, 3, 1, 1)
    col = random_polynomial_vector(fd, random.Random(27))
    factor = coleman._factor

    def moved(*args):
        z, N = factor(*args)
        return form_sub(z, ([[[1]]] + [[[]]] * (fd.size - 1), 1)), N

    assert roundtrip_check(fd, 2, col)["ok"]
    monkeypatch.setattr(coleman, "_factor", moved)
    rep = roundtrip_check(fd, 2, col)
    assert not rep["ok"] and rep["witness"][2] == "nonzero"


def test_roundtrip_lifts_once_and_rounds_twice(monkeypatch):
    # no view the roundtrip makes is lifted again: the input is lifted,
    # and the image and the preimage it returns are rounded
    fd = random_instance(3, 3, 1, 1)
    col = random_polynomial_vector(fd, random.Random(27))
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_as_classes", "form_views"):
        monkeypatch.setattr(coleman, name,
                            counted(name, getattr(coleman, name)))
    assert roundtrip_check(fd, 2, col)["ok"]
    assert sorted(calls) == ["_as_classes", "form_views", "form_views"]


def test_tower_projection_reads_the_chain_only_to_level_n(grown):
    # P_(n+1) has degree p^(n+1) - 1; the level-n projection needs only
    # P_n and C_(n+1) mod omega_n, so the tower never grows past level n
    fd = random_instance(3, 3, 1, 1)
    rng = random.Random(28)
    for n in (1, 2, 3):
        grown.clear()
        col = random_polynomial_vector(fd, rng)
        assert tower_projection_check(fd, n, col)["ok"]
        assert grown == [(fd.tower, n)]
        assert len(fd.tower.chain) == n + 1


@pytest.mark.parametrize("fd", [
    pollack_fd(), random_instance(3, 3, 1, 1), random_instance(3, 4, 2, 1),
], ids=["antidiagonal", "size3", "size4"])
def test_integral_shift_matches_oracle(fd):
    # C_phi^-(n+1) x mod omega_n, rebuilt from the oracles
    rng = random.Random(27)
    p, g, fil = fd.ctx.p, fd.size, fd.fil_dim
    cphi = [[Fraction(x) if j < fil else Fraction(x) / p
             for j, x in enumerate(row)] for row in fd.C]
    inv = [[[x] if x else [] for x in row] for row in inv_oracle(cphi)]
    for n in (1, 2):
        shift = [[[Fraction(int(i == j))] for j in range(g)]
                 for i in range(g)]
        for _ in range(n + 1):
            shift = poly_mat_mul(inv, shift)
        for _ in range(2):
            vec = [[Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 5)))
                    for _ in range(rng.randrange(1, 2 * p ** n))]
                   for _ in range(g)]
            got = integral_shift(fd, n, [XSeries.from_fractions(fd.ctx, v)
                                         for v in vec])
            w = omega_oracle(p, n)
            want = [pdivmod(functools.reduce(
                padd, (pmul(e, v) for e, v in zip(row, vec)), []), w)[1]
                for row in shift]
            assert _certifies(got, want, p ** n)


def count_series_calls(monkeypatch):
    """Record every XSeries product, XSeries long division and XSeries
    reduction mod omega_n, wherever a padlog module binds them."""
    import padlog.series as series

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(series.XSeries, "__mul__",
                        counted("XSeries.__mul__", series.XSeries.__mul__))
    for name in ("poly_divmod", "reduce_mod_omega"):
        fn = getattr(series, name)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("padlog")
                    and getattr(mod, name, None) is fn):
                monkeypatch.setattr(mod, name, counted(name, fn))
    return calls


def test_coleman_maps_run_no_series_products_or_divisions(monkeypatch):
    # the five entry points compute and decide on the exact layer: no
    # XSeries product and no XSeries long division on their path
    fd = random_instance(3, 3, 1, 1)
    col = random_polynomial_vector(fd, random.Random(26), max_deg=8)
    calls = count_series_calls(monkeypatch)
    for n in (1, 2):
        L = forward(fd, n, col)
        factor_level(fd, n, L)
        assert roundtrip_check(fd, n, col)["ok"]
        assert tower_projection_check(fd, n, col)["ok"]
        integral_shift(fd, n, col)
    assert calls == []


def test_logmatrix_checks_run_no_scalar_arithmetic(monkeypatch, tmp_path):
    # the checks on M_n decide on its integer form and round only the
    # views they return, in the library and in padlog logmatrix
    fd = random_instance(3, 2, 1, 3)
    B = random_adapted_B(fd, random.Random(8))
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(fd.to_record()))
    calls = count_series_calls(monkeypatch)
    for n in (1, 2):
        approx = build_Mn(fd, n)
        assert check_evaluation(approx)["ok"]
        assert min_coeff_valuation(approx)["ok"]
        assert det_Mn(fd, n)["raw_match"]
        conjugate_basis_check(fd, B, levels=(n,))
    assert main(["logmatrix", "--input", str(inst_path), "--n", "2"]) == 0
    assert calls == []


def test_exact_paths_run_no_series_arithmetic(monkeypatch, tmp_path):
    # the basis change of an approximant, the roundtrip, vector records
    # of degree beyond p^n, the scalar twist and the coleman subcommand
    # compute on the exact layer and only round into series views
    fd = random_instance(3, 2, 1, 0)
    approx = build_Mn(fd, 2)
    B = random_adapted_B(fd, random.Random(5))
    col = random_polynomial_vector(fd, random.Random(27), max_deg=12)
    record = {"n": 1, "components": [["1", "1/3", "0", "2", "5"],
                                     ["0", "1", "0", "0", "-1/9"]]}
    wfd = random_instance(3, 2, 1, 0, rel_prec=40, denom_budget=64)
    c = wfd.ctx.from_rational(Fraction(1, -2))
    inst_path, vec_path = tmp_path / "inst.json", tmp_path / "vec.json"
    inst_path.write_text(json.dumps(pollack_fd().to_record()))
    vec_path.write_text(json.dumps([record]))
    calls = count_series_calls(monkeypatch)
    log_matrix_in_basis(approx, B)
    for n in (1, 2):
        assert roundtrip_check(fd, n, col)["ok"]
    vector_from_record(record, fd)
    assert build_M_prime(wfd, 2).twist(2, GammaElement(3, c), 12)["integral"]
    assert main(["coleman", "--input", str(inst_path),
                 "--vectors", str(vec_path)]) == 0
    assert calls == []
