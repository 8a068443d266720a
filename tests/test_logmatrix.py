"""Logarithmic matrix approximants: admission gate, tower build,
stabilization, determinant identity, basis change, image condition."""

import gc
import math
import random
import sys
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from padlog import (
    DenominatorBudgetExceeded,
    FrobeniusData,
    HypothesisFailed,
    InputError,
    LatticeSetup,
    NotFiltrationAdapted,
    NotInImage,
    PadicContext,
    SingularOperator,
    XSeries,
    build_Mn,
    check_evaluation,
    check_hypotheses,
    conjugate_basis_check,
    conjugated_instance,
    construct_admissible,
    construct_strongly_admissible,
    det_Mn,
    det_closed_form,
    image_condition_at_zero,
    verify_stabilization,
)
from padlog.coleman import (
    factor_level,
    forward,
    integral_shift,
    kernel_basis,
    roundtrip_check,
    tower_projection_check,
)
from padlog.linalg import (
    form_from_fractions,
    form_to_fractions,
    frac_inv,
    zp_solve_integral,
)
from padlog.logmatrix import (
    ExactTower,
    _conjugation,
    build_Cn,
    log_matrix_in_basis,
    min_coeff_valuation,
)
from padlog.pollack import verify_antidiagonal
from padlog.wach import (
    GammaElement,
    build_G_gamma,
    build_M_prime,
    build_Pn,
    verify_cocycle,
    verify_commutation,
    verify_p1_twist,
    verify_tower_congruence,
)

from instances import (
    interleaved_gl4,
    pollack_fd,
    random_adapted_B,
    random_instance,
    random_polynomial_vector,
)
from oracles import (
    agree_mod_precision,
    chain_oracle,
    charpoly_oracle,
    in_zp_span,
    inv_oracle,
    lower_hull_oracle,
    matches_rational,
    mn_poly_oracle,
    omega_oracle,
    padd,
    pdivmod,
    perm_det,
    perm_det_poly,
    phi_oracle,
    pmul,
    poly_mat_mul,
    pscale,
    ptrim,
    vp_rational,
)


def test_gate_accepts_half_slope_instance():
    fd = pollack_fd()
    report = check_hypotheses(fd)
    assert report.ok
    # characteristic polynomial of C_phi is x^2 + 1/p
    assert list(report.charpoly) == [Fraction(1, 3), Fraction(0), Fraction(1)]
    assert list(report.root_valuations) == [(Fraction(-1, 2), 2)]


def test_gate_rejects_identity():
    ctx = PadicContext(3, rel_prec=20, denom_budget=24)
    with pytest.raises(HypothesisFailed) as exc:
        FrobeniusData.create(ctx, [[1, 0], [0, 1]], d0=1)
    msg = str(exc.value)
    assert "eigenvalue valuation -1 (x1) outside (-1, 0]" in msg
    assert "1 is an eigenvalue of C_phi" in msg


def test_gate_rejects_unit_eigenvalue_one():
    # C = diag(1, 3) makes C_phi the identity
    ctx = PadicContext(3, rel_prec=20, denom_budget=24)
    with pytest.raises(HypothesisFailed) as exc:
        FrobeniusData.create(ctx, [[1, 0], [0, 3]], d0=1)
    assert "1 is an eigenvalue of C_phi" in str(exc.value)


def test_force_create_keeps_failing_report():
    ctx = PadicContext(3, rel_prec=20, denom_budget=24)
    fd = FrobeniusData.create(ctx, [[1, 0], [0, 1]], d0=1, force=True)
    assert not check_hypotheses(fd).ok


def _gate_instances():
    """Forced instances at p = 3 and 5: admitted random ones, and random
    ones with a non-integral C, a non-unit det C or the eigenvalue 1 of
    C_phi (C_phi = B U B^-1 for an upper triangular U with a 1 on its
    diagonal)."""
    rng = random.Random(23)
    out = []
    for p in (3, 5):
        ctx = PadicContext(p, rel_prec=20, denom_budget=24)
        for size, d0 in ((2, 1), (3, 1), (4, 2), (5, 2), (6, 3)):
            def create(C):
                return FrobeniusData.create(ctx, C, d0=d0, force=True)

            out.append(random_instance(p, size, d0, rng.randrange(100)))
            C = [[rng.randrange(-6, 7) for _ in range(size)]
                 for _ in range(size)]
            out.append(create(C))
            out.append(create([[Fraction(x, rng.choice((1, 2, p)))
                                for x in row] for row in C]))
            out.append(create([[x * p for x in C[0]], *C[1:]]))
            U = [[rng.randrange(-3, 4) if j > i else 0 for j in range(size)]
                 for i in range(size)]
            for i in range(size):
                U[i][i] = 1 if i == size // 2 else rng.choice((-2, 3, p))
            B = random_adapted_B(create(C), rng)
            Bq = [[Fraction(x) for x in row] for row in B]
            Cphi = _frac_mul(_frac_mul(Bq, U), inv_oracle(Bq))
            out.append(create([[x * (p if j >= d0 else 1)
                                for j, x in enumerate(row)]
                               for row in Cphi]))
    return out


def test_gate_report_matches_the_oracles():
    # det C, the characteristic polynomial of C_phi, its Newton hull and
    # every failure clause, against the permutation expansions
    clauses = set()
    for fd in _gate_instances():
        p = fd.ctx.p
        C = [list(row) for row in fd.C]
        Cphi = fd.C_phi_frac()
        det_C = perm_det(C)
        cp = charpoly_oracle(Cphi)
        hull = lower_hull_oracle([(i, vp_rational(a, p))
                                  for i, a in enumerate(cp) if a])
        want = []
        if any(x and vp_rational(x, p) < 0 for row in C for x in row):
            want.append("C is not p-integral")
        if not det_C or vp_rational(det_C, p):
            want.append(f"det(C) = {det_C} is not a p-adic unit")
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            val = Fraction(y1 - y2, x2 - x1)
            if not -1 < val <= 0:
                want.append(f"eigenvalue valuation {val} (x{x2 - x1}) "
                            "outside (-1, 0]")
        shifted = [[int(i == j) - x for j, x in enumerate(row)]
                   for i, row in enumerate(Cphi)]
        if perm_det(shifted) == 0:
            want.append("1 is an eigenvalue of C_phi")
        report = check_hypotheses(fd)
        assert report.det_C == det_C and type(report.det_C) is Fraction
        assert list(report.charpoly) == cp
        assert list(report.hull) == hull
        assert list(report.failures) == want
        clauses.update(w.split(" ")[0] for w in want)
        clauses.add(report.ok)
    assert clauses == {"C", "det(C)", "eigenvalue", "1", True, False}


def test_m1_frozen_entries():
    fd = pollack_fd()
    ctx = fd.ctx
    m1 = build_Mn(fd, 1)
    zero01 = m1.raw[0][0].zero_status()[0]
    zero11 = m1.raw[1][1].zero_status()[0]
    assert zero01 == "zero" and zero11 == "zero"
    assert agree_mod_precision(m1.raw[0][1].coeffs, [Fraction(-1, 3)], ctx.p)
    want = pscale(phi_oracle(ctx.p, 1), Fraction(1, 3))
    assert agree_mod_precision(m1.raw[1][0].coeffs, want, ctx.p)
    # the unit of the scalar entry reduces to -1 modulo 3^20
    c = m1.raw[0][1].coeff(0)
    assert matches_rational(c, Fraction(-1, 3))


def test_value_at_zero_is_frobenius_matrix():
    for fd in (pollack_fd(), interleaved_gl4()):
        for n in (1, 2):
            assert check_evaluation(build_Mn(fd, n))["ok"]


def test_stabilization_pollack_all_pairs():
    fd = pollack_fd()
    for n in (1, 2):
        for m in range(n + 1, 4):
            assert verify_stabilization(fd, n, m)


def test_stabilization_random_instances():
    for seed in (0, 1):
        fd = random_instance(3, 2, 1, seed)
        assert verify_stabilization(fd, 1, 2)
    fd4 = random_instance(3, 4, 2, 0)
    assert verify_stabilization(fd4, 1, 2)


def test_determinant_identity():
    fd = pollack_fd()
    for n in (1, 2, 3):
        rep = det_Mn(fd, n)
        assert rep["raw_match"] and rep["reduced_match"]


def test_determinant_identity_random():
    fd = random_instance(5, 2, 1, 2)
    rep = det_Mn(fd, 2)
    assert rep["raw_match"]


def test_determinant_identity_at_size_8(monkeypatch):
    # rank 8, as for an abelian surface at an inert place of degree 2:
    # det M_2 in one integer elimination, against det(C) p^(-3s)
    # Phi_3^s Phi_9^s built from the oracles
    fd = random_instance(3, 8, 4, 1, denom_budget=64)
    assert check_hypotheses(fd).ok
    p, s, n = fd.ctx.p, fd.scaled_dim, 2
    closed = [perm_det([list(r) for r in fd.C]) / p ** ((n + 1) * s)]
    for k in range(1, n + 1):
        for _ in range(s):
            closed = pmul(closed, phi_oracle(p, k))
    calls = count_calls(monkeypatch, ("cofactor_det",))
    rep = det_Mn(fd, n)
    assert calls == ["cofactor_det"]
    assert rep["raw_match"] and rep["reduced_match"]
    assert _series_is(rep["closed_form"], closed)
    assert _series_is(rep["det"], closed)


def test_det_mn_shares_one_view_only_when_the_forms_match(monkeypatch):
    # a proved match rounds one view for both det and closed_form; a
    # determinant off by 1 / d^size in its constant term leaves a witness,
    # and closed_form is then the closed form's own view
    import padlog.logmatrix as lm

    fd, n = random_instance(3, 3, 1, 1), 2
    rep = det_Mn(fd, n)
    assert rep["raw_match"] and rep["det"] is rep["closed_form"]
    assert rep["closed_form"] == det_closed_form(fd, n)
    real = lm.cofactor_det
    monkeypatch.setattr(lm, "cofactor_det",
                        lambda A: [real(A)[0] + 1] + real(A)[1:])
    rep = det_Mn(fd, n)
    assert not rep["raw_match"] and rep["witness"] == 0
    assert rep["closed_form"] == det_closed_form(fd, n)
    assert rep["closed_form"] != rep["det"]


def test_det_closed_form_against_independent_product():
    # rebuild det(C) p^{-(n+1)s} prod Phi_{p^k}^s with the division
    # oracle's cyclotomic coefficients and exact Fraction polynomials
    fd = pollack_fd()
    ctx = fd.ctx
    n = 2
    s = fd.scaled_dim
    prod = [Fraction(1, ctx.p ** ((n + 1) * s))]
    for k in range(1, n + 1):
        phik = [Fraction(c) for c in phi_oracle(ctx.p, k)]
        for _ in range(s):
            prod = pmul(prod, phik)
    closed = det_closed_form(fd, n)
    assert agree_mod_precision(closed.coeffs, prod, ctx.p)


def test_min_coeff_valuation_bound():
    fd = pollack_fd()
    for n in (1, 2, 3):
        rep = min_coeff_valuation(build_Mn(fd, n))
        assert rep["ok"]
        assert rep["observed"] >= rep["bound"]


def test_min_coeff_valuation_against_the_oracle():
    # the observed valuation is the least one of the independently
    # rebuilt M_n
    rng = random.Random(19)
    for _ in range(4):
        p = rng.choice((3, 5))
        size, d0 = rng.choice(((2, 1), (3, 1), (4, 2)))
        fd = random_instance(p, size, d0, rng.randrange(100))
        for n in (1, 2):
            want = min(vp_rational(c, p) for row in mn_poly_oracle(fd, n)
                       for e in row for c in e if c)
            assert min_coeff_valuation(build_Mn(fd, n))["observed"] == want


@pytest.mark.parametrize("make", [pollack_fd,
                                  lambda: random_instance(3, 4, 2, 1)])
def test_checks_on_M_n_see_a_tampered_entry(make, monkeypatch):
    # the checks read the tower's M_n: a constant term moved below the
    # valuation bound fails both, with the witness at that entry
    fd, n = make(), 2
    p, (i, j) = fd.ctx.p, (fd.size - 1, 0)
    bound = min_coeff_valuation(build_Mn(fd, n))["bound"]
    M = form_to_fractions(fd.tower.M(n))
    M[i][j] = padd(M[i][j], [Fraction(p) ** (bound - 1)])
    monkeypatch.setitem(fd.tower._products, (n + 1, n),
                        form_from_fractions(M))
    approx = build_Mn(fd, n)
    got = check_evaluation(approx)
    assert not got["ok"] and got["witness"][:2] == (i, j)
    assert min_coeff_valuation(approx) == {
        "observed": bound - 1, "bound": bound, "ok": False}


def test_conjugation_diagonal_unit_is_exact():
    fd = pollack_fd()
    rep = conjugate_basis_check(fd, [[2, 0], [0, 1]], levels=(1, 2))
    assert rep["adapted"] and rep["all_exact"] and rep["all_mod_omega"]


def test_conjugation_shear_mismatch_survives_reduction():
    fd = pollack_fd()
    rep = conjugate_basis_check(fd, [[1, 1], [0, 1]], levels=(1, 2))
    assert rep["adapted"]
    assert not rep["all_exact"]
    assert not rep["all_mod_omega"]
    assert rep["levels"][1]["witness"] is not None


def test_conjugation_rejects_non_adapted():
    fd = pollack_fd()
    with pytest.raises(NotFiltrationAdapted):
        conjugate_basis_check(fd, [[1, 0], [1, 1]])
    # a det that is not a unit, including the singular adapted-shaped
    # [[1, 1], [0, 0]], fails as such (never as a singular operator),
    # and before the block form is looked at
    for B in ([[3, 0], [0, 1]], [[1, 0], [0, 9]], [[1, 1], [0, 0]],
              [[1, 0], [1, 0]]):
        for check in (conjugate_basis_check, conjugated_instance):
            with pytest.raises(NotFiltrationAdapted) as exc:
                check(fd, B)
            assert str(exc.value) == "det(B) is not a unit"


def test_conjugated_instance_passes_gate():
    fd = pollack_fd()
    fd_w = conjugated_instance(fd, [[2, 1], [0, 1]])
    assert check_hypotheses(fd_w).ok


def test_conjugated_instance_builds_no_tower(monkeypatch):
    # only conjugate_basis_check reads the transported tower
    fd = random_instance(3, 4, 2, 0)
    B = random_adapted_B(fd, random.Random(13))
    fd.tower  # the instance's own tower, built before counting
    built = []
    init = ExactTower.__init__
    monkeypatch.setattr(ExactTower, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    conjugated_instance(fd, B)
    assert built == []
    conjugate_basis_check(fd, B, levels=(1,))
    assert len(built) == 1


def test_conjugation_refuses_an_empty_levels(monkeypatch):
    # Q != 0, so law (b) gives a nonzero level-1 defect; an empty levels,
    # or an iterator read once for the towers, would report ok with
    # nothing checked
    fd = random_instance(3, 2, 1, 1)
    B = [[1, 1], [0, 1]]
    for levels in ((1,), iter((1,))):
        assert not conjugate_basis_check(fd, B, levels=levels)["ok"]
    built = []
    init = ExactTower.__init__
    monkeypatch.setattr(ExactTower, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    for levels in ((), []):
        with pytest.raises(InputError, match="at least one level"):
            conjugate_basis_check(fd, B, levels=levels)
    assert built == []

def _frac_mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*B)] for row in A]


def _criterion_4_changes():
    """(fd, B) for criterion 4's seed-404 draws: each adapted B and its
    block-diagonal part."""
    rng = random.Random(404)
    for fd in (pollack_fd(), random_instance(3, 2, 1, 0),
               random_instance(3, 4, 2, 0)):
        g, f = fd.size, fd.fil_dim
        for _ in range(10):
            B = random_adapted_B(fd, rng)
            yield fd, [[B[i][j] if (i < f) == (j < f) else 0
                        for j in range(g)] for i in range(g)]
            yield fd, B


def _fraction_changes():
    """(fd, B) for adapted B with entries over p-unit denominators: rows
    of a random adapted B over units, the corner over other units."""
    rng = random.Random(405)
    for fd in (pollack_fd(), random_instance(3, 4, 2, 0),
               random_instance(5, 3, 1, 1), *unit_denominator_instances()):
        p, f = fd.ctx.p, fd.fil_dim

        def unit():
            return rng.choice([u for u in range(2, 3 * p) if u % p])

        for _ in range(4):
            B = [[Fraction(x, unit()) if i < f <= j else Fraction(x)
                  for j, x in enumerate(row)]
                 for i, row in enumerate(random_adapted_B(fd, rng))]
            yield fd, [[x / u for x in row] for row, u in
                       zip(B, (unit() for _ in B))]


def _constants(A):
    """The constant integer form A as a matrix of Fractions."""
    return [[e[0] if e else Fraction(0) for e in row]
            for row in form_to_fractions(A)]


def test_transported_conjugate_is_the_direct_product():
    # C_w = B C lift(B^-1) on integers is B C_phi B^-1 diag(I, p), the
    # transported tower is built from it and its inverse C_w^-1, and C_w
    # passes the gate it skipped
    count = 0
    for fd, B in (*_criterion_4_changes(), *_fraction_changes()):
        p, f = fd.ctx.p, fd.fil_dim
        Bq = [[Fraction(x) for x in row] for row in B]
        middle = _frac_mul(_frac_mul(Bq, fd.C_phi_frac()), inv_oracle(Bq))
        want = [[x * (p if j >= f else 1) for j, x in enumerate(row)]
                for row in middle]
        left, right, fd_w, C_w, C_w_inv = _conjugation(fd, B)
        assert [list(row) for row in fd_w.C] == want
        assert _constants(left) == Bq and _constants(right) == frac_inv(Bq)
        assert _constants(C_w) == want
        assert _constants(C_w_inv) == frac_inv(want)
        assert check_hypotheses(fd_w).ok
        count += any(x.denominator > 1 for row in Bq for x in row)
    assert count >= 20


def _first_nonzero(M):
    """(i, j, k): the first nonzero coefficient of a matrix of Fraction
    polynomials, entry by entry and row by row, or None."""
    return next(((i, j, k) for i, row in enumerate(M)
                 for j, e in enumerate(row) for k, c in enumerate(e) if c),
                None)


def _const_poly(A):
    """A constant matrix of Fractions as a matrix of polynomials."""
    return [[[x] for x in row] for row in A]


def test_conjugation_verdicts_and_witnesses_match_the_oracle():
    # the check's defect B M_(n,v) B^-1 - M_(n,w), rebuilt by the oracles
    # from C and the direct product C_w: its zero test and, modulo
    # omega_n, its first nonzero coefficient are the report's, so the
    # transported tower's C_w^-1 shows in the witness when Q != 0
    witnessed = 0
    for fd, B in _criterion_4_changes():
        p, f = fd.ctx.p, fd.fil_dim
        Bq = [[Fraction(x) for x in row] for row in B]
        Bi = inv_oracle(Bq)
        middle = _frac_mul(_frac_mul(Bq, fd.C_phi_frac()), Bi)
        fd_w = replace(fd, C=tuple(
            tuple(x * (p if j >= f else 1) for j, x in enumerate(row))
            for row in middle))
        rep = conjugate_basis_check(fd, B, levels=(1, 2))
        for n in (1, 2):
            moved = poly_mat_mul(poly_mat_mul(
                _const_poly(Bq), mn_poly_oracle(fd, n)), _const_poly(Bi))
            diff = [[padd(a, pscale(b, -1)) for a, b in zip(ra, rb)]
                    for ra, rb in zip(moved, mn_poly_oracle(fd_w, n))]
            omega = omega_oracle(p, n)
            rems = [[pdivmod(e, omega)[1] for e in row] for row in diff]
            got = rep["levels"][n]
            assert got["exact"] == (_first_nonzero(diff) is None)
            assert got["witness"] == _first_nonzero(rems), (fd.C, B, n)
        witnessed += rep["levels"][1]["witness"] is not None
    assert witnessed >= 20


def test_conjugate_basis_check_runs_no_gate(monkeypatch):
    # the conjugated instance is admitted by transport: no gate and no
    # characteristic polynomial per check; conjugated_instance still gates
    fd = random_instance(3, 4, 2, 0)
    B = random_adapted_B(fd, random.Random(12))
    calls = count_calls(monkeypatch, ("check_hypotheses", "frac_charpoly"))
    conjugate_basis_check(fd, B)
    assert calls == []
    conjugated_instance(fd, B)
    assert calls == ["check_hypotheses", "frac_charpoly"]


def test_image_condition_frozen_values():
    fd = pollack_fd()
    r3 = image_condition_at_zero(fd, [1], [3], trivial_character=True)
    r1 = image_condition_at_zero(fd, [1], [1], trivial_character=True)
    r0 = image_condition_at_zero(fd, [1], [0], trivial_character=True)
    assert r3.membership and not r1.membership and r0.membership
    assert r3.finite_index
    assert r3.details["dual_intersection_trivial"]


def test_image_condition_dual_intersection_past_fil_dim():
    # fil_dim = 1: any index past it meets the complement of Fil0
    fd = pollack_fd()
    for I, w in (([2], [1]), ([1, 2], [1, 0])):
        for trivial in (False, True):
            res = image_condition_at_zero(fd, I, w,
                                          trivial_character=trivial)
            assert not res.details["dual_intersection_trivial"]


def test_image_condition_matches_the_oracle_operator():
    # the trivial-character columns are those of the oracle's
    # (1 - phi)(1 - phi/p)^-1, so the solve gives the same coefficients
    rng = random.Random(33)
    verdicts = set()
    for p, size, d0, seed in ((3, 2, 1, 0), (3, 4, 2, 0), (5, 2, 1, 0),
                              (5, 4, 2, 1), (7, 3, 1, 2), (3, 2, 1, 7)):
        fd = random_instance(p, size, d0, seed)
        Cphi = fd.C_phi_frac()
        one_minus, one_minus_over_p = (
            [[int(i == j) - x / scale for j, x in enumerate(row)]
             for i, row in enumerate(Cphi)] for scale in (1, p))
        op = _frac_mul(one_minus, inv_oracle(one_minus_over_p))
        for _ in range(4):
            I = sorted(rng.sample(range(1, size + 1),
                                  rng.randint(1, size)))
            columns = [[op[i - 1][k] for i in I] for k in range(fd.fil_dim)]
            if rng.random() < 0.5:
                w = [rng.randrange(-9, 10) for _ in I]
            else:  # in the image: a p-integral combination of the columns
                c = [Fraction(rng.randrange(-4, 5), rng.choice((1, 2)))
                     for _ in columns]
                w = [sum(ck * col[r] for ck, col in zip(c, columns))
                     for r in range(len(I))]
            res = image_condition_at_zero(fd, I, w, trivial_character=True)
            assert res.membership == in_zp_span(columns, w, p)
            verdicts.add(res.membership)
            coeffs = res.details["coefficients"]
            try:
                want = zp_solve_integral(columns, w, p)
            except NotInImage:
                want = None
            assert coeffs == want
            if coeffs is not None:
                assert [sum(ck * col[r] for ck, col in zip(coeffs, columns))
                        for r in range(len(I))] == w
    assert verdicts == {True, False}


def test_image_condition_plain_character():
    fd = pollack_fd()
    res = image_condition_at_zero(fd, [1], [1])
    assert res.membership and res.finite_index


def test_integral_checks_take_no_smith_form(monkeypatch):
    # the integral solve and the rank mod p run on zp_nullspace's
    # elimination; smith_zp stays only for the benchmark's tracer
    fd = pollack_fd()
    calls = count_calls(monkeypatch, ("smith_zp",))
    setup = LatticeSetup(PadicContext(3), 3, 2, [[0, 0, 1]],
                         phi_matrix=[[0, 1, 0], [2, 0, 0], [0, 0, 3]])
    for trivial in (False, True):
        assert image_condition_at_zero(fd, [1], [3],
                                       trivial_character=trivial)
    construct_admissible(setup)
    construct_strongly_admissible(setup)
    assert calls == []


def test_random_instances_pass_full_battery():
    rng = random.Random(77)
    for _ in range(3):
        p = rng.choice((3, 5))
        size, d0 = rng.choice(((2, 1), (4, 2)))
        fd = random_instance(p, size, d0, rng.randrange(100))
        assert check_hypotheses(fd).ok
        m2 = build_Mn(fd, 2)
        assert check_evaluation(m2)["ok"]
        assert verify_stabilization(fd, 1, 2)
        assert min_coeff_valuation(m2)["ok"]


def one_digit_instances():
    """The antidiagonal and a random size-4 instance at rel_prec = 1:
    too few digits to certify anything, so only exact checks decide."""
    return [pollack_fd(rel_prec=1), random_instance(3, 4, 2, 0, rel_prec=1)]


def test_exact_checks_decide_at_one_digit():
    rng = random.Random(61)
    for fd in one_digit_instances():
        wide = FrobeniusData.create(PadicContext(3), fd.C, fd.d0)
        rep = det_Mn(fd, 3)
        assert rep["raw_match"] and rep["reduced_match"]
        assert rep["witness"] is None
        assert verify_stabilization(fd, 2, 3)
        assert verify_stabilization(fd, 1, 3)
        B = random_adapted_B(fd, rng)
        f = fd.fil_dim
        block_diag = [[B[i][j] if (i < f) == (j < f) else 0
                       for j in range(fd.size)] for i in range(fd.size)]
        shear = [[int(i == j or (i, j) == (0, f)) for j in range(fd.size)]
                 for i in range(fd.size)]
        changes = (block_diag, B, shear)
        got = [conjugate_basis_check(fd, Bx) for Bx in changes]
        assert got == [conjugate_basis_check(wide, Bx) for Bx in changes]
        assert got[0]["all_exact"]
        assert not got[2]["levels"][1]["exact"]


def test_exact_checks_keep_the_denominator_budget():
    for fd in one_digit_instances():
        tight = FrobeniusData.create(
            PadicContext(3, rel_prec=1, denom_budget=2), fd.C, fd.d0)
        assert tight.min_val_C_phi() == -1  # level 2 needs budget 3
        identity = [[int(i == j) for j in range(fd.size)]
                    for i in range(fd.size)]
        with pytest.raises(DenominatorBudgetExceeded):
            det_Mn(tight, 2)
        with pytest.raises(DenominatorBudgetExceeded):
            verify_stabilization(tight, 1, 2)
        with pytest.raises(DenominatorBudgetExceeded):
            conjugate_basis_check(tight, identity, levels=(1, 2))
        assert conjugate_basis_check(tight, identity, levels=(1,))["ok"]


def test_inverse_and_scaled_matrix_are_cached_on_the_instance():
    fd = random_instance(5, 4, 2, 1)
    assert fd.C_inv is fd.C_inv and fd.C_phi is fd.C_phi
    assert [list(row) for row in fd.C_inv] == inv_oracle(
        [list(r) for r in fd.C])
    p, f = fd.ctx.p, fd.fil_dim
    assert fd.C_phi == tuple(
        tuple(x if j < f else x / p for j, x in enumerate(row))
        for row in fd.C)
    assert fd.C_phi_frac() == [list(row) for row in fd.C_phi]
    # a singular matrix still loads under force; only its inverse fails
    ctx = PadicContext(3)
    singular = FrobeniusData.create(ctx, [[1, 2], [2, 4]], d0=1, force=True)
    with pytest.raises(SingularOperator):
        singular.C_inv


def unit_denominator_instances():
    """Admitted instances at p = 3 whose p-integral C has denominators
    prime to p, so that C^-1 has denominators other than det C."""
    ctx = PadicContext(3)
    F = Fraction
    return [
        FrobeniusData.create(
            ctx, [[F(1, 2), F(-1, 5)], [F(5, 7), 0]], d0=1),
        FrobeniusData.create(ctx, [
            [2, F(4, 5), 0, 0],
            [F(-4, 5), 2, 2, F(1, 2)],
            [0, F(1, 5), F(-3, 2), 0],
            [3, 0, 1, 0],
        ], d0=2),
    ]


def _series_is(e, want):
    """The XSeries view e agrees with the exact polynomial want."""
    return all(
        matches_rational(e.coeff(k), want[k] if k < len(want) else 0)
        for k in range(max(len(e.coeffs), len(want))))


def test_non_integral_C_matches_the_oracles():
    for fd in unit_denominator_instances():
        p, s = fd.ctx.p, fd.scaled_dim
        C = [list(r) for r in fd.C]
        Cinv = inv_oracle(C)
        det_C = perm_det(C)
        assert [list(row) for row in fd.C_inv] == Cinv
        assert all(x.denominator % p for row in C for x in row)
        # for an integer C every denominator of C^-1 divides det C
        assert any(det_C.numerator % x.denominator
                   for row in Cinv for x in row)
        want = {n: mn_poly_oracle(fd, n) for n in (1, 2, 3)}
        for n in (1, 2, 3):
            approx = build_Mn(fd, n)
            assert all(_series_is(e, w) for row, wrow in
                       zip(approx.raw, want[n]) for e, w in zip(row, wrow))
            det = perm_det_poly(want[n])
            closed = [det_C / p ** ((n + 1) * s)]
            for k in range(1, n + 1):
                for _ in range(s):
                    closed = pmul(closed, phi_oracle(p, k))
            assert det == closed
            rep = det_Mn(fd, n)
            assert rep["raw_match"] and rep["reduced_match"]
            assert _series_is(rep["det"], det)
        for n, m in ((1, 2), (1, 3), (2, 3)):
            omega = omega_oracle(p, n)
            assert all(
                pdivmod(padd(a, pscale(b, -1)), omega)[1] == []
                for ra, rb in zip(want[m], want[n]) for a, b in zip(ra, rb))
            assert verify_stabilization(fd, n, m)


def test_integer_chain_matches_the_oracle_chain():
    # each level N_k / d_k of the tower's chain is P_k = C_k ... C_1,
    # with d_k prime to the content of N_k
    for p in (3, 5):
        for size in (2, 3, 4):
            fd = random_instance(p, size, size // 2, 2)
            want = chain_oracle(fd, 3)
            for k, (N, d) in enumerate(fd.tower.P(k) for k in range(4)):
                assert [[pscale(e, Fraction(1, d)) for e in row]
                        for row in N] == [[ptrim(e) for e in row]
                                          for row in want[k]]
                assert math.gcd(d, *(c for row in N for e in row
                                     for c in e)) == 1


def count_calls(monkeypatch, names):
    """Record every call of the named functions, wherever a padlog module
    binds them."""
    calls = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("padlog"):
            continue
        for name in names:
            fn = getattr(mod, name, None)
            if callable(fn):
                monkeypatch.setattr(mod, name, lambda *a, name=name, fn=fn,
                                    **k: calls.append(name) or fn(*a, **k))
    return calls


def test_tower_readers_run_on_integer_forms(monkeypatch):
    # growing the tower multiplies no C_k matrices, and no reader of the
    # tower, no Coleman map, no twist and none of the twist's checks puts
    # a matrix of Fraction polynomials into an integer form: Fractions
    # enter only at the edges and are formed only for results
    fd = random_instance(3, 3, 1, 1)
    B = random_adapted_B(fd, random.Random(9))
    col = random_polynomial_vector(fd, random.Random(10))
    calls = count_calls(monkeypatch, ("build_Cn", "form_from_fractions"))
    fd.tower.P(3)
    assert calls == [] and len(fd.tower.chain) == 4
    calls = count_calls(monkeypatch, ("form_from_fractions", "fpoly_mul"))
    build_Mn(fd, 2)
    det_Mn(fd, 2)
    assert verify_stabilization(fd, 1, 2)
    conjugate_basis_check(fd, B)
    assert verify_antidiagonal(pollack_fd(), 2)["ok"]
    factor_level(fd, 2, forward(fd, 2, col))
    assert roundtrip_check(fd, 2, col)["ok"]
    assert tower_projection_check(fd, 1, col)["ok"]
    kernel_basis(fd, 1)
    wach_fd = random_instance(3, 2, 1, 0)
    tower = build_M_prime(wach_fd, 2)
    gamma = GammaElement(3, 4)
    tower.twist(2, gamma, 12)
    tower.twist(2, GammaElement(3, wach_fd.ctx.integer(4)), 12)
    assert verify_tower_congruence(tower, 2, 1)
    assert verify_p1_twist(wach_fd, gamma, 12)["identity_mod_pi"]
    assert verify_commutation(wach_fd, 1, gamma, 12)["ok"]
    assert verify_cocycle(wach_fd, 1, 4, 7, 12)["ok"]
    assert calls == []


def _run_every_reader(fd):
    """Every library reader of the tower, once on fd (an r = 1 instance),
    with its results."""
    rng = random.Random(11)
    B = random_adapted_B(fd, rng)
    col = random_polynomial_vector(fd, rng)
    raw = [XSeries.from_fractions(fd.ctx, e) for row in mn_poly_oracle(fd, 1)
           for e in row[:1]]
    gamma = GammaElement(fd.ctx.p, 1 + fd.ctx.p)
    out = [
        build_Mn(fd, 2), det_Mn(fd, 2), verify_stabilization(fd, 1, 3),
        log_matrix_in_basis(build_Mn(fd, 1), B),
        conjugate_basis_check(fd, B, levels=(1, 2)),
        forward(fd, 2, col), roundtrip_check(fd, 2, col),
        tower_projection_check(fd, 2, col), kernel_basis(fd, 1),
        integral_shift(fd, 1, raw), build_Cn(fd, 3), build_Pn(fd, 2),
        build_M_prime(fd, 3), build_G_gamma(fd, 2, gamma, 8),
        verify_p1_twist(fd, gamma, 8), verify_commutation(fd, 1, gamma, 8),
        verify_cocycle(fd, 1, 1 + fd.ctx.p, 1 + 2 * fd.ctx.p, 8),
    ]
    if fd.C == pollack_fd().C:
        out.append(verify_antidiagonal(fd, 3))
    return out


def _plain(x):
    """A comparable copy of a result, down to its scalars."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    slots = getattr(type(x), "__slots__", None)
    if slots:
        return [type(x).__name__] + [_plain(getattr(x, s)) for s in slots]
    return x


TOWER_CASES = {"antidiagonal": pollack_fd,
               "size2": lambda: random_instance(3, 2, 1, 0)}


@pytest.mark.parametrize("make", TOWER_CASES.values(), ids=TOWER_CASES)
def test_each_tower_level_grows_once_across_the_readers(make, grown,
                                                        monkeypatch):
    # every reader draws from the instance's one tower: across two runs
    # of all of them each level of it grows once, and each power of
    # C_phi is formed once (C_phi with the tower, each higher power on
    # first use); a conjugated instance is new on every call, and its own
    # tower also grows each level once
    fd = make()
    powers = []
    cphi_power = ExactTower.cphi_power

    def counted(tower, e):
        if tower is fd.tower and e > 0 and e not in tower._powers:
            powers.append(e)
        return cphi_power(tower, e)

    monkeypatch.setattr(ExactTower, "cphi_power", counted)
    _run_every_reader(fd)
    _run_every_reader(fd)
    assert [k for tower, k in grown if tower is fd.tower] == [1, 2, 3]
    others = {}
    for tower, k in grown:
        if tower is not fd.tower:
            others.setdefault(id(tower), []).append(k)
    assert len(others) == 2
    assert all(levels == [1, 2] for levels in others.values())
    assert sorted(powers) == [2, 3, 4]
    assert sorted(e for e in fd.tower._powers if e > 0) == [1, 2, 3, 4]


@pytest.mark.parametrize("make", TOWER_CASES.values(), ids=TOWER_CASES)
def test_readers_leave_the_shared_tower_as_grown(make):
    # a reader that changed a shared form in place would change the
    # second run's results or the cached levels
    fd = make()
    first = _plain(_run_every_reader(fd))
    assert _plain(_run_every_reader(fd)) == first
    want = chain_oracle(fd, 3)
    assert len(fd.tower.chain) == len(want)
    for (N, d), P in zip(fd.tower.chain, want):
        assert [[pscale(e, Fraction(1, d)) for e in row] for row in N] == [
            [ptrim(e) for e in row] for row in P]
    for n in (1, 2, 3):
        assert form_to_fractions(fd.tower.M(n)) == [
            [ptrim(e) for e in row] for row in mn_poly_oracle(fd, n)]


def test_tower_lives_and_dies_with_its_instance():
    # no cache outside the instance holds the tower or the instance
    def live_towers():
        return sum(isinstance(o, ExactTower) for o in gc.get_objects())

    gc.collect()
    before = live_towers()

    def used():
        fd = random_instance(3, 2, 1, 0)
        _run_every_reader(fd)
        assert live_towers() > before
        return weakref.ref(fd)

    ref = used()
    gc.collect()
    assert ref() is None
    assert live_towers() == before
