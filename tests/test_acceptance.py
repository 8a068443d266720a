"""Acceptance battery: ten numbered criteria, one verdict line each.

Every criterion prints (and records) a single line of the form

    criterion N: PASS - detail
    criterion N: FAIL - detail

before asserting, so the verdict survives into the terminal summary
regardless of the assertion outcome.  Re-checks deliberately go through
the independent oracles in tests/oracles.py rather than the library's
own verification helpers wherever a second opinion is possible.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from padlog import (
    FrobeniusData,
    GammaElement,
    HypothesisFailed,
    LatticeSetup,
    NotInImage,
    PadicContext,
    XSeries,
    avoid_slopes,
    build_G_gamma,
    build_M_prime,
    build_Mn,
    check_evaluation,
    check_hypotheses,
    conjugate_basis_check,
    conjugated_instance,
    construct_admissible,
    construct_strongly_admissible,
    det_Mn,
    escape_union,
    factor_level,
    generic_position_extend,
    is_admissible,
    is_strongly_admissible,
    merge_complement,
    pollack_instance,
    reduce_mod_omega,
    roundtrip_check,
    verify_antidiagonal,
    verify_commutation,
    verify_p1_twist,
    verify_stabilization,
    verify_tower_congruence,
    wach_context,
)
from padlog.logmatrix import log_matrix_in_basis

from instances import (
    pollack_fd,
    random_adapted_B,
    random_instance,
    random_polynomial_vector,
)
from oracles import (
    in_span,
    inv_oracle,
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
    rank_oracle,
    vp_rational,
)

LINES = []

_BATTERY = None


def emit(num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    LINES.append(line)
    print(line)
    return ok


def battery():
    """The shared instance battery: the antidiagonal instance plus five
    seeded random ones mixing both sizes and both primes."""
    global _BATTERY
    if _BATTERY is None:
        _BATTERY = [
            pollack_fd(),
            random_instance(3, 2, 1, 0),
            random_instance(3, 4, 2, 0),
            random_instance(5, 2, 1, 0),
            random_instance(5, 4, 2, 1),
            random_instance(3, 2, 1, 7),
        ]
    return _BATTERY


def test_criterion_01_stabilization():
    start = time.time()
    pairs = [(1, 2), (1, 3), (2, 3)]
    ok = True
    for fd in battery():
        for n, m in pairs:
            ok = ok and verify_stabilization(fd, n, m)
    elapsed = time.time() - start
    within = elapsed < 10.0
    assert emit(
        1, ok and within,
        f"6 instances, pairs {pairs}, certified in {elapsed:.2f}s",
    )


def test_criterion_02_value_at_zero():
    ok = True
    witness = ""
    for fd in battery():
        for n in (1, 2, 3):
            got = check_evaluation(build_Mn(fd, n))
            if not got["ok"]:
                ok = False
                witness = f"; first failure at n={n}, {got['witness']}"
                break
    assert emit(
        2, ok,
        "value at zero equals the Frobenius matrix for n = 1..3 on all "
        "6 instances" + witness,
    )


def test_criterion_03_determinant_identity():
    ok = True
    for fd in battery():
        p, s = fd.ctx.p, fd.scaled_dim
        det_C = perm_det([list(r) for r in fd.C])
        for n in (1, 2, 3):
            rebuilt = mn_poly_oracle(fd, n)
            det_poly = perm_det_poly(rebuilt)
            closed = [Fraction(det_C, p ** ((n + 1) * s))]
            for k in range(1, n + 1):
                phik = [Fraction(c) for c in phi_oracle(p, k)]
                for _ in range(s):
                    closed = pmul(closed, phik)
            if det_poly != closed:
                ok = False
            raw = build_Mn(fd, n).raw
            for i in range(fd.size):
                for j in range(fd.size):
                    want = rebuilt[i][j]
                    e = raw[i][j]
                    for idx in range(max(len(want), len(e.coeffs))):
                        w = want[idx] if idx < len(want) else Fraction(0)
                        if idx >= len(e.coeffs):
                            ok = ok and w == 0
                            continue
                        c = e.coeff(idx)
                        if c.is_zero_rep:
                            ok = ok and w == 0
                        else:
                            ok = ok and matches_rational(c, w)
            if not det_Mn(fd, n)["raw_match"]:
                ok = False
    assert emit(
        3, ok,
        "permutation-expansion determinant of the independently rebuilt "
        "product equals det(C) p^-(n+1)s times the cyclotomic powers for "
        "n = 1..3 on all 6 instances, and the library matrix matches the "
        "rebuild coefficient by coefficient",
    )


def _frac_mul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
             for j in range(len(B[0]))] for i in range(len(A))]


def _poly_const(M):
    """A Fraction matrix as a matrix of constant coefficient lists."""
    return [[ptrim([Fraction(x)]) for x in row] for row in M]


def _series_matches(e, want) -> bool:
    """A library polynomial agrees with an exact coefficient list."""
    return all(
        matches_rational(e.coeff(idx), want[idx] if idx < len(want) else 0)
        for idx in range(max(len(want), len(e.coeffs)))
    )


def _conjugation_recheck(fd, B, mv, dets, approx):
    """Re-check one adapted basis change B through the oracles.

    C_w = B C_phi B^-1 diag(I, p) is rebuilt with inv_oracle and both
    approximants with mn_poly_oracle (mv and dets hold M_n and det M_n
    of fd per level).  Returns, per level n, the defect
    M_n^w - B M_n B^-1 and whether det M_n^w = det M_n, plus a list of
    places where the library disagrees with the oracles."""
    p, g, f = fd.ctx.p, fd.size, fd.fil_dim
    Binv = inv_oracle(B)
    middle = _frac_mul(_frac_mul(B, fd.C_phi_frac()), Binv)
    C_w = [[middle[i][j] * (1 if j < f else p) for j in range(g)]
           for i in range(g)]
    problems = []
    if [list(row) for row in conjugated_instance(fd, B).C] != C_w:
        problems.append("conjugated_instance is not B C_phi B^-1 diag(I, p)")
    fd_w = FrobeniusData.create(fd.ctx, C_w, fd.d0, fd.r)
    rep = conjugate_basis_check(fd, B, levels=tuple(mv))
    out = {}
    for n, m in mv.items():
        moved = poly_mat_mul(poly_mat_mul(_poly_const(B), m),
                             _poly_const(Binv))
        lib = log_matrix_in_basis(approx[n], B)
        if not all(_series_matches(lib[i][j], moved[i][j])
                   for i in range(g) for j in range(g)):
            problems.append(f"log_matrix_in_basis is not B M_{n} B^-1")
        mw = mn_poly_oracle(fd_w, n)
        defect = [[padd(a, pscale(b, -1)) for a, b in zip(ra, rb)]
                  for ra, rb in zip(mw, moved)]
        omega = omega_oracle(p, n)
        exact = not any(e for row in defect for e in row)
        mod = not any(pdivmod(e, omega)[1] for row in defect for e in row)
        if (rep["levels"][n]["exact"], rep["levels"][n]["mod_omega"]) != (
                exact, mod):
            problems.append(
                f"conjugate_basis_check verdict at level {n} is "
                f"{rep['levels'][n]}, oracle says exact={exact}, "
                f"mod_omega={mod}")
        out[n] = {"defect": defect,
                  "det_equal": perm_det_poly(mw) == dets[n]}
    return out, problems


def test_criterion_04_basis_change_exactness():
    # The transport law for an adapted B = [[P, Q], [0, R]].  With
    # D_k = diag(I, Phi_{p^k}(1+X)/p I), so that C_k = D_k C_phi^-1, and
    # N = [[0, P^-1 Q], [0, 0]], one has B^-1 D_k B = D_k E_k where
    # E_k = I + (1 - Phi_{p^k}(1+X)/p) N.  Hence, with M_n^w the
    # approximant of the conjugated instance:
    #   (a) Q = 0: M_n^w = B M_n B^-1 exactly at every level;
    #   (b) Q != 0: M_1^w - B M_1 B^-1 is exactly
    #       (1 - Phi_p(1+X)/p) B C_phi^2 N C_phi^-1 B^-1, which is nonzero;
    #   (c) every adapted B: det M_n^w = det M_n, and the defect vanishes
    #       at X = 0 (E_k(0) = I), so the value at zero is transported.
    # Each random draw is checked together with its block-diagonal part
    # diag(P, R), which falls under (a).
    rng = random.Random(404)
    targets = [pollack_fd(), random_instance(3, 2, 1, 0),
               random_instance(3, 4, 2, 0)]
    levels = (1, 2)
    draws = 0
    counts = {"a": [0, 0], "b": [0, 0], "c": [0, 0]}
    problems = []
    for fd in targets:
        p, g, f = fd.ctx.p, fd.size, fd.fil_dim
        mv = {n: mn_poly_oracle(fd, n) for n in levels}
        dets = {n: perm_det_poly(m) for n, m in mv.items()}
        approx = {n: build_Mn(fd, n) for n in levels}
        cphi = fd.C_phi_frac()
        cphi_inv = inv_oracle(cphi)
        slack = padd([Fraction(1)], pscale(phi_oracle(p, 1), Fraction(-1, p)))
        for _ in range(10):
            B = random_adapted_B(fd, rng)
            draws += 1
            block_diag = [[B[i][j] if (i < f) == (j < f) else 0
                           for j in range(g)] for i in range(g)]
            changes = [block_diag] + ([B] if B != block_diag else [])
            for Bx in changes:
                got, bad = _conjugation_recheck(fd, Bx, mv, dets, approx)
                problems += [f"{msg} for B = {Bx}" for msg in bad]
                defects = [got[n]["defect"] for n in levels]
                counts["c"][1] += 1
                counts["c"][0] += (
                    all(got[n]["det_equal"] for n in levels)
                    and not any(e and e[0] for d in defects
                                for row in d for e in row))
                if Bx is block_diag:
                    counts["a"][1] += 1
                    counts["a"][0] += not any(e for d in defects
                                              for row in d for e in row)
                    continue
                P = [row[:f] for row in Bx[:f]]
                PQ = _frac_mul(inv_oracle(P), [row[f:] for row in Bx[:f]])
                N = [[PQ[i][j - f] if i < f <= j else Fraction(0)
                      for j in range(g)] for i in range(g)]
                K = Bx
                for factor in (cphi, cphi, N, cphi_inv, inv_oracle(Bx)):
                    K = _frac_mul(K, factor)
                closed = [[pscale(slack, x) for x in row] for row in K]
                counts["b"][1] += 1
                counts["b"][0] += (got[1]["defect"] == closed
                                   and any(e for row in closed for e in row))
    ok = (not problems and counts["b"][1] > 0
          and counts["a"][1] == draws
          and all(hit == total for hit, total in counts.values()))
    detail = (
        f"{draws} seed-404 adapted changes across 3 instances, levels "
        f"{levels}: (a) {counts['a'][0]} of {counts['a'][1]} block-diagonal "
        f"changes transport exactly; (b) {counts['b'][0]} of "
        f"{counts['b'][1]} changes with Q != 0 carry the closed-form "
        f"nonzero level-1 defect; (c) {counts['c'][0]} of "
        f"{counts['c'][1]} changes keep det M_n and the value at zero"
    )
    if problems:
        detail += (f"; {len(problems)} library disagreements, first: "
                   f"{problems[0]}")
    assert emit(4, ok, detail)


def test_criterion_05_factorization_roundtrips():
    rng = random.Random(505)
    ok = True
    count = 0
    for fd in battery():
        for _ in range(20):
            col = random_polynomial_vector(fd, rng)
            for n in (1, 2):
                got = roundtrip_check(fd, n, col)
                count += 1
                ok = ok and got["ok"]
    fd = pollack_fd()
    controls = 0
    for n, ints in ((1, [[0], [1]]), (2, [[1], [0]]), (1, [[0], [0, 1]])):
        comps = [reduce_mod_omega(XSeries.from_ints(fd.ctx, c), n)
                 for c in ints]
        with pytest.raises(NotInImage):
            factor_level(fd, n, comps)
        controls += 1
    assert emit(
        5, ok and controls == 3,
        f"{count} roundtrips across 6 instances at levels 1 and 2, and "
        f"{controls} vectors outside the image were rejected",
    )


def test_criterion_06_antidiagonal_closed_forms():
    ok = True
    for p in (3, 5):
        fd = pollack_instance(PadicContext(p, rel_prec=20, denom_budget=24))
        for n in (1, 2, 3):
            rep = verify_antidiagonal(fd, n)
            ok = (ok and rep["ok"] and rep["diagonal_zero"]
                  and rep["entries_match_closed_form"]
                  and rep["upper_is_minus_log_plus_partial"]
                  and rep["lower_is_p_log_minus_partial"]
                  and rep["value_at_zero_ok"])
    assert emit(
        6, ok,
        "checkerboard form, signed-logarithm partial products, and value "
        "at zero confirmed for n = 1..3 at p = 3 and p = 5",
    )


def _oracle_recheck_family(setup, vectors) -> tuple:
    """Brute-force admissibility re-check via permutation determinants:
    (all nonzero, all unit)."""
    g, m = setup.g, setup.g_minus
    nonzero = True
    unit = True
    for I in itertools.combinations(range(g), m):
        cols = [list(map(Fraction, vectors[i])) for i in I]
        cols += [list(v) for v in setup.fil0_dual]
        mat = [[cols[j][i] for j in range(g)] for i in range(g)]
        det = perm_det(mat)
        if det == 0:
            nonzero = False
            unit = False
        elif vp_rational(det, setup.ctx.p) != 0:
            unit = False
    return nonzero, unit


def test_criterion_07_constructors():
    start = time.time()
    ctx = PadicContext(3, rel_prec=20, denom_budget=24)
    shapes = [(2, 1), (4, 2), (6, 3), (4, 3), (6, 4),
              (2, 1), (4, 1), (6, 2), (4, 2), (6, 3)]
    phis = {
        2: [[2, 0], [0, 3]],
        4: [[2, 1, 0, 0], [0, 3, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]],
        6: [[2, 0, 0, 0, 0, 0], [1, 3, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0],
            [0, 0, 2, 0, 0, 0], [0, 0, 0, 0, 5, 0], [0, 0, 0, 0, 0, 2]],
    }
    ok = True
    for idx, (g, g_minus) in enumerate(shapes):
        g_plus = g - g_minus
        fil = [[int(j == g - 1 - i) for j in range(g)]
               for i in range(g_plus)]
        setup = LatticeSetup(ctx, g, g_minus, fil, phi_matrix=phis[g])
        cand = construct_admissible(setup)
        nonzero, _ = _oracle_recheck_family(setup, cand.vectors)
        basis_det = perm_det([[Fraction(cand.vectors[j][i])
                               for j in range(g)] for i in range(g)])
        ok = (ok and cand.admissible and nonzero and basis_det != 0
              and vp_rational(basis_det, 3) == 0)
        strong = construct_strongly_admissible(setup, seed=idx)
        nz_plain, _ = _oracle_recheck_family(setup, strong.vectors)
        phi = [[Fraction(x) for x in row] for row in phis[g]]
        one_minus = [[Fraction(int(i == j)) - phi[i][j] for j in range(g)]
                     for i in range(g)]
        p_phi_minus = [[3 * phi[i][j] - Fraction(int(i == j))
                        for j in range(g)] for i in range(g)]
        inv = inv_oracle(one_minus)
        T = [[sum(inv[i][k] * p_phi_minus[k][j] for k in range(g))
              for j in range(g)] for i in range(g)]
        moved = [
            [sum(T[i][j] * Fraction(v[j]) for j in range(g))
             for i in range(g)]
            for v in strong.vectors
        ]
        nz_moved, _ = _oracle_recheck_family(setup, moved)
        ok = ok and strong.strongly_admissible and nz_plain and nz_moved
    # a family with a repeated vector must be rejected
    setup2 = LatticeSetup(ctx, 3, 2, [[0, 0, 1]], phi_matrix=None)
    bad = is_admissible(setup2, [[1, 0, 0], [0, 1, 0], [1, 0, 0]])
    rejected = not bad.admissible
    elapsed = time.time() - start
    within = elapsed < 30.0
    assert emit(
        7, ok and rejected and within,
        f"10 setups with ranks 2, 4, 6: both constructors re-certified "
        f"by brute force, degenerate family rejected, in {elapsed:.2f}s",
    )


def test_criterion_08_lemma_operations():
    ctx = PadicContext(3, rel_prec=20, denom_budget=24)
    rng = random.Random(808)
    trials = 50
    ok = True

    def random_independent_rows(count, length):
        while True:
            rows = [[rng.randrange(-5, 6) for _ in range(length)]
                    for _ in range(count)]
            if count == 0 or rank_oracle(rows) == count:
                return rows

    for _ in range(trials):
        rank = rng.choice((2, 3, 4))
        hyps = [random_independent_rows(rank - 1, rank)
                for _ in range(rng.randrange(1, 4))]
        v = escape_union(ctx, rank, hyps)
        ok = ok and any(x % 3 for x in v)
        ok = ok and not any(in_span(H, v) for H in hyps)

    for _ in range(trials):
        while True:
            a, b, c, d = (rng.randrange(-6, 7) for _ in range(4))
            det = a * d - b * c
            if det != 0 and det % 3 != 0:
                break
        forbidden = [Fraction(rng.randrange(-4, 5),
                              rng.choice((1, 2, 5)))
                     for _ in range(rng.randrange(0, 4))]
        x, y = avoid_slopes(ctx, a, b, c, d, forbidden)
        den = c * x + d * y
        ok = ok and x % 3 != 0 and y % 3 != 0
        ok = ok and den != 0 and vp_rational(Fraction(den), 3) == 0
        ok = ok and Fraction(a * x + b * y, den) not in set(forbidden)

    for _ in range(trials):
        rank = rng.choice((2, 3))

        def summand_with_complement():
            while True:
                W = random_independent_rows(rank - 1, rank)
                vv = [rng.randrange(-5, 6) for _ in range(rank)]
                det = perm_det([list(r) for r in W] + [vv])
                if det != 0 and vp_rational(det, 3) == 0:
                    return W, vv

        W1, v1 = summand_with_complement()
        W2, v2 = summand_with_complement()
        avoid = []
        if rng.random() < 0.5:
            while True:
                H = random_independent_rows(rank - 1, rank)
                if not (in_span(H, v1) and in_span(H, v2)):
                    avoid.append(H)
                    break
        merged = merge_complement(ctx, rank, W1, v1, W2, v2,
                                  avoid_hyperplanes=avoid)
        for W in (W1, W2):
            det = perm_det([list(r) for r in W] + [list(merged)])
            ok = ok and det != 0 and vp_rational(det, 3) == 0
        for H in avoid:
            ok = ok and not in_span(H, merged)

    for _ in range(trials):
        m = rng.choice((2, 3))
        while True:
            basis = [[rng.randrange(-4, 5) for _ in range(m)]
                     for _ in range(m)]
            det = perm_det(basis)
            if det != 0 and vp_rational(det, 3) == 0:
                break
        k = rng.randrange(1, 3)
        out, mode = generic_position_extend(ctx, basis, k, mode="auto")
        for sub in itertools.combinations(out, m):
            det = perm_det([[col[i] for col in sub] for i in range(m)])
            ok = ok and det != 0
            if mode == "units":
                ok = ok and vp_rational(det, 3) == 0
        for w in out:
            ok = ok and in_span(basis, w)

    assert emit(
        8, ok,
        f"{trials} trials for each of the four lattice operations, every "
        f"output re-verified with permutation determinants and rational "
        f"rank checks",
    )


def test_criterion_09_tower_and_twist():
    start = time.time()
    fd = pollack_instance(wach_context(3))
    gamma = GammaElement(3, 4)
    trunc = 30
    ok = verify_p1_twist(fd, gamma, trunc)["identity_mod_pi"]
    tower = build_M_prime(fd, 3)
    ok = ok and verify_tower_congruence(tower, 2, 1)
    for n in (1, 2, 3):
        out = build_G_gamma(fd, n, gamma, trunc)
        ok = ok and out["exact"]
        G = out["G"]
        for i in range(2):
            for j in range(2):
                e = G[i][j]
                c0 = e[0] if e else Fraction(0)
                ok = ok and c0 == Fraction(int(i == j))
                ok = ok and all(c.denominator % 3 for c in e)
    for n in (1, 2):
        ok = ok and verify_commutation(fd, n, gamma, trunc)["ok"]
    elapsed = time.time() - start
    within = elapsed < 20.0
    assert emit(
        9, ok and within,
        f"p = 3, exponent 4, truncation {trunc}: connection twist, "
        f"integral twists with constant term I at n = 1..3, commutation "
        f"at n = 1, 2, tower congruence, in {elapsed:.2f}s",
    )


def test_criterion_10_admission_gate():
    fd = pollack_fd()
    rep = check_hypotheses(fd)
    accepted = (rep.ok and list(rep.charpoly) ==
                [Fraction(1, 3), Fraction(0), Fraction(1)])
    ctx = PadicContext(3, rel_prec=20, denom_budget=24)
    slope_clause = eigen_clause = cphi_clause = False
    try:
        FrobeniusData.create(ctx, [[1, 0], [0, 1]], d0=1)
    except HypothesisFailed as exc:
        msg = str(exc)
        slope_clause = "eigenvalue valuation -1 (x1) outside (-1, 0]" in msg
        eigen_clause = "1 is an eigenvalue of C_phi" in msg
    try:
        FrobeniusData.create(ctx, [[1, 0], [0, 3]], d0=1)
    except HypothesisFailed as exc:
        cphi_clause = "1 is an eigenvalue of C_phi" in str(exc)
    ok = accepted and slope_clause and eigen_clause and cphi_clause
    assert emit(
        10, ok,
        "gate admits the half-slope instance (characteristic polynomial "
        "x^2 + 1/3) and rejects both unit-root instances with the "
        "expected failure clauses",
    )
