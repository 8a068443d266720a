"""Connection-matrix towers and the gamma twist: exact recursion over
rational polynomials, integrality certification, structural identities."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from padlog import (
    INF,
    FrobeniusData,
    GammaElement,
    InputError,
    IntegralityViolation,
    PadicContext,
    PadicScalar,
    PrecisionExhausted,
    XSeries,
    build_G_gamma,
    build_M_prime,
    build_Pn,
    verify_cocycle,
    verify_commutation,
    verify_p1_twist,
    verify_tower_congruence,
    wach_context,
)
from padlog.linalg import form_from_fractions
from padlog.pollack import pollack_instance
from padlog.series import phi_cyclo_ints
from padlog.wach import (
    WachMatrixTower,
    _binom_shift,
    _gamma_powers,
    _pcompose,
    _power_matrix,
    _pseries_inv,
    gamma_act_poly,
    phi_act_poly,
)

from instances import random_instance
from oracles import (
    agree_mod_precision,
    binomial_power,
    inv_oracle,
    mn_poly_oracle,
    padd,
    pdivmod,
    phi_oracle,
    pmul,
    poly_mat_mul,
    ptrim,
    vp_rational,
)


def wach_fd(p=3):
    return pollack_instance(wach_context(p))


def test_binom_shift_frozen():
    # (1 + pi)^4 - 1 = 4 pi + 6 pi^2 + 4 pi^3 + pi^4
    assert _binom_shift(4) == [Fraction(c) for c in (0, 4, 6, 4, 1)]


def test_phi_act_is_substitution():
    # phi(pi^2) = ((1+pi)^p - 1)^2
    p = 3
    shift = [Fraction(c) for c in binomial_power(p)]
    shift[0] -= 1
    want = pmul(ptrim(shift), ptrim(shift))
    assert phi_act_poly(p, [Fraction(0), Fraction(0), Fraction(1)]) == want


def full_substitution(f, e):
    """f((1 + X)^e - 1) at full degree, by a route other than Horner in
    the substituted polynomial: with h(Y) = f(Y - 1), the composition is
    sum_j h_j (1 + X)^(e j)."""
    h = []
    for c in reversed(f):
        h = padd(pmul(h, [Fraction(-1), Fraction(1)]), [Fraction(c)])
    if not h:
        return []
    # sum over a common denominator: the terms are huge integers
    den = math.lcm(*(c.denominator for c in h))
    out = [0] * (e * (len(h) - 1) + 1)
    for j, hj in enumerate(h):
        a = int(hj * den)
        for k, b in enumerate(binomial_power(e * j)):
            out[k] += a * b
    return ptrim([Fraction(x, den) for x in out])


def sample_poly(p, degree):
    """A polynomial of exactly the given degree, with p in some
    denominators."""
    rng = random.Random(f"{p}-{degree}")
    coeffs = [Fraction(rng.randrange(-9, 10), p ** rng.randrange(3))
              for _ in range(degree)]
    return coeffs + [Fraction(rng.choice((-2, -1, 1, 2)), p)]


TRUNCS = (1, 2, 6, 20)


@pytest.mark.parametrize("T", TRUNCS)
@pytest.mark.parametrize("p,c", [(3, 4), (3, 28), (3, 82), (3, 244),
                                 (5, 6), (5, 26), (5, 126)])
def test_gamma_act_truncated_matches_full_composition(p, c, T):
    gamma = GammaElement(p, c)
    for f in ([], sample_poly(p, T + 2)):
        want = ptrim(full_substitution(f, c)[:T])
        assert gamma_act_poly(gamma, f, T) == want


@pytest.mark.parametrize("T", TRUNCS)
@pytest.mark.parametrize("p", (3, 5))
def test_phi_act_truncated_matches_full_composition(p, T):
    for f in ([], sample_poly(p, T + 2)):
        full = full_substitution(f, p)
        assert phi_act_poly(p, f) == full
        assert phi_act_poly(p, f, T) == ptrim(full[:T])


def test_substitution_rejects_nonzero_constant_term():
    f = [Fraction(1), Fraction(2)]
    g = [Fraction(1), Fraction(1)]
    with pytest.raises(InputError):
        _pcompose(f, g)
    with pytest.raises(InputError):
        _pcompose(f, g, 4)


# the Frobenius exponent p and the benchmark's gamma exponents
SHIFT_EXPONENTS = ([(3, e) for e in (3, 4, 10, 28, 82)]
                   + [(5, e) for e in (5, 6, 11, 26)])


@pytest.mark.parametrize("T", TRUNCS)
@pytest.mark.parametrize("p,e", SHIFT_EXPONENTS)
def test_power_matrix_rows_match_closed_form(p, e, T):
    # the coefficient of pi^j in ((1 + pi)^e - 1)^k is
    # sum_(i<=k) (-1)^(k-i) binom(k, i) binom(e i, j)
    S = _power_matrix(_binom_shift(e, T), T, T)
    assert len(S) == T
    for k, row in enumerate(S):
        want = [sum((-1) ** (k - i) * math.comb(k, i) * math.comb(e * i, j)
                    for i in range(k + 1)) for j in range(T)]
        assert all(type(x) is int for x in row)
        assert row + [0] * (T - len(row)) == want


@pytest.mark.parametrize("fd", [wach_fd(), random_instance(3, 4, 2, 1)],
                         ids=["size2", "size4"])
def test_twist_builds_the_power_matrix_once(fd, monkeypatch):
    # the power matrix of (1 + pi)^c - 1 mod pi^T depends only on (c, T):
    # a fresh pair builds it once, the same pair builds nothing on another
    # tower or for a scalar exponent with the same lift, and a new T
    # builds it once more
    calls = []

    def counted(*args, _fn=_power_matrix):
        calls.append(args[2])
        return _fn(*args)

    monkeypatch.setattr("padlog.wach._power_matrix", counted)
    _gamma_powers.cache_clear()
    tower = build_M_prime(fd, 2)
    other = build_M_prime(random_instance(3, 3, 1, 1), 2)
    for t, k, c, T, built in ((tower, 1, 4, 6, [6]), (other, 2, 4, 6, []),
                              (other, 1, fd.ctx.integer(4), 6, []),
                              (tower, 2, 4, 9, [9]), (tower, 2, 10, 12, [12]),
                              (other, 2, 10, 12, [])):
        calls.clear()
        t.twist(k, GammaElement(3, c), T)
        assert calls == built


@pytest.mark.parametrize("scalar", [False, True], ids=["integer", "scalar"])
def test_twist_from_the_cache_equals_a_fresh_twist(scalar):
    # each (c, T) read back from the cache, after other truncations of the
    # same c went in, gives the G of a cleared cache
    fd = random_instance(3, 4, 2, 1)
    tower = build_M_prime(fd, 2)
    gamma = GammaElement(3, fd.ctx.integer(10) if scalar else 10)
    truncs = (6, 12, 6, 9, 12)
    _gamma_powers.cache_clear()
    warm = [tower.twist(2, gamma, T)["G"] for T in truncs]
    for T, G in zip(truncs, warm):
        _gamma_powers.cache_clear()
        assert tower.twist(2, gamma, T)["G"] == G


@pytest.mark.parametrize("fd", [wach_fd(), random_instance(3, 4, 2, 1)],
                         ids=["size2", "size4"])
def test_twist_forms_fractions_only_for_G(fd, monkeypatch):
    # every stage of the twist runs on integer forms: an exact twist
    # makes one Fraction per coefficient of G and no other, and a scalar
    # twist rounds G straight from its integer form, making none
    tower = build_M_prime(fd, 2)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for k, T in ((1, 6), (2, 12)):
        made.clear()
        G = tower.twist(k, GammaElement(3, 4), T)["G"]
        coefficients = sum(len(e) for row in G for e in row)
        assert len(made) == coefficients
        made.clear()
        out = tower.twist(k, GammaElement(3, fd.ctx.integer(4)), T)
        assert not out["exact"] and made == []


@pytest.mark.parametrize("T", TRUNCS)
@pytest.mark.parametrize("p", (3, 5))
def test_series_inverse_mod_pi_T(p, T):
    # p-power denominators and constant terms other than 1, inverted on
    # the integer numerators F = d f: 1 / f = d H / den
    tail = sample_poly(p, 6)[1:]
    for c0 in (Fraction(-2, p ** 2), Fraction(p - 1), Fraction(7, p)):
        f = [c0] + tail
        d = math.lcm(*(c.denominator for c in f))
        H, den = _pseries_inv([int(c * d) for c in f], T)
        inv = [Fraction(d * h, den) for h in H]
        assert len(inv) <= T
        assert ptrim(pmul(f, inv)[:T]) == [1]
    with pytest.raises(InputError):
        _pseries_inv([0, 1], T)


def test_gamma_act_requires_integer():
    ctx = PadicContext(3, rel_prec=10, denom_budget=12)
    g = GammaElement(3, ctx.integer(4))
    with pytest.raises(InputError):
        gamma_act_poly(g, [Fraction(1)])


def test_gamma_element_validation():
    with pytest.raises(InputError):
        GammaElement(3, 2)  # not 1 mod 3
    with pytest.raises(InputError):
        GammaElement(3, 0)
    ctx5 = PadicContext(5, rel_prec=10, denom_budget=12)
    with pytest.raises(InputError):
        GammaElement(3, ctx5.integer(4))  # wrong prime
    ctx = PadicContext(3, rel_prec=10, denom_budget=12)
    with pytest.raises(InputError):
        GammaElement(3, ctx.integer(2))  # not 1 mod 3
    assert GammaElement.default(3).c == 4


@pytest.mark.parametrize("c", (Fraction(9, 2), 4.5, True, "4"))
def test_gamma_element_rejects_exponents_that_are_not_ints(c):
    # int(c) would read each of these as another group element
    with pytest.raises(InputError):
        GammaElement(3, c)


@pytest.mark.parametrize("p", (3, 5))
def test_gamma_element_accepts_exactly_scalars_known_one_mod_p(p):
    # read off the triple: p^v u + O(p^(v + prec)) is known mod p when
    # v >= 0 and v + prec >= 1, and then it is u mod p at v = 0 and 0 mod
    # p at v > 0; the zero O(p^prec) is known mod p when prec >= 1
    ctx = PadicContext(p, rel_prec=3, denom_budget=3)
    triples = [(v, u, prec) for v in range(-3, 3) for prec in range(1, 4)
               for u in range(1, p ** prec) if u % p]
    triples += [(INF, None, prec) for prec in (0, 1, 2, INF)]
    for v, u, prec in triples:
        if u is None:
            known, residue = prec >= 1, 0
        else:
            known, residue = v >= 0 and v + prec >= 1, u % p if v == 0 else 0
        try:
            GammaElement(p, PadicScalar(ctx, v, u, prec))
            accepted = True
        except InputError:
            accepted = False
        assert accepted == (known and residue == 1), (v, u, prec)


@pytest.mark.parametrize("c", (1, 2))
def test_gamma_element_rejects_exponent_of_unknown_residue(c):
    # at abs_prec 0 nothing is known mod p, so c - 1 is O(p^0) and is
    # not certified divisible by p
    ctx = PadicContext(3, rel_prec=10, denom_budget=12)
    with pytest.raises(InputError):
        GammaElement(3, ctx.from_rational(c, abs_prec=0))


def test_p1_frozen_shapes():
    fd = wach_fd()
    data = build_Pn(fd, 1)
    q = list(phi_cyclo_ints(3, 1))
    # qP = C diag(q, 1) = [[0, -1], [q, 0]]
    assert data["qP"] == [[[], [Fraction(-1)]], [q, []]]
    # P_inv = diag(1, q) C^{-1} = [[0, 1], [-q, 0]]
    assert data["P_inv"] == [[[], [Fraction(1)]],
                             [[-c for c in q], []]]
    assert data["q_n"] == q


def test_m_prime_level_one_diagonal():
    fd = wach_fd()
    tower = build_M_prime(fd, 1)
    M1 = tower.matrix(1)
    q_over_p = [Fraction(c, 3) for c in phi_cyclo_ints(3, 1)]
    assert M1 == [[q_over_p, []], [[], [Fraction(1)]]]


def test_m_prime_value_at_zero():
    fd = wach_fd()
    tower = build_M_prime(fd, 3)
    for k in (1, 2, 3):
        assert tower.value_at_zero_is_identity(k)


def test_tower_congruence_exact():
    fd = wach_fd()
    tower = build_M_prime(fd, 3)
    assert verify_tower_congruence(tower, 2, 1)
    assert verify_tower_congruence(tower, 3, 1)
    assert verify_tower_congruence(tower, 3, 2)
    with pytest.raises(InputError):
        verify_tower_congruence(tower, 1, 2)


def test_tower_congruence_is_sharp():
    # M'_2 - M'_1 is NOT zero mod omega_2, only mod omega_1
    fd = wach_fd()
    tower = build_M_prime(fd, 2)
    from padlog.series import omega_ints
    w2 = [Fraction(c) for c in omega_ints(3, 2)]
    diff = [
        [
            pdivmod(
                [a - b for a, b in
                 zip(tower.matrix(2)[i][j] + [Fraction(0)] * 40,
                     tower.matrix(1)[i][j] + [Fraction(0)] * 40)],
                w2,
            )[1]
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert any(any(e) for row in diff for e in row)


def test_g_twist_exact_integral_identity_constant():
    fd = wach_fd()
    g = GammaElement.default(3)
    for n in (1, 2, 3):
        out = build_G_gamma(fd, n, g, 30)
        assert out["exact"]
        G = out["G"]
        for i in range(2):
            for j in range(2):
                e = G[i][j]
                c0 = e[0] if e else Fraction(0)
                assert c0 == Fraction(int(i == j))
                for c in e:
                    assert c.denominator % 3 != 0


def test_p1_twist_identity_mod_pi():
    fd = wach_fd()
    rep = verify_p1_twist(fd, GammaElement.default(3), 30)
    assert rep["identity_mod_pi"]


def test_commutation_low_levels():
    fd = wach_fd()
    g = GammaElement.default(3)
    for n in (1, 2):
        rep = verify_commutation(fd, n, g, 30)
        assert rep["ok"], rep["mismatch"]


def test_cocycle_identity():
    fd = wach_fd()
    rep = verify_cocycle(fd, 1, 4, 7, 24)
    assert rep["ok"]
    rep2 = verify_cocycle(fd, 2, 4, 4, 24)
    assert rep2["ok"]


def test_scalar_path_matches_exact_path():
    fd = wach_fd()
    ctx = fd.ctx
    exact = build_G_gamma(fd, 1, GammaElement(3, 4), 12)
    series = build_G_gamma(fd, 1, GammaElement(3, ctx.integer(4)), 12)
    assert exact["exact"] and not series["exact"]
    assert series["constant_is_identity"] and series["integral"]
    for i in range(2):
        for j in range(2):
            assert agree_mod_precision(series["G"][i][j].coeffs,
                                       exact["G"][i][j][:12], ctx.p)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (5, 2)])
@pytest.mark.parametrize("kind", ("antidiagonal", "random"))
def test_scalar_path_matches_exact_path_across_levels(p, n, kind):
    # the random instance has a non-diagonal tower, unlike the
    # antidiagonal one
    if kind == "random":
        fd = random_instance(p, 2, 1, 0, rel_prec=60, denom_budget=64)
    else:
        fd = wach_fd(p)
    ctx = fd.ctx
    tower = build_M_prime(fd, n)
    exact = tower.twist(n, GammaElement(p, 1 + p), 12)
    series = tower.twist(n, GammaElement(p, ctx.integer(1 + p)), 12)
    assert exact["exact"] and not series["exact"]
    assert series["constant_is_identity"] and series["integral"]
    for i in range(2):
        for j in range(2):
            assert agree_mod_precision(series["G"][i][j].coeffs,
                                       exact["G"][i][j][:12], ctx.p)


@pytest.mark.parametrize("p,c", [(3, 82), (5, 26)])
def test_twist_identity_at_large_exponent(p, c):
    # M'_2 G = gamma(M'_2) mod pi^T, with gamma(M'_2) composed at full
    # degree by the test, not by the library
    n, T = 2, 20
    for fd in (wach_fd(p), random_instance(p, 2, 1, 0)):
        tower = build_M_prime(fd, n)
        M = tower.matrix(n)
        G = tower.twist(n, GammaElement(p, c), T)["G"]
        lhs = [[ptrim(e[:T]) for e in row] for row in poly_mat_mul(M, G)]
        rhs = [[ptrim(full_substitution(e, c)[:T]) for e in row]
               for row in M]
        assert lhs == rhs


def truncated_substitution(f, e, T):
    """f((1 + X)^e - 1) mod X^T, by Horner's rule in the oracle's
    polynomial product; the binomials come straight from math.comb."""
    shift = ptrim([Fraction(0)] + [Fraction(math.comb(e, i))
                                   for i in range(1, T)])
    out = []
    for c in reversed(f[:T]):
        out = padd(ptrim(pmul(out, shift)[:T]), [Fraction(c)])
    return out


def solve_unipotent(M, R, T):
    """X with M X = R mod X^T, for M(0) = I, by forward substitution
    on the coefficient matrices."""
    g = len(M)

    def at(A, d):
        return [[e[d] if d < len(e) else Fraction(0) for e in row]
                for row in A]

    Ms = [at(M, d) for d in range(T)]
    Xs = []
    for d in range(T):
        X = at(R, d)
        for a in range(1, d + 1):
            for i in range(g):
                for j in range(g):
                    X[i][j] -= sum(Ms[a][i][m] * Xs[d - a][m][j]
                                   for m in range(g))
        Xs.append(X)
    return [[[Xs[d][i][j] for d in range(T)] for j in range(g)]
            for i in range(g)]


def scalar_value(a):
    """The rational that a packaged scalar stores."""
    return Fraction(0) if a.is_zero_rep else Fraction(a.p) ** a.v * a.u


@pytest.mark.parametrize("T", (9, 12, 20))
@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_lifted_twist_agrees_with_both_lifts(p, n, T):
    # c = 1/(1 - p) is no integer; the twist is certified mod p^(N_j) at
    # degree j, so it must agree there with the exact twists at the lift
    # c0 and at c0 + p^N, whose right-hand sides gamma(M'_n) mod pi^T the
    # test composes through the oracle's polynomial product.  c is taken
    # at the full 40 digits and at 20, below the context's precision.
    cases = itertools.product(
        (pollack_instance(wach_context(p, 40)),
         random_instance(p, 2, 1, 0, rel_prec=40, denom_budget=64)),
        (40, 20))
    for fd, N in cases:
        c = fd.ctx.from_rational(Fraction(1, 1 - p), abs_prec=N)
        assert c.abs_prec() == N
        tower = build_M_prime(fd, n)
        out = tower.twist(n, GammaElement(p, c), T)
        assert not out["exact"]
        assert out["integral"] and out["constant_is_identity"]
        M = [[ptrim(e[:T]) for e in row] for row in tower.matrix(n)]
        for e in (c.lift(), c.lift() + p ** N):
            rhs = [[truncated_substitution(f, e, T) for f in row]
                   for row in M]
            want = solve_unipotent(M, rhs, T)
            for i, row in enumerate(out["G"]):
                for j, xs in enumerate(row):
                    assert len(xs.coeffs) == T
                    for d, a in enumerate(xs.coeffs):
                        assert 1 <= a.abs_prec() <= N
                        err = vp_rational(scalar_value(a) - want[i][j][d],
                                          p)
                        assert err is None or err >= a.abs_prec()


@pytest.mark.parametrize("p", (3, 5))
def test_scalar_twist_claims_the_floor_log_bound(p):
    # degree j is certified to N_j = N - floor(log_p j) - d_M - d_inv
    # digits (floor(log_p 0) read as 0), with d_M and d_inv the depths of
    # M'_n and of its inverse mod pi^T; the exact twists at the lifts c0
    # and c0 + p^N agree to N_j
    n, T, N = 1, 20, 30
    fd = random_instance(p, 2, 1, 0, rel_prec=40, denom_budget=64)
    c = fd.ctx.from_rational(Fraction(1, 1 - p), abs_prec=N)
    tower = build_M_prime(fd, n)
    out = tower.twist(n, GammaElement(p, c), T)
    M = [[ptrim(e[:T]) for e in row] for row in tower.matrix(n)]
    ident = [[[Fraction(int(i == j))] for j in range(2)] for i in range(2)]

    def depth(A):
        return min([0] + [vp_rational(x, p) for row in A for e in row
                          for x in e if x])

    d = depth(M) + depth(solve_unipotent(M, ident, T))
    floor_log = [0] + [max(k for k in range(T) if p ** k <= j)
                       for j in range(1, T)]
    want = [N - floor_log[j] + d for j in range(T)]
    assert want[-1] >= 1
    for row in out["G"]:
        for xs in row:
            assert [a.abs_prec() for a in xs.coeffs] == want
    G0, G1 = (solve_unipotent(M, [[truncated_substitution(f, e, T)
                                   for f in row] for row in M], T)
              for e in (c.lift(), c.lift() + p ** N))
    for i, j, k in itertools.product(range(2), range(2), range(T)):
        diff = G0[i][j][k] - G1[i][j][k]
        assert diff == 0 or vp_rational(diff, p) >= want[k]
        # each coefficient is the exact twist at the lift, rounded once
        assert out["G"][i][j].coeffs[k] == fd.ctx.from_rational(G0[i][j][k],
                                                                want[k])


def test_scalar_twist_makes_no_series_arithmetic(monkeypatch):
    calls = []
    def counted(self, *args, _fn=XSeries.__mul__):
        calls.append("__mul__")
        return _fn(self, *args)
    monkeypatch.setattr(XSeries, "__mul__", counted)
    fd = random_instance(3, 2, 1, 0, rel_prec=40, denom_budget=64)
    c = fd.ctx.from_rational(Fraction(1, -2))
    out = build_M_prime(fd, 2).twist(2, GammaElement(3, c), 12)
    assert not out["exact"] and out["integral"]
    assert calls == []


@pytest.mark.parametrize("p", (3, 5))
def test_scalar_twist_precision_exhaustion(p):
    # 5 digits of c do not cover floor(log_p 19) and the two
    # denominator depths at degree 19
    fd = random_instance(p, 2, 1, 0, rel_prec=5, denom_budget=64)
    c = fd.ctx.from_rational(Fraction(1, 1 - p))
    tower = build_M_prime(fd, 1)
    with pytest.raises(PrecisionExhausted):
        tower.twist(1, GammaElement(p, c), 20)


def test_wach_rejects_higher_r():
    ctx = wach_context(3)
    fd = random_instance(3, 4, 2, 0)
    fd2 = FrobeniusData.create(ctx, fd.C, d0=1, r=2, force=True)
    with pytest.raises(InputError):
        build_M_prime(fd2, 1)


def test_gl4_tower_also_works():
    fd = random_instance(3, 4, 2, 1)
    tower = build_M_prime(fd, 2)
    assert tower.value_at_zero_is_identity(1)
    assert tower.value_at_zero_is_identity(2)
    assert verify_tower_congruence(tower, 2, 1)
    out = build_G_gamma(fd, 1, GammaElement.default(3), 16)
    assert out["exact"]


def test_rank_one_tower_twists_to_the_identity():
    # size 1: the adjugate of a 1 x 1 matrix is [[1]]
    fd = FrobeniusData.create(PadicContext(3), [[2]], d0=1)
    out = build_G_gamma(fd, 2, GammaElement(3, 4), 5)
    assert out["exact"] and out["G"] == [[[1]]]


def test_twist_rejects_nonpositive_trunc():
    tower = build_M_prime(wach_fd(), 1)
    with pytest.raises(InputError):
        tower.twist(1, GammaElement.default(3), 0)


def test_twist_rejects_determinant_with_constant_term_not_one():
    level = [[[Fraction(2)], []], [[], [Fraction(1)]]]
    tower = WachMatrixTower(wach_fd(), 1, [form_from_fractions(level)])
    with pytest.raises(InputError):
        tower.twist(1, GammaElement.default(3), 8)


def test_twist_integrality_violation_carries_witness():
    # M = [[1, pi/3], [0, 1]] gives G = [[1, (g - pi)/3], [0, 1]] with
    # g = (1 + pi)^4 - 1, whose pi^3 coefficient is 4/3
    level = [[[Fraction(1)], [Fraction(0), Fraction(1, 3)]],
             [[], [Fraction(1)]]]
    tower = WachMatrixTower(wach_fd(), 1, [form_from_fractions(level)])
    with pytest.raises(IntegralityViolation) as info:
        tower.twist(1, GammaElement(3, 4), 8)
    assert info.value.witness == {"entry": (0, 1), "degree": 3,
                                  "value": "4/3"}


def const(M):
    return [[ptrim([x]) for x in row] for row in M]


@pytest.mark.parametrize("fd", [wach_fd(), random_instance(3, 2, 1, 0)],
                         ids=["antidiagonal", "random"])
def test_tower_is_the_shared_chain(fd):
    # M'_k = C_phi^-1 M_k with M_k rebuilt by the oracle, and M'_k
    # satisfies the recursion C_phi phi(M'_(k-1)) P_1^-1 from M'_0 = I,
    # with phi applied by full_substitution and
    # P_1^-1 = diag(I, Phi_p(1 + pi) I) C^-1
    p, g, f = fd.ctx.p, fd.size, fd.fil_dim
    C = [[Fraction(x) for x in row] for row in fd.C]
    cphi = [[C[i][j] if j < f else C[i][j] / p for j in range(g)]
            for i in range(g)]
    cinv = inv_oracle(C)
    q = [Fraction(c) for c in phi_oracle(p, 1)]
    p1_inv = [[ptrim([x]) if i < f else ptrim([x * c for c in q])
               for x in row] for i, row in enumerate(cinv)]
    tower = build_M_prime(fd, 3)
    prev = const([[Fraction(int(i == j)) for j in range(g)]
                  for i in range(g)])
    for k in (1, 2, 3):
        want = poly_mat_mul(const(inv_oracle(cphi)), mn_poly_oracle(fd, k))
        assert tower.matrix(k) == want
        moved = [[full_substitution(e, p) for e in row] for row in prev]
        prev = poly_mat_mul(poly_mat_mul(const(cphi), moved), p1_inv)
        assert tower.matrix(k) == prev
