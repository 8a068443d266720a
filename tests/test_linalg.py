"""Exact rational linear algebra: determinants, characteristic
polynomials, Newton hulls, and integral normal forms."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlog import INF, InputError, NotInImage, SingularOperator
from padlog.linalg import (
    _reduced,
    cofactor_det,
    form_from_fractions,
    form_mul,
    form_sub,
    form_to_fractions,
    form_witness,
    fp_rank,
    fpoly_mul,
    frac_charpoly,
    frac_det,
    frac_identity,
    frac_inv,
    frac_mat,
    frac_nullspace,
    frac_rank,
    frac_solve,
    hull_root_valuations,
    int_dot,
    int_trim,
    mat_mul,
    newton_lower_hull,
    pseudo_divmod,
    smith_zp,
    vp_frac,
    zp_nullspace,
    zp_solve_integral,
)

from oracles import (
    charpoly_oracle,
    in_span,
    in_zp_span,
    inv_oracle,
    lower_hull_oracle,
    omega_oracle,
    padd,
    pdivmod,
    perm_det,
    perm_det_poly,
    pmul,
    poly_mat_mul,
    ptrim,
    rank_mod_p,
    rank_oracle,
    vp_rational,
)


def rand_mat(rng, n, lo=-9, hi=9):
    return [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(n)]


def test_det_matches_permutation_expansion():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            A = rand_mat(rng, n)
            assert frac_det(A) == perm_det(A)


def test_charpoly_matches_oracle():
    assert frac_charpoly([]) == [Fraction(1)]
    rng = random.Random(12)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(5):
            A = rand_mat(rng, n, -5, 5)
            assert frac_charpoly(A) == charpoly_oracle(A)
    # rational entries with p-power denominators, as in C_phi, mixed with
    # unit denominators
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(4):
                A = [[Fraction(rng.randrange(-9, 10),
                               rng.choice((1, 7, p, p ** 2, p ** 3)))
                      for _ in range(n)] for _ in range(n)]
                assert frac_charpoly(A) == charpoly_oracle(A)


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(13)
    for n in (2, 3, 4):
        A = rand_mat(rng, n)
        cp = frac_charpoly(A)
        assert cp[0] == (-1) ** n * perm_det(A)


def test_inv_and_solve():
    A = [[2, 1], [7, 4]]
    Ainv = frac_inv(A)
    assert mat_mul(frac_mat(A), Ainv) == frac_identity(2)
    x = frac_solve(A, [1, 0])
    assert [sum(Fraction(A[i][j]) * x[j] for j in range(2))
            for i in range(2)] == [Fraction(1), Fraction(0)]
    with pytest.raises(SingularOperator):
        frac_inv([[1, 2], [2, 4]])


def test_nullspace_annihilates():
    A = [[1, 2, 3], [2, 4, 6]]
    ns = frac_nullspace(A)
    assert len(ns) == 2
    for v in ns:
        assert all(
            sum(Fraction(A[i][j]) * v[j] for j in range(3)) == 0
            for i in range(2)
        )


def test_rank_matches_oracle():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.choice((2, 3, 4))
        A = rand_mat(rng, n, -3, 3)
        assert frac_rank(A) == rank_oracle(A)


def test_fp_rank_small_cases():
    assert fp_rank([[1, 0], [0, 3]], 3) == 1
    assert fp_rank([[1, 1], [1, 2]], 3) == 2
    assert fp_rank([[1, 2], [2, 1]], 3) == 1  # det = -3 vanishes mod 3
    assert fp_rank([[3, 6], [9, 3]], 3) == 0
    assert fp_rank([[Fraction(1, 2), 1]], 3) == 1
    with pytest.raises(InputError):
        fp_rank([[Fraction(1, 3)]], 3)


def test_fp_rank_bounded_by_frac_rank():
    rng = random.Random(15)
    for _ in range(20):
        A = rand_mat(rng, 3, -6, 6)
        assert fp_rank(A, 3) <= frac_rank(A)


def test_newton_hull_matches_bruteforce():
    cases = [
        [(0, 2), (1, 0), (2, 0), (3, 1)],
        [(0, 0), (1, 5), (2, 1), (5, 0)],
        [(0, 3), (2, 1), (4, 0), (6, 2)],
    ]
    for pts in cases:
        assert newton_lower_hull(pts) == lower_hull_oracle(pts)


def test_hull_root_valuations_frozen():
    # x^2 + (1/p): points (0, -1), (2, 0); one segment of slope 1/2
    hull = newton_lower_hull([(0, -1), (2, 0)])
    assert hull_root_valuations(hull) == [(Fraction(-1, 2), 2)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-5, 5)),
                min_size=2, max_size=8, unique_by=lambda t: t[0]))
def test_hull_property(points):
    hull = newton_lower_hull(points)
    assert hull == lower_hull_oracle(points)
    # every input point lies on or above every hull segment
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        for (x, y) in points:
            if x1 <= x <= x2:
                assert (y - y1) * (x2 - x1) >= (y2 - y1) * (x - x1)


def test_smith_zp_contract():
    rng = random.Random(16)
    p = 3
    for _ in range(12):
        n = rng.choice((2, 3))
        A = rand_mat(rng, n, -9, 9)
        snf = smith_zp(A, p)
        D, P, Q = snf["D"], snf["P"], snf["Q"]
        # D = P A Q exactly
        assert mat_mul(mat_mul(P, frac_mat(A)), Q) == D
        # transforms are p-integral with unit determinant
        for T in (P, Q, snf["Qinv"]):
            assert all(vp_frac(x, p) >= 0 for row in T for x in row)
            assert vp_frac(frac_det(T), p) == 0
        # Q Qinv = I
        assert mat_mul(Q, snf["Qinv"]) == frac_identity(n)
        # pivot valuations are nondecreasing and D is diagonal on pivots
        vals = [v for _, v in snf["pivots"]]
        assert vals == sorted(vals)
        for k, v in snf["pivots"]:
            assert vp_frac(D[k][k], p) == v


def test_zp_solve_integral_positive():
    p = 3
    cols = [[1, 0], [1, 3]]
    x = zp_solve_integral(cols, [2, 3], p)
    assert all(vp_rational(xi, p) >= 0 for xi in x)
    got = [sum(Fraction(cols[j][i]) * x[j] for j in range(2))
           for i in range(2)]
    assert got == [Fraction(2), Fraction(3)]


def test_zp_solve_integral_negative():
    p = 3
    # target needs coefficient 1/3 on the second column
    with pytest.raises(NotInImage):
        zp_solve_integral([[1, 0], [0, 3]], [0, 1], p)
    # inconsistent system
    with pytest.raises(NotInImage):
        zp_solve_integral([[1, 0]], [0, 1], p)


def test_zp_solve_integral_rejects_mismatched_lengths():
    # a longer target was cut to the columns' length, a shorter one
    # raised IndexError
    cases = [
        ([[1, 0], [0, 1]], [1, 2, 5]),
        ([[1, 0], [0, 1]], [1]),
        ([[1, 0], [0]], [1, 2]),
        ([[1, 0]], []),
    ]
    for cols, target in cases:
        with pytest.raises(InputError):
            zp_solve_integral(cols, target, 3)


def test_zp_solve_integral_particular_solution_on_dependent_columns():
    # the second column repeats the first: the solution is the first
    # saturated kernel vector of [columns | -target] with a unit last
    # coordinate, which is 0 at the repeated column
    assert zp_solve_integral([[0, 1], [0, 1], [-1, 0]], [1, 1], 3) == [
        1, 0, -1]
    assert zp_solve_integral([[0, 1], [0, 1], [1, 0]], [0, 3], 3) == [
        3, 0, 0]


def _random_system(rng):
    """(columns, target, p): up to 4 columns of length up to 4, some
    dependent, with p-power denominators; half the targets are
    combinations of the columns, a fifth of those perturbed."""
    p = rng.choice((2, 3, 5))
    n, k = rng.randint(1, 4), rng.randint(1, 4)
    r = rng.randint(0, min(n, k))

    def entry():
        return Fraction(rng.randint(-4, 4), p ** rng.randrange(2))

    cols = [[entry() for _ in range(n)] for _ in range(r)]
    for _ in range(k - r):
        coeffs = [rng.randint(-2, 2) * Fraction(p) ** rng.randrange(-1, 2)
                  for _ in range(r)]
        cols.append([sum((c * col[i] for c, col in zip(coeffs, cols)),
                         Fraction(0)) for i in range(n)])
    rng.shuffle(cols)
    if rng.random() < 0.5:
        x = [Fraction(rng.randint(-4, 4), p ** rng.choice((0, 0, 1)))
             for _ in range(k)]
        w = [sum(xj * col[i] for xj, col in zip(x, cols)) for i in range(n)]
        if rng.random() < 0.2:
            w[rng.randrange(n)] += Fraction(p) ** rng.randrange(-1, 2)
    else:
        w = [entry() for _ in range(n)]
    return cols, w, p


def test_zp_solve_integral_matches_the_span_oracle():
    rng = random.Random(39)
    verdicts = set()
    for _ in range(300):
        cols, w, p = _random_system(rng)
        member = in_zp_span(cols, w, p)
        verdicts.add(member)
        if not member:
            with pytest.raises(NotInImage):
                zp_solve_integral(cols, w, p)
            continue
        x = zp_solve_integral(cols, w, p)
        assert len(x) == len(cols)
        assert all(vp_rational(xj, p) is None or vp_rational(xj, p) >= 0
                   for xj in x)
        assert [sum(xj * col[i] for xj, col in zip(x, cols))
                for i in range(len(w))] == w
    assert verdicts == {True, False}


def _is_integral_kernel_basis(A, basis, p):
    """Integer vectors killed by A, independent mod p, one per dimension
    of ker A, spanning the rational kernel that frac_nullspace finds."""
    cols = len(A[0])
    assert len(basis) == cols - rank_oracle(A)
    assert rank_mod_p(basis, p) == len(basis)
    for v in basis:
        assert len(v) == cols and all(type(x) is int for x in v)
        assert _apply(A, v) == [0] * len(A)
    ns = frac_nullspace(A)
    assert all(in_span(basis, w) for w in ns)
    assert all(in_span(ns, v) for v in basis)


def test_zp_nullspace_divides_out_p():
    # frac_nullspace gives (-1/3, -1/3, 1, 0) and (-1/3, -1/3, 0, 1);
    # cleared of denominators they differ by 3 (0, 0, 1, -1)
    p = 3
    A = [[3, 0, 1, 1], [0, 3, 1, 1]]
    basis = zp_nullspace(A, p)
    _is_integral_kernel_basis(A, basis, p)
    cleared = [[int(3 * x) for x in v] for v in frac_nullspace(A)]
    with pytest.raises(NotInImage):
        zp_solve_integral(cleared, [0, 0, 1, -1], p)
    zp_solve_integral(basis, [0, 0, 1, -1], p)
    for v in cleared:
        zp_solve_integral(basis, v, p)


def test_zp_nullspace_rank_deficient():
    p = 3
    A = [[3, 6, 9], [1, 2, 3], [0, 0, 3]]
    basis = zp_nullspace(A, p)
    assert basis == [[-2, 1, 0]]
    _is_integral_kernel_basis(A, basis, p)


def test_zp_nullspace_of_zero_and_of_full_column_rank():
    assert zp_nullspace([[0, 0, 0], [0, 0, 0]], 3) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert zp_nullspace([[0, Fraction(0)]], 5) == [[1, 0], [0, 1]]
    # full column rank, with and without a determinant divisible by p
    assert zp_nullspace([[1, 2], [3, 4], [5, 6]], 3) == []
    assert zp_nullspace([[3, 0], [0, 9]], 3) == []


def test_zp_nullspace_with_p_in_the_denominator():
    p = 3
    A = [[Fraction(1, 3), Fraction(2, 9)]]
    assert zp_nullspace(A, p) == [[2, -3]]
    A = [[Fraction(1, 3), Fraction(1, 9), 1],
         [Fraction(2, 27), 0, Fraction(5, 3)]]
    _is_integral_kernel_basis(A, zp_nullspace(A, p), p)


def test_zp_nullspace_is_a_saturated_kernel_basis():
    rng = random.Random(38)
    for A in rectangular_cases(38, 120):
        p = rng.choice((2, 3, 5))
        # columns scaled by powers of p, so that the kernel vectors cleared
        # of denominators are often divisible by p
        scale = [p ** rng.randrange(3) for _ in A[0]]
        A = [[x * s for x, s in zip(row, scale)] for row in A]
        _is_integral_kernel_basis(A, zp_nullspace(A, p), p)


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=5)
small_rational_polys = st.lists(
    st.builds(Fraction, st.integers(-9, 9),
              st.sampled_from((1, 2, 3, 4, 9, 25))),
    min_size=0, max_size=5)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_rational_polys, small_rational_polys,
       st.sampled_from((None, 0, 1, 3)))
def test_fpoly_mul_matches_oracle(a, b, ra, rb, T):
    # integer tuples (as phi_cyclo_ints gives), rationals with mixed
    # denominators and the two mixed, against the truncated oracle product
    for f, g in ((tuple(a), tuple(b)), (ra, rb), (ra, tuple(b)),
                 (list(a), rb)):
        out = fpoly_mul(f, g, T)
        assert out == ptrim(pmul(f, g)[:T])
        assert all(type(c) is Fraction for c in out)
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    # a + b as the difference of the forms of a and -b
    total = form_sub(form_from_fractions([[fa]]),
                     form_from_fractions([[[-c for c in fb]]]))
    assert form_to_fractions(total)[0][0] == padd(fa, fb)


def divmod_on_forms(f, g):
    """(q, r) with f = q g + r and deg r < deg g: with f = F/df and
    g = G/dg over their integer forms, lead^m F = Q G + R is the integer
    pseudo-division, so q = Q dg / (lead^m df) and r = R / (lead^m df)."""
    ((F,),), df = form_from_fractions([[f]])
    ((G,),), dg = form_from_fractions([[g]])
    Q, R, scale = pseudo_divmod(F, ptrim(G))
    q, r = form_to_fractions(([[[c * dg for c in Q], R]], scale * df))[0]
    return q, r


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_fpoly_divmod_and_eval(a, b):
    fb = [Fraction(c) for c in b]
    if not any(fb):
        return
    fa = [Fraction(c) for c in a]
    q, r = divmod_on_forms(fa, fb)
    assert padd(pmul(q, fb), r) == ptrim(fa)


# -- oracle checks on random rectangular, rank-deficient, singular and
# -- Fraction-entry matrices


def _entry(rng, dens):
    return Fraction(rng.randrange(-5, 6), rng.choice(dens))


def _random_matrix(rng, rows, cols, dens):
    return [[_entry(rng, dens) for _ in range(cols)] for _ in range(rows)]


def _low_rank_matrix(rng, rows, cols, rank, dens):
    """A product of random rows x rank and rank x cols factors, so of rank
    at most `rank`."""
    L = _random_matrix(rng, rows, rank, dens)
    R = _random_matrix(rng, rank, cols, dens)
    return [[sum((L[i][k] * R[k][j] for k in range(rank)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def _random_case(rng, rows, cols):
    """Integer or Fraction entries, of full or of deficient rank."""
    dens = (1,) if rng.random() < 0.5 else (1, 2, 3, 4, 9)
    if rng.random() < 0.5:
        return _random_matrix(rng, rows, cols, dens)
    rank = rng.randrange(min(rows, cols))
    return _low_rank_matrix(rng, rows, cols, rank, dens)


def rectangular_cases(seed, count=80):
    rng = random.Random(seed)
    return [_random_case(rng, rng.randint(1, 5), rng.randint(1, 5))
            for _ in range(count)]


def square_cases(seed, count=80):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        out.append(_random_case(rng, n, n))
    return out


def _apply(A, x):
    return [sum((Fraction(a) * xj for a, xj in zip(row, x)), Fraction(0))
            for row in A]


def test_frac_rank_matches_oracle_on_rectangular_cases():
    for A in rectangular_cases(31):
        assert frac_rank(A) == rank_oracle(A)


def test_frac_det_matches_permutation_expansion_incl_singular():
    cases = square_cases(32)
    assert any(perm_det(A) == 0 for A in cases)
    assert any(perm_det(A) != 0 for A in cases)
    for A in cases:
        assert frac_det(A) == perm_det(A)


def test_frac_inv_matches_adjugate_oracle():
    for A in square_cases(33):
        if perm_det(A) == 0:
            with pytest.raises(SingularOperator):
                frac_inv(A)
        else:
            assert frac_inv(A) == inv_oracle(A)


def test_frac_solve_residual_vanishes():
    rng = random.Random(34)
    for A in square_cases(34):
        b = [_entry(rng, (1, 2, 7)) for _ in A]
        if perm_det(A) == 0:
            with pytest.raises(SingularOperator):
                frac_solve(A, b)
        else:
            assert _apply(A, frac_solve(A, b)) == b


def free_columns(A):
    """Columns lying in the span of the columns before them, that is the
    non-pivot columns of any row echelon form of A."""
    return [c for c in range(len(A[0]))
            if rank_oracle([row[:c + 1] for row in A])
            == rank_oracle([row[:c] for row in A])]


def test_frac_nullspace_is_the_canonical_kernel_basis():
    for A in rectangular_cases(35):
        cols = len(A[0])
        free = free_columns(A)
        ns = frac_nullspace(A)
        assert len(ns) == cols - rank_oracle(A) == len(free)
        for k, v in enumerate(ns):
            assert len(v) == cols
            assert _apply(A, v) == [0] * len(A)
            # free coordinate free[k] is 1 and the other free ones are 0
            assert [v[c] for c in free] == [int(c == free[k]) for c in free]


def _elimination_case(rng, rows, cols):
    """Rational entries, many of them zero, over denominators with p, p^2
    and units, often with a zero column or a repeated row, so that the
    elimination swaps rows, skips columns and meets rank deficiency."""
    p = rng.choice((3, 5, 7))
    dens = (1, 2, p, p * p)
    A = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3, 4, p)), rng.choice(dens))
          for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in A:
            row[c] = Fraction(0)
    if rows > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(rows), 2)
        A[i] = list(A[j])
    return A


def test_eliminations_match_the_oracles_on_every_shape():
    rng = random.Random(37)
    for rows in range(1, 7):
        for cols in range(1, 8):
            for _ in range(5):
                A = _elimination_case(rng, rows, cols)
                rank = rank_oracle(A)
                assert frac_rank(A) == rank
                ns = frac_nullspace(A)
                assert len(ns) == cols - rank
                free = free_columns(A)
                for k, v in enumerate(ns):
                    assert _apply(A, v) == [0] * rows
                    assert [v[c] for c in free] == [int(c == free[k])
                                                    for c in free]
                if rows != cols:
                    continue
                det = perm_det(A)
                assert frac_det(A) == det
                b = [Fraction(rng.randrange(-5, 6), rng.choice((1, 3)))
                     for _ in range(rows)]
                if det == 0:
                    with pytest.raises(SingularOperator):
                        frac_inv(A)
                    with pytest.raises(SingularOperator):
                        frac_solve(A, b)
                else:
                    assert frac_inv(A) == inv_oracle(A)
                    assert _apply(A, frac_solve(A, b)) == b


def unit_minor_rank(A, p):
    """Largest k such that some k x k minor has a determinant prime to
    p, which is the rank of A over F_p."""
    rows, cols = len(A), len(A[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                d = perm_det([[A[i][j] for j in ci] for i in ri])
                if d != 0 and vp_rational(d, p) == 0:
                    return k
    return 0


def test_fp_rank_matches_unit_minor_bruteforce():
    rng = random.Random(36)
    for _ in range(60):
        p = rng.choice((3, 5))
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        dens = (1,) if rng.random() < 0.5 else (1, 2, 4, 7)
        A = _low_rank_matrix(rng, rows, cols,
                             rng.randint(0, min(rows, cols)), dens)
        # a multiple of p on top keeps the rank mod p but not over Q
        A = [[a + p * rng.randrange(-2, 3) for a in row] for row in A]
        assert fp_rank(A, p) == unit_minor_rank(A, p) == rank_mod_p(A, p)


def test_eliminations_reject_malformed_shapes():
    ragged = [[1, 2], [3]]
    cases = [
        lambda: frac_inv([[1, 0, 0], [0, 1, 0]]),
        lambda: frac_solve([[1, 0], [0, 1]], [1, 2, 3]),
        lambda: frac_solve([[1, 0], [0, 1]], [1]),
        lambda: frac_rank(ragged),
        lambda: frac_nullspace(ragged),
        lambda: fp_rank(ragged, 3),
        lambda: zp_nullspace(ragged, 3),
    ]
    for call in cases:
        with pytest.raises(InputError):
            call()


# denominators mix powers of p = 3 with units, as in C^-1 for a C with
# unit denominators
POLY_DENS = (1, 2, 3, 5, 7, 9)


def _rand_fpoly(rng, max_len):
    """A Fraction polynomial of fewer than max_len terms, often []."""
    return ptrim([Fraction(rng.randrange(-5, 6), rng.choice(POLY_DENS))
                  for _ in range(rng.randrange(max_len))])


def test_cofactor_det_matches_permutation_expansion_and_truncates():
    # the determinant of the numerators N of the form N / d of A, over
    # d^size, is the exact integer list d^size det(A), trimmed
    rng = random.Random(340)
    for size in (1, 2, 3, 4, 5, 6):
        for _ in range(6 if size < 6 else 2):
            A = [[_rand_fpoly(rng, 4) for _ in range(size)]
                 for _ in range(size)]
            want = perm_det_poly(A)
            N, d = form_from_fractions(A)
            scaled = [int(c * d ** size) for c in want]
            got = cofactor_det(N)
            assert got == scaled and all(type(c) is int for c in got)
            for T in (0, 1, 2, 5):
                assert cofactor_det(N, T) == ptrim(scaled[:T])
    for bad in ([], [[[1], [2]]]):
        with pytest.raises(InputError):
            cofactor_det(bad)


def test_cofactor_det_at_its_coefficient_bound():
    # a diagonal or antidiagonal matrix of single large coefficients
    # c_i X^k_i has the one coefficient +-prod |c_i|, which is the bound
    # prod_i sum_j ||A_ij||_1 itself, with either sign; a zero row and
    # entries without a constant term are read as well
    rng = random.Random(342)
    for size in (1, 2, 3, 4, 5):
        for anti in (False, True):
            for _ in range(4):
                cs = [rng.choice((-1, 1)) * rng.randrange(2 ** 20, 2 ** 40)
                      for _ in range(size)]
                ks = [rng.randrange(3) for _ in range(size)]
                N = [[[] for _ in range(size)] for _ in range(size)]
                for i, (c, k) in enumerate(zip(cs, ks)):
                    N[i][size - 1 - i if anti else i] = [0] * k + [c]
                A = [[[Fraction(c) for c in e] for e in row] for row in N]
                want = [int(c) for c in perm_det_poly(A)]
                assert abs(want[-1]) == math.prod(map(abs, cs))
                assert cofactor_det(N) == want
                assert cofactor_det(N, sum(ks)) == []
    for size in (2, 3, 4):
        N = [[[0] + [rng.randrange(-9, 10) for _ in range(3)]
              for _ in range(size)] for _ in range(size)]
        A = [[[Fraction(c) for c in e] for e in row] for row in N]
        want = [int(c) for c in perm_det_poly(A)]
        assert want[:size] == [0] * size
        assert cofactor_det(N) == want
        for zero in ([], [0, 0]):
            N[rng.randrange(size)] = [zero] * size
            assert cofactor_det(N) == [] and cofactor_det(N, 3) == []


def test_pmat_mul_matches_oracle_on_rectangular_shapes():
    # form_mul on the integer forms of Fraction-polynomial matrices
    rng = random.Random(341)
    for _ in range(40):
        r, m, c = (rng.randint(1, 4) for _ in range(3))
        A = [[_rand_fpoly(rng, 5) for _ in range(m)] for _ in range(r)]
        B = [[_rand_fpoly(rng, 5) for _ in range(c)] for _ in range(m)]
        want = poly_mat_mul(A, B)
        for T in (None, 1, 2, 5):
            got = form_mul(form_from_fractions(A), form_from_fractions(B), T)
            assert form_to_fractions(got) == [[ptrim(e[:T]) for e in row]
                                              for row in want]
    for bad in (([[[1], [2]]], [[[1], [2]]]), ([[[1], [2]], [[3]]], [[[1]]])):
        with pytest.raises(InputError):
            form_mul(*(form_from_fractions(A) for A in bad))


def _general_product(A, B, T=None):
    """form_mul's general path: one int_dot per entry, then _reduced."""
    (M, a), (N, b) = A, B
    return _reduced([[int_trim(int_dot(zip(row, col), T))
                      for col in zip(*N)] for row in M], a * b)


def test_form_mul_of_constant_forms_is_the_general_product():
    # zero entries ([] and an untrimmed [0]), numerators whose content
    # shares factors with the denominators, and 1 x g, g x 1 and g x g
    # shapes; then the same forms with one entry of degree 1
    rng = random.Random(29)
    shapes = [(1, 3, 3), (3, 3, 1), (1, 3, 1), (3, 1, 3), (3, 3, 3),
              (2, 4, 2), (4, 4, 4)]
    reduced = 0
    for r, m, c in shapes * 12:
        A, B = (([[[rng.choice((0, 2, -4, 6, 9, 12, -15))] if rng.random()
                   < 0.8 else [] for _ in range(cols)] for _ in range(rows)],
                 rng.choice((1, 2, 3, 6, 18)))
                for rows, cols in ((r, m), (m, c)))
        for T in (None, 1, 2):
            got = form_mul(A, B, T)
            assert got == _general_product(A, B, T)
            reduced += got[1] < A[1] * B[1]
        assert form_to_fractions(got) == poly_mat_mul(
            form_to_fractions(A), form_to_fractions(B))
        assert form_mul(A, B, 0) == _general_product(A, B, 0)
        # one entry of degree 1 past the constant corners: no longer
        # constant forms
        X = rng.choice((A, B))[0]
        i, j = rng.randrange(len(X)), rng.randrange(len(X[0]))
        if (i, j) != (0, 0):
            X[i][j] = X[i][j] + [1] if X[i][j] else [0, 1]
            for T in (None, 2):
                got = form_mul(A, B, T)
                assert got == _general_product(A, B, T)
                assert form_to_fractions(got) == [
                    [ptrim(e[:T]) for e in row] for row in poly_mat_mul(
                        form_to_fractions(A), form_to_fractions(B))]
    assert reduced >= 50


def test_fpoly_divmod_matches_oracle_on_rational_divisors():
    # non-monic divisors, negative and p-divisible leading coefficients,
    # Fraction coefficients on both sides, and dividends shorter than
    # the divisor, through the pseudo-division of the integer forms
    rng = random.Random(342)
    for _ in range(60):
        f = _rand_fpoly(rng, 9)
        g = _rand_fpoly(rng, 5)
        if not g:
            continue
        assert divmod_on_forms(f, g) == pdivmod(f, g)
    assert divmod_on_forms([1, 0, 1], (1, 1)) == ([-1, 1], [2])
    assert divmod_on_forms([], [Fraction(2, 3)]) == ([], [])
    for zero in ([], [0, 0]):
        with pytest.raises(InputError):
            divmod_on_forms([1], zero)


def test_integer_remainder_mod_omega_matches_the_oracle():
    # the tower's verdicts reduce integer numerators mod the monic omega_n
    # with the pseudo-division
    from padlog.series import omega_ints

    rng = random.Random(43)
    for p, n in ((3, 1), (3, 2), (5, 1), (5, 2)):
        N = p ** n
        for length in (0, 1, N - 1, N, N + 1, 2 * N, 7 * N + 3):
            F = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(length)]
            assert (pseudo_divmod(F, omega_ints(p, n))[1]
                    == pdivmod(F, omega_oracle(p, n))[1])


def test_form_witness_reads_valuations_over_the_denominator():
    # X / 9 at p = 3: the coefficients 27/9, 9/9 and 1/9 have valuations
    # 1, 0 and -2; row by row, entry (0, 1) comes before entry (1, 0)
    A = ([[[0, 27], [9]],
          [[1], [0, 0, 9]]], 9)
    assert form_witness(A, 3, 2) == (0, 0, 1)
    assert form_witness(A, 3, 1) == (0, 1, 0)
    assert form_witness(A, 3, 0) == (1, 0, 0)
    assert form_witness(A, 3, -1) == (1, 0, 0)
    # nothing has valuation below -v_p(d) = -2
    assert form_witness(A, 3, -2) is None
    assert form_witness(A, 3, -5) is None
    # at N = INF any nonzero coefficient is one, however divisible
    assert form_witness(A, 3, INF) == (0, 0, 1)
    assert form_witness(A, 3) == (0, 0, 1)
    assert form_witness(([[[0, 0, 3 ** 40]]], 1), 3) == (0, 0, 2)
    assert form_witness(([[[], [0]]], 5), 3) is None
    # a denominator prime to p: valuation below 0 is impossible
    assert form_witness(([[[1, 2]]], 5), 3, 0) is None
    assert form_witness(([[[3, 2]]], 5), 3, 1) == (0, 0, 1)
