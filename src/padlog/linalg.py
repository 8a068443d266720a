"""Matrix and polynomial utilities.

The generic layer (products) needs only ring operator overloads; the
library runs it on constant matrices of Fractions and of integers.
Polynomial matrices are integer forms (below).

The exact layer works on Fractions and is the decision engine.  One
fraction-free elimination (Bareiss) puts each row over one denominator
and runs on the integer numerators; it gives the rank, the determinant
and an integer row echelon form.  One back-substitution turns that into
the reduced form over the rationals, from which the inverse, the
solution of a square system and the canonical nullspace basis are read.
The rank over F_p, the Smith form over Z_(p) and the saturated
nullspace over Z_(p) keep their own eliminations, as their arithmetic
differs; the Smith form feeds the integral solve, and the nullspace, a
fraction-free integer elimination, gives the Coleman kernel.
Characteristic polynomials (a trace recurrence on integers) and Newton
polygons complete the admission gate's toolkit.

The exact polynomial type is the integer form (N, d): a matrix N of
integer polynomials (coefficient lists, index = degree, [] = 0) standing
for N / d.  The tower that logmatrix builds, the Coleman maps, the
antidiagonal checks and the Wach twist all compute on forms, with the
few operations defined here: a constant matrix or a matrix of Fraction
polynomials as a form, a product mod X^T (canonical: d is prime to the
content of N), a difference over the common denominator, the remainder
mod a monic integer polynomial, the value at zero, and a form out as
Fractions.  They run on an integer polynomial core: a sum of products
cut mod X^T, the cofactor determinant and a pseudo-division.  Fractions
are formed only where a result leaves the library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import InputError, NotInImage, SingularOperator
from .padic import INF


# -- generic layer --------------------------------------------------------


def mat_shape(A):
    r = len(A)
    c = len(A[0]) if r else 0
    for row in A:
        if len(row) != c:
            raise InputError("ragged matrix")
    return r, c


def mat_mul(A, B):
    ra, ca = mat_shape(A)
    rb, cb = mat_shape(B)
    if ca != rb or ca == 0:
        raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = A[i][0] * B[0][j]
            for k in range(1, ca):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


# -- exact Fraction layer --------------------------------------------------


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def frac_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def vp_frac(q, p: int):
    """p-adic valuation of a rational (a Fraction or an int); INF for
    zero."""
    if q == 0:
        return INF
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def fp_rank(rows, p: int) -> int:
    """Rank over the residue field F_p of a matrix of p-integral
    rationals."""
    M = []
    for row in rows:
        out = []
        for x in row:
            q = Fraction(x)
            if q.denominator % p == 0:
                raise InputError(f"entry {q} is not p-integral")
            out.append(q.numerator * pow(q.denominator, -1, p) % p)
        M.append(out)
    height, cols = mat_shape(M)
    rank = 0
    r = 0
    for c in range(cols):
        if r == height:
            break
        piv = next((i for i in range(r, height) if M[i][c] % p), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        rank += 1
        r += 1
    return rank


def _echelon(A):
    """Fraction-free forward elimination (Bareiss) of A.

    Each row is put over one denominator, and the integer rows are
    eliminated as row <- (a * row - f * pivot row) // prev, where a is the
    pivot, f the row's entry in the pivot column and prev the previous
    pivot (1 at first).  Every entry stays a minor of the integer matrix,
    so the division is exact; a row whose entry is already zero is still
    rescaled by a / prev.  Returns the integer row echelon form, its pivot
    columns and sign * last pivot / (product of the row denominators),
    which is det(A) when A is square of full rank.
    """
    rows, cols = mat_shape(A)
    M, den = [], 1
    for row in A:
        d = lcm(*{x.denominator for x in row})
        M.append([x.numerator * (d // x.denominator) for x in row])
        den *= d
    pivots = []
    sign = prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        top = M[r]
        a = top[c]
        for i in range(r + 1, rows):
            f = M[i][c]
            if f:
                M[i] = [(a * x - f * y) // prev for x, y in zip(M[i], top)]
            elif a != prev:
                M[i] = [a * x // prev for x in M[i]]
        pivots.append(c)
        prev = a
        r += 1
    return M, pivots, Fraction(sign * prev, den)


def _back_substitute(M, pivots):
    """The reduced form of an integer row echelon form, in place: scale
    each pivot row by Fraction(1, pivot) and clear the entries above the
    pivot, last pivot first."""
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        inv = Fraction(1, M[r][c])
        M[r] = [x * inv for x in M[r]]
        for i in range(r):
            if M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
    return M


def frac_rank(A) -> int:
    return len(_echelon(A)[1])


def frac_det(A):
    n, m = mat_shape(A)
    if n != m or n == 0:
        raise InputError("determinant needs a nonempty square matrix")
    _, pivots, det = _echelon(A)
    return det if len(pivots) == n else Fraction(0)


def frac_inv(A):
    n, m = mat_shape(A)
    if n != m:
        raise InputError(f"cannot invert a {n}x{m} matrix")
    aug = [list(row) + ident for row, ident in zip(A, frac_identity(n))]
    M, pivots, _ = _echelon(aug)
    if pivots != list(range(n)):
        raise SingularOperator("matrix is not invertible")
    return [row[n:] for row in _back_substitute(M, pivots)]


def frac_solve(A, b):
    """Solve the square system A x = b over the rationals."""
    n, m = mat_shape(A)
    if n != m or len(b) != n:
        raise InputError(f"cannot solve a {n}x{m} system with a "
                         f"right-hand side of length {len(b)}")
    M, pivots, _ = _echelon([list(row) + [bb] for row, bb in zip(A, b)])
    if pivots != list(range(n)):
        raise SingularOperator("singular system")
    return [row[n] for row in _back_substitute(M, pivots)]


def frac_nullspace(A):
    """Basis of the right kernel of A over the rationals: one vector per
    non-pivot column, equal to 1 there and to 0 at the other non-pivot
    columns."""
    M, pivots, _ = _echelon(A)
    if not M:
        return []
    M = _back_substitute(M, pivots)
    cols = len(M[0])
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -M[ri][fc]
        basis.append(vec)
    return basis


def frac_charpoly(A):
    """det(x I - A) as [a_0, ..., a_n] with a_n = 1, by the trace
    recurrence on the integer matrix N = d A over the least common
    denominator d: there every division by k is exact, and a_k is the
    coefficient of N's characteristic polynomial divided by d^(n-k)."""
    n = len(A)
    N, d = integer_matrix(A)
    coeffs = [0] * n + [1]
    M = N
    for k in range(1, n + 1):
        # M <- N (M + b_{n-k+1} I); on the first pass M = N
        if k > 1:
            M = mat_mul(N, [[x + coeffs[n - k + 1] * (i == j)
                             for j, x in enumerate(row)]
                            for i, row in enumerate(M)])
        coeffs[n - k] = -sum(M[i][i] for i in range(n)) // k
    return [Fraction(c, d ** (n - k)) for k, c in enumerate(coeffs)]


# -- Newton polygon --------------------------------------------------------


def newton_lower_hull(points):
    """Lower convex hull of (i, v(a_i)) pairs; INF entries are skipped.
    Returns the hull vertices sorted by abscissa."""
    finite = sorted((i, Fraction(v)) for i, v in points if v != INF)
    if len(finite) < 2:
        return finite
    hull = []
    for pt in finite:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop the middle point when it sits on or above the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def hull_root_valuations(hull):
    """Root valuations with multiplicity: each hull segment of slope s
    and width w contributes w roots of valuation -s."""
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        w = x2 - x1
        slope = Fraction(y2 - y1, w)
        out.append((-slope, int(w)))
    return out


# -- integer polynomials ---------------------------------------------------


def int_trim(f):
    """f without its trailing zero coefficients, trimmed in place."""
    while f and not f[-1]:
        f.pop()
    return f


def int_dot(pairs, T=None):
    """The sum of f * g over pairs of integer polynomials, mod X^T when T
    is given (nothing when T <= 0); not trimmed."""
    if T is not None and T <= 0:
        return []
    acc = []
    for f, g in pairs:
        if not (f and g):
            continue
        n = len(f) + len(g) - 1
        if T is not None:
            n = min(n, T)
        acc += [0] * (n - len(acc))
        for i, a in enumerate(f[:n]):
            if a:
                for k, b in enumerate(g[:n - i], i):
                    acc[k] += a * b
    return acc


def pseudo_divmod(F, G):
    """(Q, R, lead^m) with lead^m F = Q G + R, R trimmed and of degree
    below deg G, for integer polynomials F and G, G trimmed and nonzero,
    m = max(len F - deg G, 0).  For a monic G it divides with remainder.
    A zero G raises InputError."""
    if not G:
        raise InputError("division by zero polynomial")
    deg, lead = len(G) - 1, G[-1]
    m = max(len(F) - deg, 0)
    scale = lead ** m
    rem = [c * scale for c in F]
    low = G[:deg]
    q = [0] * m
    for j in range(len(rem) - 1, deg - 1, -1):
        if rem[j]:
            t = q[j - deg] = rem[j] // lead
            for i, c in enumerate(low, j - deg):
                rem[i] -= t * c
    return q, int_trim(rem[:deg]), scale


def cofactor_det(A, T=None):
    """Determinant of a square matrix of integer polynomials by cofactor
    expansion along the first row, mod X^T when T is given, trimmed; fine
    for the small sizes used here."""
    n, m = mat_shape(A)
    if n != m or n == 0:
        raise InputError("determinant needs a nonempty square matrix")
    if n == 1:
        return int_trim(A[0][0][:T])
    return int_trim(int_dot(
        ((a if j % 2 == 0 else [-c for c in a],
          cofactor_det([row[:j] + row[j + 1:] for row in A[1:]], T))
         for j, a in enumerate(A[0]) if a), T))


# -- integer forms ---------------------------------------------------------


def integer_matrix(A):
    """(numerators, d): the matrix of rationals A as integers over the
    least common denominator d."""
    # a set, not a generator: a tuple built from a generator is resized
    # as it grows and then parks on CPython's tuple free list, which
    # grew the resident size by a megabyte over a few dozen twist rounds
    d = lcm(*{x.denominator for row in A for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in A], d


def _reduced(N, d):
    """The form N / d divided by the gcd of d and the content of N."""
    g = gcd(d, *[gcd(*e) for row in N for e in row])
    if g > 1:
        N = [[[c // g for c in e] for e in row] for row in N]
    return N, d // g


def form_const(A, e=1):
    """The constant matrix A^e as an integer form, for a matrix A of
    rationals (square when e > 1) and e >= 1; the power is formed on the
    integer numerators."""
    N, d = integer_matrix(A)
    power = N
    for _ in range(e - 1):
        power = mat_mul(N, power)
    return _reduced([[[x] if x else [] for x in row] for row in power],
                    d ** e)


def form_from_fractions(M):
    """A matrix of polynomials with rational (or integer) coefficients as
    an integer form over the least common denominator."""
    d = lcm(*{c.denominator for row in M for e in row for c in e})
    return [[[c.numerator * (d // c.denominator) for c in e] for e in row]
            for row in M], d


def form_to_fractions(A):
    """The integer form A as a matrix of trimmed Fraction polynomials."""
    N, d = A
    return [[[Fraction(c, d) for c in int_trim(e)] for e in row]
            for row in N]


def form_mul(A, B, T=None):
    """The product of two integer forms, mod X^T when T is given, in
    canonical form: trimmed entries over a denominator prime to their
    content, so that two products are equal exactly when their forms
    are."""
    (M, a), (N, b) = A, B
    ra, ca = mat_shape(M)
    rb, cb = mat_shape(N)
    if ca != rb:
        raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    cols = [*zip(*N)]
    return _reduced([[int_trim(int_dot(zip(row, col), T)) for col in cols]
                     for row in M], a * b)


def form_sub(A, B):
    """A - B for two integer forms of one shape, over the least common
    multiple of their denominators, with trimmed entries."""
    (M, a), (N, b) = A, B
    m = lcm(a, b)
    a, b = m // a, m // b
    return [[int_trim([a * x - b * y
                       for x, y in zip_longest(f, g, fillvalue=0)])
             for f, g in zip(ra, rb)] for ra, rb in zip(M, N)], m


def form_mod(A, f):
    """The entries of the integer form A reduced mod the monic integer
    polynomial f, over the same denominator."""
    N, d = A
    return [[pseudo_divmod(e, f)[1] for e in row] for row in N], d


def form_at_zero(A):
    """The value at X = 0 of the integer form A, as a canonical form of
    constants (comparable with form_const)."""
    N, d = A
    return _reduced([[e[:1] if e and e[0] else [] for e in row]
                     for row in N], d)


def form_valuation(A, p: int):
    """The least coefficient valuation of the integer form A (INF if 0)."""
    N, d = A
    content = gcd(*[c for row in N for e in row for c in e])
    return vp_frac(content, p) - vp_frac(d, p)


def form_depth(A, p: int):
    """min(0, form_valuation): the digits a product with A can lose."""
    return min(0, form_valuation(A, p))


def fpoly_mul(f, g, T=None):
    """f * g, mod X^T when T is given, for polynomials with rational
    coefficients, formed on their integer forms.  No library path calls
    it: it stays only because the benchmark's layer tracer names it."""
    product = form_mul(form_from_fractions([[f]]), form_from_fractions([[g]]),
                       T)
    return form_to_fractions(product)[0][0]


# -- Z_(p) reductions ------------------------------------------------------


def _min_val_pivot(A, p, start_r, start_c, rows, cols):
    best = None
    for i in range(start_r, rows):
        for j in range(start_c, cols):
            if A[i][j] == 0:
                continue
            v = vp_frac(A[i][j], p)
            if best is None or v < best[0]:
                best = (v, i, j)
    return best


def smith_zp(A, p: int):
    """Diagonalize A over Z_(p) with unimodular (p-integral, unit
    determinant) transforms: returns dict with D = P A Q, P, Q, Qinv,
    and the list of (index, valuation) pivots.

    Min-valuation pivoting keeps every multiplier p-integral, so P, Q,
    Qinv all lie in GL over Z_(p).
    """
    D = [row[:] for row in frac_mat(A)]
    rows = len(D)
    cols = len(D[0]) if rows else 0
    P = frac_identity(rows)
    Q = frac_identity(cols)
    Qinv = frac_identity(cols)
    pivots = []
    k = 0
    while k < min(rows, cols):
        found = _min_val_pivot(D, p, k, k, rows, cols)
        if found is None:
            break
        v, pi, pj = found
        if pi != k:
            D[k], D[pi] = D[pi], D[k]
            P[k], P[pi] = P[pi], P[k]
        if pj != k:
            for row in D:
                row[k], row[pj] = row[pj], row[k]
            for row in Q:
                row[k], row[pj] = row[pj], row[k]
            Qinv[k], Qinv[pj] = Qinv[pj], Qinv[k]
        piv = D[k][k]
        for i in range(k + 1, rows):
            if D[i][k] != 0:
                f = D[i][k] / piv
                D[i] = [x - f * y for x, y in zip(D[i], D[k])]
                P[i] = [x - f * y for x, y in zip(P[i], P[k])]
        for j in range(k + 1, cols):
            if D[k][j] != 0:
                g = D[k][j] / piv
                # col_j -= g * col_k mirrors as Qinv row_k += g * row_j
                for row in D:
                    row[j] -= g * row[k]
                for row in Q:
                    row[j] -= g * row[k]
                Qinv[k] = [x + g * y for x, y in zip(Qinv[k], Qinv[j])]
        pivots.append((k, v))
        k += 1
    return {"D": D, "P": P, "Q": Q, "Qinv": Qinv, "pivots": pivots}


def zp_solve_integral(columns, target, p: int):
    """Find x with sum_i x_i * columns[i] = target and every x_i
    p-integral, or raise NotInImage.  Exact Fraction arithmetic."""
    if not columns:
        raise InputError("no columns given")
    n = len(columns[0])
    A = [[Fraction(columns[j][i]) for j in range(len(columns))]
         for i in range(n)]
    b = [Fraction(t) for t in target]
    snf = smith_zp(A, p)
    D, P, Q = snf["D"], snf["P"], snf["Q"]
    rank = len(snf["pivots"])
    Pb = [sum(P[i][j] * b[j] for j in range(n)) for i in range(n)]
    y = [Fraction(0)] * len(columns)
    for k in range(rank):
        y[k] = Pb[k] / D[k][k]
        if vp_frac(y[k], p) < 0:
            raise NotInImage(
                f"solution needs p^{vp_frac(y[k], p)} at pivot {k}"
            )
    for i in range(rank, n):
        if Pb[i] != 0:
            raise NotInImage(f"inconsistent row {i}: residual {Pb[i]}")
    x = [sum(Q[i][k] * y[k] for k in range(len(columns)))
         for i in range(len(columns))]
    for i, xi in enumerate(x):
        if vp_frac(xi, p) < 0:
            raise NotInImage(f"coefficient {i} is not p-integral: {xi}")
    return x


def _strip_unit_content(row, p: int):
    """row divided by the part of its content that is prime to p."""
    g = gcd(*row)
    while g and g % p == 0:
        g //= p
    return row if g <= 1 else [x // g for x in row]


def _zp_pivot(M, p: int):
    """(v, i, j): the first entry of the nonzero integer matrix M of
    least valuation v, row by row."""
    v, q = 0, p
    while True:
        for i, row in enumerate(M):
            for j, x in enumerate(row):
                if x % q:
                    return v, i, j
        v, q = v + 1, q * p


def zp_nullspace(A, p: int):
    """Saturated basis of ker A inside Z_(p)^n, as integer vectors.

    Each row of the rational matrix A is put over one denominator.  The
    forward elimination takes as pivot an entry of least valuation v in
    what is left, so u = pivot / p^v is a unit and every a / p^v below
    it is an integer: the step row <- u row - (a / p^v) pivot row is
    exact and invertible over Z_(p), and each new row is divided by the
    part of its content prime to p.  Every entry of a pivot row then has
    valuation at least v, so the row divided by p^v has a unit pivot,
    and back-substitution on those rows stays integral.  The result has
    one vector per free column, primitive and positive there and 0 at
    the other free columns; that unit diagonal makes it saturated.
    """
    _, cols = mat_shape(A)
    M = []
    for row in A:
        d = lcm(*{x.denominator for x in row})
        row = [x.numerator * (d // x.denominator) for x in row]
        if any(row):
            M.append(_strip_unit_content(row, p))
    echelon = []
    while M:
        v, i, c = _zp_pivot(M, p)
        top = M.pop(i)
        pv = p ** v
        u = top[c] // pv
        rest = []
        for row in M:
            if row[c]:
                f = row[c] // pv
                row = _strip_unit_content(
                    [u * x - f * y for x, y in zip(row, top)], p)
            if any(row):
                rest.append(row)
        M = rest
        echelon.append(([x // pv for x in top], c))
    for k in reversed(range(len(echelon))):
        low, c = echelon[k]
        u = low[c]
        for i in range(k):
            row, ci = echelon[i]
            if row[c]:
                f = row[c]
                row = [u * x - f * y for x, y in zip(row, low)]
                g = gcd(*row)
                echelon[i] = ([x // g for x in row], ci)
    pivots = {c for _, c in echelon}
    L = lcm(*{row[c] for row, c in echelon})
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [0] * cols
        vec[fc] = L
        for row, c in echelon:
            vec[c] = -row[fc] * (L // row[c])
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis
