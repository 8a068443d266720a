"""Matrix and polynomial utilities.

The generic layer (products) needs only ring operator overloads; the
library runs it on constant matrices of Fractions and of integers.
Polynomial matrices are integer forms (below).

The exact layer works on Fractions and is the decision engine.  One
fraction-free elimination (Bareiss), behind every determinant, puts each
row over one denominator and runs on the integer numerators; it gives
the rank, the determinant and an integer row echelon form.  Over Z_(p)
one integer elimination, pivoting on an entry of least valuation, gives
the rank over F_p (its unit pivots) and an echelon form with unit
pivots.  One integer back-substitution follows either pass.  The
inverse and the solution of a square system are read off its rows, and
one kernel readout gives primitive integer kernel vectors: the
canonical nullspace basis over the rationals, and over Z_(p) the
saturated nullspace (the Coleman kernel) and the integral solve (a
kernel vector with a unit last coordinate).  Fractions are formed only
at output.
Characteristic polynomials (polynomial determinants) and Newton
polygons complete the admission gate's toolkit.

The exact polynomial type is the integer form (N, d): a matrix N of
integer polynomials (coefficient lists, index = degree, [] = 0) standing
for N / d.  The tower that logmatrix builds, the Coleman maps, the
antidiagonal checks and the Wach twist all compute on forms, with the
few operations defined here: a constant matrix or a matrix of Fraction
polynomials as a form, a product mod X^T (canonical: d is prime to the
content of N), a difference over the common denominator, the remainder
mod a monic integer polynomial, the value at zero, a form out as
Fractions, and the witness scan that every exact verdict reads
(form_witness).  They run on an integer polynomial core: a sum of
products mod X^T, the Kronecker-substituted determinant and a
pseudo-division.  Fractions are formed only where a result leaves the
library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm, prod
from operator import mul

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
    rationals: the number of unit pivots (v = 0) of _zp_echelon.  Its
    steps are invertible over Z_(p), so they keep the row module mod p,
    and after the first pivot of positive valuation every entry left is
    divisible by p."""
    A = [[Fraction(x) for x in row] for row in rows]
    bad = [q for row in A for q in row if q.denominator % p == 0]
    if bad:
        raise InputError(f"entry {bad[0]} is not p-integral")
    mat_shape(A)
    return sum(v == 0 for _, _, v in _zp_echelon(A, p))


def _bareiss(M):
    """Fraction-free forward elimination (Bareiss) of the integer rows M,
    in place: row <- (a * row - f * pivot row) // prev, where a is the
    pivot, f the row's entry in the pivot column and prev the previous
    pivot (1 at first).  Every entry stays a minor of M, so the division
    is exact; a row whose entry is already zero is still rescaled by
    a / prev.  Returns the pivot columns and sign * last pivot (0 if a
    row has no pivot), which is det(M) for a square M."""
    rows, cols = mat_shape(M)
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
    return pivots, sign * prev if r == rows else 0


def _echelon(A):
    """_bareiss on A with each row put over one denominator: the integer
    row echelon form, its pivot columns and det(A) for a square A."""
    M, den = [], 1
    for row in A:
        d = lcm(*{x.denominator for x in row})
        M.append([x.numerator * (d // x.denominator) for x in row])
        den *= d
    pivots, det = _bareiss(M)
    return M, pivots, Fraction(det, den)


def _back_substitute(M, pivots):
    """Clear the entries above each pivot of the integer echelon form M,
    in place, last pivot first: row <- a * row - f * pivot row, a the
    pivot and f the row's entry above it, then divided by its content.
    Row r over its entry in column pivots[r] is the reduced form."""
    for k in reversed(range(len(pivots))):
        low, c = M[k], pivots[k]
        a = low[c]
        for i in range(k):
            f = M[i][c]
            if f:
                row = [a * x - f * y for x, y in zip(M[i], low)]
                g = gcd(*row)
                M[i] = [x // g for x in row]
    return M


def _kernel(M, pivots, cols: int):
    """(fc, vector) for each free column fc of the output M of
    _back_substitute, with cols columns: the primitive integer kernel
    vector that is positive at fc and 0 at the other free columns."""
    L = lcm(*{row[c] for row, c in zip(M, pivots)})
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        vec = [0] * cols
        vec[fc] = L
        for row, c in zip(M, pivots):
            vec[c] = -row[fc] * (L // row[c])
        g = gcd(*vec)
        basis.append((fc, [x // g for x in vec]))
    return basis


def frac_rank(A) -> int:
    return len(_echelon(A)[1])


def frac_det(A):
    n, m = mat_shape(A)
    if n != m or n == 0:
        raise InputError("determinant needs a nonempty square matrix")
    return _echelon(A)[2]


def frac_inv(A):
    n, m = mat_shape(A)
    if n != m:
        raise InputError(f"cannot invert a {n}x{m} matrix")
    aug = [list(row) + ident for row, ident in zip(A, frac_identity(n))]
    M, pivots, _ = _echelon(aug)
    if pivots != list(range(n)):
        raise SingularOperator("matrix is not invertible")
    _back_substitute(M, pivots)
    return [[Fraction(x, row[r]) for x in row[n:]] for r, row in enumerate(M)]


def frac_solve(A, b):
    """Solve the square system A x = b over the rationals."""
    n, m = mat_shape(A)
    if n != m or len(b) != n:
        raise InputError(f"cannot solve a {n}x{m} system with a "
                         f"right-hand side of length {len(b)}")
    M, pivots, _ = _echelon([list(row) + [bb] for row, bb in zip(A, b)])
    if pivots != list(range(n)):
        raise SingularOperator("singular system")
    _back_substitute(M, pivots)
    return [Fraction(row[n], row[r]) for r, row in enumerate(M)]


def frac_nullspace(A):
    """Basis of the right kernel of A over the rationals: one vector per
    non-pivot column, equal to 1 there and to 0 at the other non-pivot
    columns."""
    _, cols = mat_shape(A)
    M, pivots, _ = _echelon(A)
    return [[Fraction(x, vec[fc]) for x in vec]
            for fc, vec in _kernel(_back_substitute(M, pivots), pivots, cols)]


def frac_charpoly(A):
    """det(x I - A) as [a_0, ..., a_n], a_n = 1 ([1] for an empty A): with
    d the lcm of the denominators, cofactor_det(X I - d A) has d^(n-k) a_k."""
    if not A:
        return [Fraction(1)]
    N, d = integer_matrix(A)
    shifted = [[[-x] + [1] * (i == j) for j, x in enumerate(row)]
               for i, row in enumerate(N)]
    return [Fraction(c, d ** (len(N) - k))
            for k, c in enumerate(cofactor_det(shifted))]


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
    """Determinant of a square matrix of integer polynomials, mod X^T
    when T is given (nothing when T <= 0), trimmed.  Past size 1, where
    there is nothing to eliminate, the entries, cut mod X^T, are evaluated
    at X = 2^b, 2^(b-1) above the product over the rows of their absolute
    coefficient sums, which bounds every coefficient of the determinant;
    _bareiss gives its value at 2^b, read off as balanced base-2^b
    digits.  The name, from the cofactor expansion this replaced, stays
    because the benchmark's layer tracer names it."""
    n, m = mat_shape(A)
    if n != m or n == 0:
        raise InputError("determinant needs a nonempty square matrix")
    if T is not None and T <= 0:
        return []
    if n == 1:
        return int_trim(A[0][0][:T])
    A = [[e[:T] for e in row] for row in A]
    b = 1 + prod(sum(abs(c) for e in r for c in e) for r in A).bit_length()
    det = _bareiss([[sum([c << k * b for k, c in enumerate(e)])
                     for e in row] for row in A])[1]
    half, mask = 1 << (b - 1), (1 << b) - 1
    out = []
    while det:
        out.append(((det + half) & mask) - half)
        det = (det + half) >> b
    return int_trim(out[:T])


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


def form_const(A):
    """The constant matrix A of rationals as an integer form."""
    N, d = integer_matrix(A)
    return _reduced([[[x] if x else [] for x in row] for row in N], d)


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
    # constant forms, as integer matrices (the corners rule out most others)
    if ((T is None or T > 0) and ca and cb and len(M[0][0]) < 2
            and len(N[0][0]) < 2 and all(len(e) < 2 for e in chain(*M, *N))):
        rows, cols = ([[e[0] if e else 0 for e in r] for r in X]
                      for X in (M, cols))
        sums = ([sum(map(mul, row, col)) for col in cols] for row in rows)
        return _reduced([[[x] if x else [] for x in r] for r in sums], a * b)
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


def form_witness(A, p: int, N=INF):
    """(i, j, k): the first coefficient of the integer form A = X / d,
    entry by entry and row by row, whose value c / d has valuation below
    N; at N = INF, the first nonzero one.  None when there is none, and
    at once when p^(N + v_p(d)) <= 1, as c / d has valuation below N
    exactly when c is nonzero mod that power."""
    X, d = A
    e = N + vp_frac(d, p)
    if e <= 0:
        return None
    m = None if e == INF else p ** e
    return next(((i, j, k) for i, row in enumerate(X)
                 for j, f in enumerate(row) for k, c in enumerate(f)
                 if (c if m is None else c % m)), None)


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
    Qinv all lie in GL over Z_(p).  No library path calls it (nor
    _min_val_pivot): the integral solve runs on zp_nullspace, and both
    stay only because the benchmark's layer tracer names smith_zp.
    ROADMAP item 11 deletes them, with test_smith_zp_contract.
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
    p-integral, or raise NotInImage.  Such an x exists exactly when the
    saturated kernel of [columns | -target] has a vector with a unit
    last coordinate; x is the first such vector of zp_nullspace, divided
    by that coordinate."""
    if not (columns and target) or any(len(c) != len(target)
                                       for c in columns):
        raise InputError("need one or more columns and a target, all of "
                         "one nonzero length")
    A = [[Fraction(x) for x in row] + [-Fraction(t)]
         for *row, t in zip(*columns, target)]
    for vec in zp_nullspace(A, p):
        if vec[-1] % p:
            return [Fraction(x, vec[-1]) for x in vec[:-1]]
    raise NotInImage("target is not in the Z_(p)-span of the columns")


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


def _zp_echelon(A, p: int):
    """The forward elimination of zp_nullspace, for a rational matrix A
    with rows of one length: (row, c, v) for each pivot, where c is its
    column, v its valuation and row the pivot row divided by p^v."""
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
        echelon.append(([x // pv for x in top], c, v))
    return echelon


def zp_nullspace(A, p: int):
    """Saturated basis of ker A inside Z_(p)^n, as integer vectors.

    Each row of the rational matrix A is put over one denominator.  The
    forward elimination takes as pivot an entry of least valuation v in
    what is left, so u = pivot / p^v is a unit and every a / p^v below
    it is an integer: the step row <- u row - (a / p^v) pivot row is
    exact and invertible over Z_(p), and each new row is divided by the
    part of its content prime to p.  Every entry of a pivot row then has
    valuation at least v, so the row divided by p^v has a unit pivot,
    and _back_substitute on those rows stays integral.  The result has
    one vector per free column, primitive and positive there and 0 at
    the other free columns; that unit diagonal makes it saturated.
    """
    _, cols = mat_shape(A)
    echelon = _zp_echelon(A, p)
    pivots = [c for _, c, _ in echelon]
    M = _back_substitute([row for row, _, _ in echelon], pivots)
    return [vec for _, vec in _kernel(M, pivots, cols)]
