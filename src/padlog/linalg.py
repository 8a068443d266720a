"""Matrix and polynomial utilities.

The generic layer (products and powers) needs only ring operator
overloads; the library runs it on constant matrices of Fractions.
Polynomial matrices go through the exact layer's pmat_* instead.

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
Characteristic polynomials and Newton polygons complete the admission
gate's toolkit.

Fraction polynomials are coefficient lists (index = degree, [] = 0).
Matrices of them carry the one exact tower that logmatrix builds and
coleman and wach read, and the Coleman maps apply them to lifted
vectors; their products and their cofactor determinant can be cut mod
X^T as they are formed.  Both put each row (and each column of the
right factor) over one denominator, multiply and sum the integer
numerators, and form one Fraction per output coefficient.  Division with
remainder (by omega_n, Phi_{p^k} or any nonzero divisor) is an integer
pseudo-division on the numerators, formed into Fractions the same way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

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


def mat_map(A, fn):
    return [[fn(a) for a in row] for row in A]


def mat_pow(A, e, identity):
    if e < 0:
        raise InputError("mat_pow needs e >= 0")
    out = identity
    base = A
    while e:
        if e & 1:
            out = mat_mul(out, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return out


# -- exact Fraction layer --------------------------------------------------


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def frac_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def vp_frac(q, p: int):
    """p-adic valuation of a rational; INF for zero."""
    q = Fraction(q)
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
    """det(x I - A) by the trace recurrence; returns [a_0, ..., a_d]
    with a_d = 1."""
    n = len(A)
    M = frac_mat(A)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    N = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # N <- A (N + a_{k-1} I); on the first pass N = A
        if k == 1:
            N = [row[:] for row in M]
        else:
            for i in range(n):
                N[i][i] += coeffs[n - k + 1]
            N = mat_mul(M, N)
        tr = sum(N[i][i] for i in range(n))
        coeffs[n - k] = -tr / k
    return coeffs


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


# -- Fraction polynomials --------------------------------------------------


def fpoly_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def fpoly_add(f, g):
    n = max(len(f), len(g))
    return fpoly_trim([
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
        for i in range(n)
    ])


def fpoly_scale(f, a):
    a = Fraction(a)
    return fpoly_trim([a * c for c in f])


def fpoly_mul(f, g, T=None):
    """f * g, mod X^T when T is given; only the kept terms are formed."""
    if not f or not g:
        return []
    n = len(f) + len(g) - 1
    if T is not None:
        n = min(n, T)
    out = [Fraction(0)] * n
    for i, a in enumerate(f[:n]):
        if a == 0:
            continue
        for j, b in enumerate(g[:n - i]):
            out[i + j] += a * b
    return fpoly_trim(out)


def fpoly_divmod(f, g):
    """(q, r) with f = q g + r and deg r < deg g, for any nonzero g.
    With f = F/df and g = G/dg, lead^m F = Q G + R is a pseudo-division
    on integers, m = deg F - deg G + 1; then q = Q dg / (lead^m df) and
    r = R / (lead^m df), one Fraction per output coefficient."""
    f, g = fpoly_trim(f), fpoly_trim(g)
    if not g:
        raise InputError("division by zero polynomial")
    if len(f) < len(g):
        return [], [c if isinstance(c, Fraction) else Fraction(c) for c in f]
    (F,), df = _over_one_denominator([f], None)
    (G,), dg = _over_one_denominator([g], None)
    deg, lead = len(G) - 1, G[-1]
    m = len(F) - deg
    scale = lead ** m
    rem = [c * scale for c in F]
    low = G[:deg]
    q = [0] * m
    for j in range(len(rem) - 1, deg - 1, -1):
        if rem[j]:
            t = q[j - deg] = rem[j] // lead
            for i, c in enumerate(low, j - deg):
                rem[i] -= t * c
    den = scale * df
    return (_fraction_poly([c * dg for c in q], den),
            _fraction_poly(rem[:deg], den))


# -- matrices of Fraction polynomials --------------------------------------


def pmat_from_frac(M):
    """Fraction matrix -> matrix of constant polynomials."""
    return [[[Fraction(x)] if x else [] for x in row] for row in M]


def _over_one_denominator(entries, T):
    """(numerators, d): the Fraction polynomials cut mod X^T, as integer
    polynomials over their least common denominator d."""
    entries = [e[:T] for e in entries]
    # a set, not a generator: a tuple built from a generator is resized
    # as it grows and then parks on CPython's tuple free list, which
    # grew the resident size by a megabyte over a few dozen twist rounds
    d = lcm(*{c.denominator for e in entries for c in e})
    return [[c.numerator * (d // c.denominator) for c in e]
            for e in entries], d


def _int_dot(pairs, T):
    """The sum of f * g over pairs of integer polynomials, mod X^T when T
    is given."""
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


def _fraction_poly(acc, d):
    """The integer polynomial acc divided by d, as trimmed Fractions."""
    while acc and not acc[-1]:
        acc.pop()
    return [Fraction(c, d) for c in acc]


def pmat_mul(A, B, T=None):
    """A * B, mod X^T when T is given.  Each row of A and each column of
    B is put over one denominator once; the products are summed on
    integer numerators, and each output coefficient is one Fraction."""
    ra, ca = mat_shape(A)
    rb, cb = mat_shape(B)
    if ca != rb:
        raise InputError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    rows = [_over_one_denominator(row, T) for row in A]
    cols = [_over_one_denominator([brow[j] for brow in B], T)
            for j in range(cb)]
    return [[_fraction_poly(_int_dot(zip(row, col), T), da * db)
             for col, db in cols] for row, da in rows]


def pmat_sub(A, B):
    return [
        [fpoly_add(a, fpoly_scale(b, -1)) for a, b in zip(ra, rb)]
        for ra, rb in zip(A, B)
    ]


def pmat_const(A):
    """The value at X = 0."""
    return mat_map(A, lambda e: e[0] if e else Fraction(0))


def cofactor_det(A, T=None):
    """Determinant of a square Fraction-polynomial matrix by cofactor
    expansion along the first row, mod X^T when T is given; fine for the
    small sizes used here.  Each row is put over one denominator, and
    the expansion runs on integer numerators."""
    n, m = mat_shape(A)
    if n != m or n == 0:
        raise InputError("determinant needs a nonempty square matrix")
    rows = [_over_one_denominator(row, T) for row in A]
    den = prod(d for _, d in rows)
    return _fraction_poly(_int_det([num for num, _ in rows], T), den)


def _int_det(A, T):
    """Cofactor expansion of a square matrix of integer polynomials along
    its first row, mod X^T when T is given."""
    if len(A) == 1:
        return A[0][0]
    return _int_dot(
        ((a if j % 2 == 0 else [-c for c in a],
          _int_det([row[:j] + row[j + 1:] for row in A[1:]], T))
         for j, a in enumerate(A[0]) if a), T)


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
