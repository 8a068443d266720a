"""Independent reference computations used to cross-check the library.

Everything here is deliberately written through different routes than
the package: cyclotomic polynomials come from polynomial long division
of binomial expansions, determinants from the permutation expansion,
characteristic polynomials from an explicit minor expansion of
x I - A, and p-adic comparisons from direct modular arithmetic on
numerators and denominators.  No imports from the package internals.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


# -- rational polynomial helpers (lists, index = degree) --------------------


def ptrim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def padd(f, g):
    n = max(len(f), len(g))
    return ptrim([
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
        for i in range(n)
    ])


def pmul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += Fraction(a) * Fraction(b)
    return ptrim(out)


def pscale(f, a):
    return ptrim([Fraction(a) * Fraction(c) for c in f])


def pdivmod(f, g):
    f = [Fraction(c) for c in ptrim(f)]
    g = [Fraction(c) for c in ptrim(g)]
    assert g, "division by zero polynomial"
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        shift = len(f) - len(g)
        factor = f[-1] / g[-1]
        q[shift] = factor
        f = ptrim([
            f[i] - (factor * g[i - shift] if i >= shift else 0)
            for i in range(len(f))
        ])
    return ptrim(q), f


def peval(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * Fraction(x) + Fraction(c)
    return acc


def binomial_power(e: int):
    """(1 + X)^e as an integer coefficient list, by the recurrence
    C(e, k + 1) = C(e, k) (e - k) / (k + 1), which stays fast at the
    thousands of terms of a full-degree gamma substitution."""
    out = [1]
    for k in range(e):
        out.append(out[-1] * (e - k) // (k + 1))
    return out


def omega_oracle(p: int, n: int):
    """(1 + X)^{p^n} - 1 from the binomial expansion."""
    out = binomial_power(p ** n)
    out[0] -= 1
    return ptrim(out)


def phi_oracle(p: int, k: int):
    """Phi_{p^k}(1 + X) as omega_k / omega_{k-1}, by long division."""
    num = omega_oracle(p, k)
    den = omega_oracle(p, k - 1)
    q, r = pdivmod(num, den)
    assert r == [], "cyclotomic division left a remainder"
    return q


# -- linear algebra over Fractions and Fraction polynomials -----------------


def perm_det(M):
    """Permutation-expansion determinant; entries are Fractions.

    As in perm_det_poly, the entries are put over one common denominator
    D first, so that the expansion multiplies integer numerators; the sum
    is divided by D^n at the end."""
    n = len(M)
    den = math.lcm(1, *(Fraction(x).denominator for row in M for x in row))
    num = [[int(Fraction(x) * den) for x in row] for row in M]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= num[i][perm[i]]
        total += term
    return Fraction(total, den ** n)


def perm_det_poly(M):
    """Permutation-expansion determinant for polynomial entries.

    The entries are put over one common denominator D first, so that the
    expansion multiplies integer numerators; the sum is divided by D^n
    at the end."""
    n = len(M)
    den = math.lcm(1, *(Fraction(c).denominator
                        for row in M for e in row for c in e))
    num = [[[int(Fraction(c) * den) for c in e] for e in row] for row in M]
    total = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = [sign]
        for i in range(n):
            term = _int_pmul(term, num[i][perm[i]])
        if len(term) > len(total):
            total += [0] * (len(term) - len(total))
        for k, c in enumerate(term):
            total[k] += c
    return ptrim([Fraction(c, den ** n) for c in total])


def _int_pmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def charpoly_oracle(A):
    """det(x I - A) via the polynomial permutation expansion,
    returned as [a_0, ..., a_n] with a_n = 1."""
    n = len(A)
    M = [
        [
            padd([Fraction(0), Fraction(1)] if i == j else [],
                 [-Fraction(A[i][j])])
            for j in range(n)
        ]
        for i in range(n)
    ]
    out = perm_det_poly(M)
    return out + [Fraction(0)] * (n + 1 - len(out))


def rank_oracle(rows):
    """Row-reduction rank over the rationals."""
    M = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(M[0]) if M else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        rank += 1
        r += 1
        if r == len(M):
            break
    return rank


def rank_mod_p(rows, p: int):
    """Rank over F_p of a matrix of p-integral rationals: the largest k
    with a k x k minor prime to p, found by row reduction of the
    residues."""
    M = []
    for row in rows:
        res = []
        for x in row:
            x = Fraction(x)
            assert x.denominator % p, f"{x} is not p-integral"
            res.append(x.numerator * pow(x.denominator, p - 2, p) % p)
        M.append(res)
    rank = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            f = M[i][c] * pow(M[rank][c], p - 2, p)
            M[i] = [(x - f * y) % p for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def in_span(rows, vec) -> bool:
    base = rank_oracle(rows) if rows else 0
    return rank_oracle(list(rows) + [list(vec)]) == base


def in_zp_span(columns, w, p: int) -> bool:
    """Whether w is a combination of the columns with p-integral
    coefficients.  With L the Z_(p)-span of the columns and L' that of
    the columns and w, w lies in L exactly when w lies in the rational
    span, so that both have one rank r, and the index of L in L' is 1:
    the least valuation of the r x r minors is the same for both."""
    def rank_and_depth(cols):
        rows = [list(r) for r in zip(*cols)]
        r = rank_oracle(rows)
        minors = (perm_det([[rows[i][j] for j in cj] for i in ri])
                  for ri in itertools.combinations(range(len(rows)), r)
                  for cj in itertools.combinations(range(len(cols)), r))
        return r, min(vp_rational(d, p) for d in minors if d != 0)

    return rank_and_depth(columns) == rank_and_depth(list(columns) + [w])


# -- p-adic value checks -----------------------------------------------------


def vp_int(n: int, p: int):
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_rational(q, p: int):
    q = Fraction(q)
    if q == 0:
        return None
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def known_value(x, p: int):
    """(value, absolute precision) of a coefficient: an exact rational
    (precision infinite), a (value, precision) pair, or a packaged
    scalar p^v * u + O(p^(v + prec)), read off its fields."""
    if isinstance(x, tuple):
        return Fraction(x[0]), x[1]
    if isinstance(x, (int, Fraction)):
        return Fraction(x), math.inf
    if x.u is None:
        return Fraction(0), x.prec
    return Fraction(p) ** x.v * x.u, x.v + x.prec


def known_sum(a, b, p: int):
    """Coefficientwise a + b as (value, precision) pairs, each known to
    the smaller of the two precisions; missing entries are exact 0."""
    out = []
    for j in range(max(len(a), len(b))):
        (x, nx), (y, ny) = (known_value(s[j] if j < len(s) else 0, p)
                            for s in (a, b))
        out.append((x + y, min(nx, ny)))
    return out


def agree_mod_precision(a, b, p: int, cutoff: int = 1) -> bool:
    """Whether two coefficient sequences (entries as for known_value,
    missing ones exact 0) agree where both are known: at every index the
    values differ by a multiple of p^N, N the smaller precision, and N
    is at least cutoff unless the values are exactly equal and exact."""
    for j in range(max(len(a), len(b))):
        (x, nx), (y, ny) = (known_value(s[j] if j < len(s) else 0, p)
                            for s in (a, b))
        N = min(nx, ny)
        if N == math.inf:
            if x != y:
                return False
        elif N < cutoff or (x != y and vp_rational(x - y, p) < N):
            return False
    return True


def matches_rational(scalar, value, depth: int = 12) -> bool:
    """Whether a packaged scalar agrees with an exact rational to
    p^depth beyond its valuation, judged by direct modular arithmetic
    on the (v, u) representation."""
    value = Fraction(value)
    p = scalar.p
    if scalar.is_zero_rep:
        if value == 0:
            return True
        v = vp_rational(value, p)
        return scalar.prec != float("inf") and v >= scalar.prec
    if value == 0:
        return False
    v = vp_rational(value, p)
    if v != scalar.v:
        return False
    k = min(scalar.prec, depth)
    mod = p ** k
    unit = value * Fraction(p) ** (-v)
    want = unit.numerator * pow(unit.denominator, -1, mod) % mod
    return scalar.u % mod == want


def lower_hull_oracle(points):
    """Brute-force lower convex hull: keep the points that are vertices
    of the lower boundary, checked pairwise against every other
    point."""
    pts = sorted(points)
    hull = [pts[0]]
    while hull[-1] != pts[-1]:
        x0, y0 = hull[-1]
        best = None
        for pt in pts:
            if pt[0] <= x0:
                continue
            slope = Fraction(pt[1] - y0, pt[0] - x0)
            if best is None or slope < best[0] or (
                    slope == best[0] and pt[0] > best[1][0]):
                best = (slope, pt)
        hull.append(best[1])
    return hull


# -- independent matrix-product rebuild --------------------------------------


def inv_oracle(M):
    """Matrix inverse by the adjugate permutation expansion."""
    n = len(M)
    d = perm_det(M)
    assert d != 0, "matrix is singular"
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[Fraction(M[r][c]) for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = perm_det(minor) if minor else Fraction(1)
            out[j][i] = (-1) ** (i + j) * cof / d
    return out


def poly_mat_mul(A, B):
    """Product of an r x m and an m x c matrix whose entries are Fraction
    coefficient lists."""
    m = len(B)
    assert m and all(len(row) == m for row in A), "inner sizes differ"
    return [
        [
            functools.reduce(
                padd, (pmul(row[k], B[k][j]) for k in range(m)), [])
            for j in range(len(B[0]))
        ]
        for row in A
    ]


def chain_oracle(fd, n: int):
    """Rebuild [P_0, ..., P_n], P_k = C_k ... C_1, as matrices of exact
    Fraction polynomials, using only fd's matrix data and the
    division-oracle cyclotomics; completely independent of the package."""
    p = fd.ctx.p
    g, fil = fd.size, fd.fil_dim
    Cinv = inv_oracle([[Fraction(x) for x in row] for row in fd.C])
    chain = [[[[Fraction(int(i == j))] for j in range(g)] for i in range(g)]]
    for k in range(1, n + 1):
        phik = [Fraction(c) for c in phi_oracle(p, k)]
        Ck = [
            [[Cinv[i][j]] if i < fil else pscale(phik, Cinv[i][j])
             for j in range(g)]
            for i in range(g)
        ]
        chain.append(poly_mat_mul(Ck, chain[-1]))
    return chain


def mn_poly_oracle(fd, n: int):
    """Rebuild the level-n approximant C_phi^(n+1) P_n as a matrix of
    exact Fraction polynomials from chain_oracle."""
    p = fd.ctx.p
    g, fil = fd.size, fd.fil_dim
    C = [[Fraction(x) for x in row] for row in fd.C]
    acc = chain_oracle(fd, n)[n]
    Cphi = [[[C[i][j] if j < fil else C[i][j] / p] for j in range(g)]
            for i in range(g)]
    for _ in range(n + 1):
        acc = poly_mat_mul(Cphi, acc)
    return acc
