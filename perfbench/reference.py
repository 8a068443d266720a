"""Independent reference computations for the benchmark's output checks.

Nothing here imports padlog.  Every object is rebuilt from its
definition in plain rational arithmetic, by routes that differ from the
library's on purpose:

  * omega_n = (1+X)^(p^n) - 1 from the binomial expansion, and
    Phi_{p^k}(1+X) as omega_k / omega_{k-1} by long division;
  * polynomial matrices as lists of Fraction coefficient lists;
  * M_n = C_phi^(n+1) C_n ... C_1 with C^-1 from the adjugate, and the
    determinant closed form det(C) p^-(n+1)s prod_k Phi_{p^k}^s;
  * M'_n = C_phi^n P_n^-1 ... P_1^-1 from its product definition, not
    from the phi-recursion;
  * the gamma substitution pi -> (1+pi)^c - 1 truncated mod pi^T from
    the binomial coefficients of c;
  * determinants by the permutation expansion;
  * the kernel dimension scaled_dim * (p^n - 1) of the level-n forward
    map.

Polynomials are lists of Fractions, index = degree, [] = 0.  A p-adic
scalar coming out of the library is compared through `certified_agree`
at the precision it certifies, never bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

INF = float("inf")


# -- polynomials ------------------------------------------------------------


def ptrim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def padd(f, g):
    n = max(len(f), len(g))
    return ptrim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                  for i in range(n)])


def pscale(f, a):
    return ptrim([a * c for c in f])


def psub(f, g):
    return padd(f, pscale(g, -1))


def pmul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return ptrim(out)


def pmod(f, g):
    """Remainder of f by a polynomial g with nonzero leading term."""
    f = [Fraction(c) for c in ptrim(f)]
    g = ptrim(g)
    lead = Fraction(g[-1])
    while len(f) >= len(g):
        shift = len(f) - len(g)
        factor = f[-1] / lead
        for i, c in enumerate(g):
            f[shift + i] -= factor * c
        f = ptrim(f)
    return f


def pdiv_exact(f, g):
    """Quotient f / g; raises ArithmeticError when g does not divide f."""
    f = [Fraction(c) for c in ptrim(f)]
    g = ptrim(g)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        shift = len(f) - len(g)
        factor = f[-1] / g[-1]
        q[shift] = factor
        for i, c in enumerate(g):
            f[shift + i] -= factor * c
        f = ptrim(f)
    if f:
        raise ArithmeticError("division leaves a remainder")
    return ptrim(q)


def ptrunc(f, T):
    return ptrim(list(f)[:T])


def pmul_trunc(f, g, T):
    return ptrunc(pmul(ptrunc(f, T), ptrunc(g, T)), T)


def binom_shift(c, T=None):
    """(1 + X)^c - 1 from the binomial coefficients of c, mod X^T when T
    is given (c may then be any integer-valued exponent)."""
    top = c if T is None else T - 1
    return ptrim([Fraction(0)] + [Fraction(math.comb(c, k))
                                  for k in range(1, top + 1)])


_OMEGA = {}
_PHI = {}


def omega(p, n):
    """(1 + X)^(p^n) - 1 from the binomial expansion."""
    key = (p, n)
    if key not in _OMEGA:
        _OMEGA[key] = binom_shift(p ** n)
    return _OMEGA[key]


def phi_cyclo(p, k):
    """Phi_{p^k}(1 + X) = omega_k / omega_{k-1}, by long division."""
    key = (p, k)
    if key not in _PHI:
        _PHI[key] = pdiv_exact(omega(p, k), omega(p, k - 1))
    return _PHI[key]


def substitute_trunc(f, s, T):
    """f(s) mod X^T for a polynomial s with s(0) = 0, by Horner with
    truncation at every step."""
    acc = []
    for c in reversed(ptrim(f)):
        acc = padd(pmul_trunc(acc, s, T), [Fraction(c)])
    return ptrunc(acc, T)


def gamma_act(f, c, T):
    """gamma_c(f)(pi) = f((1 + pi)^c - 1) mod pi^T."""
    return substitute_trunc(f, binom_shift(c, T), T)


# -- constant matrices ------------------------------------------------------


def perm_det(M):
    """Determinant by the permutation expansion."""
    n = len(M)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Fraction(1)
        for i in range(n):
            term *= M[i][perm[i]]
            if not term:
                break
        total += -term if inversions % 2 else term
    return total


def mat_inv(M):
    """Inverse by the adjugate and permutation-expansion cofactors."""
    n = len(M)
    d = perm_det(M)
    if d == 0:
        raise ArithmeticError("singular matrix")
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = perm_det(minor) if minor else Fraction(1)
            out[j][i] = (-1) ** (i + j) * cof / d
    return out


def mat_mul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
             for j in range(len(B[0]))] for i in range(len(A))]


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def c_phi(C, fil, p):
    """C_phi = C diag(I_fil, (1/p) I)."""
    return [[x if j < fil else x / p for j, x in enumerate(row)]
            for row in C]


def conjugated_C(C, fil, p, B):
    """C_w = B C_phi B^-1 diag(I_fil, p I), the Frobenius matrix of the
    instance read in the basis B."""
    mid = mat_mul(mat_mul(B, c_phi(C, fil, p)), mat_inv(B))
    return [[x if j < fil else x * p for j, x in enumerate(row)]
            for row in mid]


def fp_rank(rows, p):
    """Rank over F_p of a matrix of p-integral rationals."""
    M = [[x.numerator * pow(x.denominator, -1, p) % p
          for x in map(Fraction, row)] for row in rows]
    rank = 0
    cols = len(M[0]) if M else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, p)
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c] * inv
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def vp(q, p):
    """p-adic valuation of a rational; INF for zero."""
    q = Fraction(q)
    if q == 0:
        return INF
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


# -- polynomial matrices ----------------------------------------------------


def pmat_const(M):
    return [[[Fraction(x)] if x else [] for x in row] for row in M]


def pmat_mul(A, B):
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = []
            for k in range(len(B)):
                acc = padd(acc, pmul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(row)
    return out


def pmat_sub(A, B):
    return [[psub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def pmat_mod(A, g):
    return [[pmod(e, g) for e in row] for row in A]


def pmat_apply(A, vec):
    """A polynomial matrix times a vector of polynomials."""
    out = []
    for row in A:
        acc = []
        for e, x in zip(row, vec):
            acc = padd(acc, pmul(e, x))
        out.append(acc)
    return out


def is_zero_pmat(A):
    return all(not e for row in A for e in row)


def value_at_zero(A):
    return [[e[0] if e else Fraction(0) for e in row] for row in A]


# -- the logarithmic-matrix tower --------------------------------------------


class Tower:
    """M_n for one instance, rebuilt from its definition.

    C_k = diag(I_fil, Phi_{p^k}(1+X) I) C^-1 and
    M_n = C_phi^(n+1) C_n ... C_1.  The partial products C_n ... C_1
    are kept so that each level costs one more matrix product.
    """

    def __init__(self, C, fil, p):
        self.C = frac_matrix(C)
        self.fil = fil
        self.p = p
        self.size = len(C)
        self.Cphi = c_phi(self.C, fil, p)
        self._chain = [pmat_const(identity(self.size))]
        self._Mn = {}

    @functools.cached_property
    def Cinv(self):
        return mat_inv(self.C)

    def Ck(self, k):
        phi = phi_cyclo(self.p, k)
        return [[[x] if (i < self.fil and x) else
                 ([] if i < self.fil else pscale(phi, x))
                 for x in row] for i, row in enumerate(self.Cinv)]

    def chain(self, n):
        """C_n ... C_1 (the identity for n = 0)."""
        while len(self._chain) <= n:
            k = len(self._chain)
            self._chain.append(pmat_mul(self.Ck(k), self._chain[-1]))
        return self._chain[n]

    def Mn(self, n):
        if n not in self._Mn:
            acc = self.chain(n)
            cphi = pmat_const(self.Cphi)
            for _ in range(n + 1):
                acc = pmat_mul(cphi, acc)
            self._Mn[n] = acc
        return self._Mn[n]

    def det_closed_form(self, n):
        """det(C) p^-(n+1)s prod_{k<=n} Phi_{p^k}(1+X)^s, s = size - fil."""
        s = self.size - self.fil
        out = [perm_det(self.C) / Fraction(self.p) ** ((n + 1) * s)]
        for k in range(1, n + 1):
            for _ in range(s):
                out = pmul(out, phi_cyclo(self.p, k))
        return out

    def forward(self, n, vec):
        """C_n ... C_1 vec reduced mod omega_n."""
        w = omega(self.p, n)
        return [pmod(e, w) for e in pmat_apply(self.chain(n),
                                               [pmod(x, w) for x in vec])]

    def kernel_dim(self, n):
        """Rank of the kernel of the level-n forward map over Z_p:
        scaled_dim * (p^n - 1)."""
        return (self.size - self.fil) * (self.p ** n - 1)


def antidiagonal_closed_form(p, n):
    """M_n of C = [[0, -1], [1, 0]] (d0 = 1): [[0, -E_n / p^(q+1)],
    [O_n / p^t, 0]] with E_n, O_n the products of the even- and odd-level
    Phi_{p^k}(1+X), q = floor(n/2), t = ceil(n/2)."""
    even, odd = [Fraction(1)], [Fraction(1)]
    for k in range(1, n + 1):
        if k % 2:
            odd = pmul(odd, phi_cyclo(p, k))
        else:
            even = pmul(even, phi_cyclo(p, k))
    q, t = n // 2, (n + 1) // 2
    return [[[], pscale(even, Fraction(-1, p ** (q + 1)))],
            [pscale(odd, Fraction(1, p ** t)), []]]


# -- the Wach tower -----------------------------------------------------------


def wach_M_prime(C, fil, p, n):
    """M'_n = C_phi^n P_n^-1 ... P_1^-1 with
    P_k^-1 = diag(I_fil, Phi_{p^k}(1+pi) I) C^-1."""
    C = frac_matrix(C)
    size = len(C)
    Cinv = mat_inv(C)
    acc = pmat_const(identity(size))
    for k in range(1, n + 1):
        phi = phi_cyclo(p, k)
        Pk_inv = [[[x] if (i < fil and x) else
                   ([] if i < fil else pscale(phi, x))
                   for x in row] for i, row in enumerate(Cinv)]
        acc = pmat_mul(Pk_inv, acc)
    cphi = pmat_const(c_phi(C, fil, p))
    for _ in range(n):
        acc = pmat_mul(cphi, acc)
    return acc


# -- admissible families ------------------------------------------------------


def subset_dets(vectors, fil0_dual, g_minus):
    """{I: det[v_i (i in I) | fil0_dual]} over all g_minus-subsets I of
    1..g, the chosen vectors and the dual vectors as columns."""
    g = len(vectors)
    out = {}
    for I in itertools.combinations(range(1, g + 1), g_minus):
        cols = [vectors[i - 1] for i in I] + list(fil0_dual)
        out[I] = perm_det([[Fraction(cols[j][i]) for j in range(g)]
                           for i in range(g)])
    return out


def transport_operator(phi, p):
    """T = (1 - phi)^-1 (p phi - 1)."""
    g = len(phi)
    one_minus = [[Fraction(int(i == j)) - phi[i][j] for j in range(g)]
                 for i in range(g)]
    p_phi_minus = [[p * phi[i][j] - int(i == j) for j in range(g)]
                   for i in range(g)]
    return mat_mul(mat_inv(one_minus), p_phi_minus)


# -- certified comparison -----------------------------------------------------


def certified_agree(v, u, prec, value, p):
    """Whether a library scalar p^v u + O(p^(v+prec)) (a zero known to
    O(p^prec) when u is None) agrees with the exact rational `value` at
    every digit it certifies."""
    value = Fraction(value)
    if u is None:
        return value == 0 or (prec != INF and vp(value, p) >= prec)
    if value == 0:
        return False
    if vp(value, p) != v:
        return False
    mod = p ** prec
    unit = value / Fraction(p) ** v
    return u % mod == unit.numerator * pow(unit.denominator, -1, mod) % mod


def scalar_value(v, u, prec, p):
    """A rational representative of a library scalar and the absolute
    precision to which it is known."""
    if u is None:
        return Fraction(0), prec
    return Fraction(p) ** v * u, v + prec

