"""Finite-level signed-Coleman factorization.

forward multiplies a coordinate vector by C_n ... C_1 inside the level-n
quotient; factor_level inverts that product stage by stage, dividing the
scaled block by Phi_{p^k} and multiplying by C at each stage k = n..1.
Division happens on the degree-reduced representative, which is sound
because Phi_{p^k} divides omega_n: a class is divisible iff its reduced
representative is divisible as a polynomial.

The factorization result is unique only modulo the kernel of the
forward map; the kernel_tag records that, and kernel_basis computes an
explicit saturated basis for small sizes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError, NotIntegral, PrecisionLoss
from .linalg import (
    fpoly_divmod,
    frac_nullspace,
    mat_pow,
    frac_identity,
    pmat_from_frac,
    zp_saturate,
)
from .logmatrix import FrobeniusData, build_chain, _embed_matrix
from .series import (
    LambdaNElement,
    XSeries,
    divide_exact,
    omega_ints,
    phi_cyclo,
    reduce_mod_omega,
)


class RegulatorVector:
    """Level-n vector of finite-level classes (the regulator side)."""

    __slots__ = ("level", "components")

    def __init__(self, level: int, components):
        components = tuple(components)
        for c in components:
            if not isinstance(c, LambdaNElement) or c.level != level:
                raise InputError("components must be classes at the level")
        self.level = level
        self.components = components


class ColemanVector:
    """Level-n coordinate vector, certified modulo the forward kernel."""

    __slots__ = ("level", "components", "kernel_tag")

    def __init__(self, level: int, components, kernel_tag: str = ""):
        components = tuple(components)
        for c in components:
            if not isinstance(c, LambdaNElement) or c.level != level:
                raise InputError("components must be classes at the level")
        self.level = level
        self.components = components
        self.kernel_tag = kernel_tag


def _as_classes(fd: FrobeniusData, n: int, comps):
    if isinstance(comps, (RegulatorVector, ColemanVector)):
        comps = comps.components
    comps = list(comps)
    if len(comps) != fd.size:
        raise InputError(f"expected {fd.size} components")
    out = []
    for c in comps:
        if isinstance(c, LambdaNElement):
            if c.level != n:
                raise InputError(f"component at level {c.level}, need {n}")
            out.append(c)
        elif isinstance(c, XSeries):
            out.append(reduce_mod_omega(c, n))
        else:
            raise InputError("components must be series or classes")
    return out


def _apply_matrix(mat, polys, n: int):
    """Matrix of series times a vector of exact polynomials, as classes
    modulo omega_n."""
    out = []
    for row in mat:
        acc = None
        for e, f in zip(row, polys):
            term = e * f
            acc = term if acc is None else acc + term
        out.append(reduce_mod_omega(acc, n))
    return out


def forward(fd: FrobeniusData, n: int, col) -> RegulatorVector:
    """C_n ... C_1 applied to col inside the level-n quotient.

    Stage k applies C^{-1} and multiplies the scaled block by
    Phi_{p^k}, the steps of factor_level undone in reverse.
    """
    if n < 1:
        raise InputError("forward needs n >= 1")
    comps = _as_classes(fd, n, col)
    ctx = fd.ctx
    C_inv = _embed_matrix(ctx, pmat_from_frac(fd.C_inv))
    for k in range(1, n + 1):
        comps = _apply_matrix(C_inv, [c.rep for c in comps], n)
        phi = phi_cyclo(ctx, k)
        comps = [c if i < fd.fil_dim else reduce_mod_omega(c.rep * phi, n)
                 for i, c in enumerate(comps)]
    return RegulatorVector(n, comps)


def factor_level(fd: FrobeniusData, n: int, L,
                 cutoff: int = 1) -> ColemanVector:
    """Invert forward stage by stage.

    At stage k the scaled block must be divisible by Phi_{p^k}; a
    certified nonzero remainder raises NotInImage, an uncertified one
    raises PrecisionLoss.  The result is unique modulo ker(forward).
    """
    if n < 1:
        raise InputError("factor_level needs n >= 1")
    comps = _as_classes(fd, n, L)
    ctx = fd.ctx
    C_emb = _embed_matrix(ctx, pmat_from_frac(fd.C))
    for k in range(n, 0, -1):
        phi = phi_cyclo(ctx, k)
        divided = [c.rep if i < fd.fil_dim
                   else divide_exact(c.rep, phi, cutoff)
                   for i, c in enumerate(comps)]
        comps = _apply_matrix(C_emb, divided, n)
    return ColemanVector(n, comps, kernel_tag=f"mod ker h_{n}")


def _cphi_inv(fd: FrobeniusData):
    """C_phi^{-1} = diag(I, p I) C^{-1}."""
    return [[x * fd.ctx.p if i >= fd.fil_dim else x for x in row]
            for i, row in enumerate(fd.C_inv)]


def integral_shift(fd: FrobeniusData, n: int, raw) -> RegulatorVector:
    """Multiply by C_phi^-(n+1), reduce, and certify integrality.

    C_phi^{-1} = diag(I, p) C^{-1} is p-integral, so no denominators are
    introduced; the input's own denominators must cancel for the result
    to pass.
    """
    if n < 1:
        raise InputError("integral_shift needs n >= 1")
    ctx = fd.ctx
    raw = list(raw)
    if len(raw) != fd.size:
        raise InputError(f"expected {fd.size} series")
    for e in raw:
        if not isinstance(e, XSeries) or not e.is_exact_poly:
            raise InputError("raw components must be exact polynomials")
    shift = mat_pow(_cphi_inv(fd), n + 1, frac_identity(fd.size))
    shift_emb = _embed_matrix(ctx, pmat_from_frac(shift))
    comps = _apply_matrix(shift_emb, raw, n)
    for i, c in enumerate(comps):
        for j, coeff in enumerate(c.rep.coeffs):
            if coeff.is_zero_rep:
                if coeff.prec < 0:
                    raise PrecisionLoss(
                        f"component {i}, coefficient {j}: cannot certify "
                        f"integrality at absolute precision {coeff.prec}"
                    )
            elif coeff.v < 0:
                raise NotIntegral(
                    f"component {i}, coefficient {j} has valuation "
                    f"{coeff.v}",
                    witness=(i, j, repr(coeff)),
                )
    return RegulatorVector(n, comps)


def roundtrip_check(fd: FrobeniusData, n: int, col, cutoff: int = 1):
    """forward(factor_level(forward(col))) vs forward(col), exactly."""
    L = forward(fd, n, col)
    recovered = factor_level(fd, n, L)
    L2 = forward(fd, n, recovered)
    for i, (a, b) in enumerate(zip(L.components, L2.components)):
        st, idx = (a - b).zero_status(cutoff)
        if st != "zero":
            return {"ok": False, "witness": (i, idx, st)}
    return {"ok": True, "witness": None, "recovered": recovered}


def scale_vector(vec, a: LambdaNElement):
    """Multiply every component by a fixed level element."""
    comps = [a * c for c in vec.components]
    if isinstance(vec, RegulatorVector):
        return RegulatorVector(vec.level, comps)
    return ColemanVector(vec.level, comps, vec.kernel_tag)


def project_vector(vec, m: int):
    comps = [c.project(m) for c in vec.components]
    if isinstance(vec, RegulatorVector):
        return RegulatorVector(m, comps)
    return ColemanVector(m, comps, vec.kernel_tag)


def tower_projection_check(fd: FrobeniusData, n: int, col, cutoff: int = 1):
    """Project the level-(n+1) forward image down to level n and compare
    with C_phi^{-1} times the forward image of the projected vector."""
    comps_hi = _as_classes(fd, n + 1, col)
    hi = forward(fd, n + 1, comps_hi)
    lo = forward(fd, n, [c.project(n) for c in comps_hi])
    cphi_inv_emb = _embed_matrix(fd.ctx, pmat_from_frac(_cphi_inv(fd)))
    twisted = _apply_matrix(cphi_inv_emb, [c.rep for c in lo.components], n)
    for i, (a, b) in enumerate(zip(project_vector(hi, n).components,
                                   twisted)):
        st, idx = (a - b).zero_status(cutoff)
        if st != "zero":
            return {"ok": False, "witness": (i, idx, st)}
    return {"ok": True, "witness": None}


def kernel_basis(fd: FrobeniusData, n: int):
    """Saturated basis of ker(forward) as explicit vectors, via exact
    rational linear algebra on coefficient blocks.  Sizes are capped:
    the coefficient space has dimension size * p^n."""
    if fd.size > 4:
        raise InputError("kernel_basis supports size <= 4")
    if n < 1:
        raise InputError("kernel_basis needs n >= 1")
    p = fd.ctx.p
    N = p ** n
    omega = omega_ints(p, n)
    # C_n ... C_1 has degree below p^n: it is already reduced mod omega_n
    prod = build_chain(fd, n)[n]
    # matrix of the map on coefficient vectors: column (i, j) is the
    # image of X^j in component i
    dim = fd.size * N
    H = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(fd.size):
        for j in range(N):
            col_idx = i * N + j
            for c in range(fd.size):
                entry = prod[c][i]
                shifted = fpoly_divmod(
                    [Fraction(0)] * j + list(entry), omega)[1]
                for deg, val in enumerate(shifted):
                    H[c * N + deg][col_idx] = val
    null = frac_nullspace(H)
    if not null:
        return []
    sat = zp_saturate(null, p)
    ctx = fd.ctx
    out = []
    for vec in sat:
        comps = []
        for i in range(fd.size):
            coeffs = vec[i * N:(i + 1) * N]
            comps.append(LambdaNElement(
                ctx, n, XSeries.from_ints(ctx, coeffs)))
        out.append(ColemanVector(n, comps, kernel_tag="kernel element"))
    return out
