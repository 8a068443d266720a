"""Finite-level signed-Coleman factorization.

forward multiplies a coordinate vector by C_n ... C_1 inside the level-n
quotient; factor_level inverts that product stage by stage, dividing
the scaled block by Phi_{p^k} and multiplying by C at each stage
k = n..1.  Each is a lift, a core (_forward, _factor) and one rounding;
roundtrip_check lifts once and rounds only the two views it returns.
Division happens on the degree-reduced representative, which is sound
because Phi_{p^k} divides omega_n: a class is divisible iff its reduced
representative is divisible as a polynomial.

The maps run exactly on the input lifted once to an integer form (a
column of integer polynomials over one denominator, see linalg), with
one absolute precision N for the whole vector.  Only a returned view is
rounded, each output coefficient once at N, less the digits a
non-p-integral matrix could lose (none when admitted); a zero one is
O(p^N).  The checks decide on the exact
forms, with one certification rule (_first_unresolved): a certified
nonzero anywhere in the vector, found by linalg.form_witness, comes
before an indeterminate verdict.

The factorization result is unique only modulo the kernel of the
forward map; the kernel_tag of a ColemanVector records that, and
kernel_basis computes an explicit saturated basis for small sizes.
RegulatorVector and ColemanVector check their components alike.
"""

from __future__ import annotations

from .errors import InputError, NotInImage, NotIntegral, PrecisionLoss
from .linalg import (
    form_depth,
    form_mod,
    form_mul,
    form_sub,
    form_witness,
    pseudo_divmod,
    vp_frac,
    zp_nullspace,
)
from .logmatrix import FrobeniusData
from .padic import INF
from .series import (
    LambdaNElement,
    XSeries,
    cyclo_residue,
    form_views,
    omega_ints,
    phi_cyclo_ints,
)


def _check_components(level: int, components):
    """The components as a tuple, each a class at the level."""
    components = tuple(components)
    for c in components:
        if not isinstance(c, LambdaNElement) or c.level != level:
            raise InputError("components must be classes at the level")
    return components


class RegulatorVector:
    """Level-n vector of finite-level classes (the regulator side)."""

    __slots__ = ("level", "components")

    def __init__(self, level: int, components):
        self.level = level
        self.components = _check_components(level, components)


class ColemanVector:
    """Level-n coordinate vector, certified modulo the forward kernel."""

    __slots__ = ("level", "components", "kernel_tag")

    def __init__(self, level: int, components, kernel_tag: str = ""):
        self.level = level
        self.components = _check_components(level, components)
        self.kernel_tag = kernel_tag


def _as_classes(fd: FrobeniusData, n: int, comps):
    """Lift the components once: (x, N), the components as a column
    integer form reduced mod omega_n, and one absolute precision N for
    the whole vector, the least abs_prec() of its coefficients (INF only
    when every coefficient is an exact zero).  A coefficient p^v u is
    lifted to the numerator u p^(v + k) over p^k, for the least k >= 0
    that clears every v."""
    if isinstance(comps, (RegulatorVector, ColemanVector)):
        comps = comps.components
    comps = list(comps)
    if len(comps) != fd.size:
        raise InputError(f"expected {fd.size} components")
    p = fd.ctx.p
    reps, N = [], INF
    for c in comps:
        if isinstance(c, LambdaNElement):
            if c.level != n:
                raise InputError(f"component at level {c.level}, need {n}")
            c = c.rep
        elif not isinstance(c, XSeries):
            raise InputError("components must be series or classes")
        elif not c.is_exact_poly:
            raise PrecisionLoss("cannot reduce a truncated series modulo "
                                "omega_n")
        N = min(N, min((x.abs_prec() for x in c.coeffs), default=INF))
        reps.append(c.coeffs)
    k = max([0] + [-x.v for cs in reps for x in cs if x.u is not None])
    X = [[[0 if x.u is None else x.u * p ** (x.v + k) for x in cs]]
         for cs in reps]
    return form_mod((X, p ** k), omega_ints(p, n)), N


def _first_unresolved(x, p: int, N, cutoff: int):
    """The certification rule on a column form x known modulo p^N: the
    first coefficient j of valuation below N, in any component i, gives
    (i, j, "nonzero"); failing that, N < cutoff gives (0, 0,
    "indeterminate") when x has a component, and None means x is
    certified zero."""
    witness = form_witness(x, p, N)
    if witness:
        return witness[0], witness[2], "nonzero"
    if N < cutoff and x[0]:
        return 0, 0, "indeterminate"
    return None


def _apply(M, x, p: int, n: int):
    """The integer form M times the column form x, reduced mod omega_n."""
    return form_mod(form_mul(M, x), omega_ints(p, n))


def _embed(ctx, n: int, x, N):
    """Level-n classes of the column form x known modulo p^N; a zero
    coefficient is O(p^N), so each has p^n terms unless N is INF."""
    return [LambdaNElement(ctx, n, e)
            for (e,) in form_views(ctx, x, N, ctx.p ** n)]


def _forward(fd: FrobeniusData, n: int, x, N):
    """(P_n x mod omega_n, N_y) for the column form x known modulo p^N:
    N_y is N less what C^-1 can lose at each of the n stages (nothing for
    an admitted instance)."""
    p = fd.ctx.p
    return (_apply(fd.tower.P(n), x, p, n),
            N + n * form_depth(fd.tower.frob_inv, p))


def _factor(fd: FrobeniusData, n: int, x, N, cutoff: int):
    """(z, N_z): forward inverted stage by stage on the column form x
    known modulo p^N, which is left as it is.  At stage k = n..1 the
    scaled block is divided by Phi_{p^k} and the vector is multiplied
    by C; a remainder coefficient of valuation below N raises
    NotInImage, and a remainder that vanishes modulo p^N with N below
    the cutoff raises PrecisionLoss."""
    p = fd.ctx.p
    C = fd.tower.frob
    lost = form_depth(C, p)
    for k in range(n, 0, -1):
        phi = phi_cyclo_ints(p, k)
        X, d = [row[:] for row in x[0]], x[1]
        rems = []
        for i in range(fd.fil_dim, fd.size):
            X[i][0], rem, _ = pseudo_divmod(X[i][0], phi)
            rems.append([rem])
        bad = _first_unresolved((rems, d), p, N, cutoff)
        if bad and bad[2] == "nonzero":
            raise NotInImage("division leaves certified-nonzero "
                             f"remainder at X^{bad[1]}")
        if bad:
            raise PrecisionLoss(f"remainder known only modulo p^{N}, "
                                f"unresolved at cutoff {cutoff}")
        x = _apply(C, (X, d), p, n)
        N += lost
    return x, N


def forward(fd: FrobeniusData, n: int, col) -> RegulatorVector:
    """C_n ... C_1 applied to col in the level-n quotient (_forward)."""
    if n < 1:
        raise InputError("forward needs n >= 1")
    y, N = _forward(fd, n, *_as_classes(fd, n, col))
    return RegulatorVector(n, _embed(fd.ctx, n, y, N))


def factor_level(fd: FrobeniusData, n: int, L,
                 cutoff: int = 1) -> ColemanVector:
    """Invert forward stage by stage (_factor); the result is unique
    modulo ker(forward)."""
    if n < 1:
        raise InputError("factor_level needs n >= 1")
    z, N = _factor(fd, n, *_as_classes(fd, n, L), cutoff)
    return ColemanVector(n, _embed(fd.ctx, n, z, N),
                         kernel_tag=f"mod ker h_{n}")


def integral_shift(fd: FrobeniusData, n: int, raw) -> RegulatorVector:
    """Multiply by C_phi^-(n+1), reduce, and certify integrality.

    C_phi^{-1} = diag(I, p) C^{-1} is p-integral, so no denominators are
    introduced; the input's own denominators must cancel for the result
    to pass.
    """
    if n < 1:
        raise InputError("integral_shift needs n >= 1")
    raw = list(raw)
    if len(raw) != fd.size:
        raise InputError(f"expected {fd.size} series")
    for e in raw:
        if not isinstance(e, XSeries) or not e.is_exact_poly:
            raise InputError("raw components must be exact polynomials")
    x, N = _as_classes(fd, n, raw)
    p = fd.ctx.p
    shift = fd.tower.cphi_power(-(n + 1))
    y = _apply(shift, x, p, n)
    N += form_depth(shift, p)
    comps = _embed(fd.ctx, n, y, N)
    # nonintegral below valuation min(N, 0), looked for in every
    # coefficient first; at N < 0 nothing else certifies
    bad = form_witness(y, p, min(N, 0))
    if bad:
        (Y, d), (i, _, j) = y, bad
        v = vp_frac(Y[i][0][j], p) - vp_frac(d, p)
        raise NotIntegral(f"component {i}, coefficient {j} has valuation {v}",
                          witness=(i, j, repr(comps[i].rep.coeffs[j])))
    if N < 0:
        raise PrecisionLoss(
            f"cannot certify integrality at absolute precision {N}")
    return RegulatorVector(n, comps)


def roundtrip_check(fd: FrobeniusData, n: int, col, cutoff: int = 1):
    """forward(factor_level(forward(col))) vs forward(col), exactly;
    "image" is forward(col).  The input is lifted once and the three maps
    run on exact forms; only the image and the preimage are rounded.  The
    factorization runs at the same cutoff, so it raises PrecisionLoss when
    the image is known to fewer than cutoff digits.  The two images are
    compared at the smaller of their precisions."""
    if n < 1:
        raise InputError("forward needs n >= 1")
    y, Ny = _forward(fd, n, *_as_classes(fd, n, col))
    image = RegulatorVector(n, _embed(fd.ctx, n, y, Ny))
    z, Nz = _factor(fd, n, y, Ny, cutoff)
    recovered = ColemanVector(n, _embed(fd.ctx, n, z, Nz),
                              kernel_tag=f"mod ker h_{n}")
    b, Nb = _forward(fd, n, z, Nz)
    witness = _first_unresolved(form_sub(y, b), fd.ctx.p, min(Ny, Nb),
                                cutoff)
    if witness:
        return {"ok": False, "witness": witness, "image": image}
    return {"ok": True, "witness": None, "recovered": recovered,
            "image": image}


def tower_projection_check(fd: FrobeniusData, n: int, col, cutoff: int = 1):
    """Project the level-(n+1) forward image down to level n and compare
    with C_phi^{-1} times the forward image of the projected vector.

    Both images read P_n x once (_forward) from the lifted vector x.
    omega_n divides omega_(n+1), so projecting P_(n+1) x = C_(n+1) P_n x
    to level n is exactly (C_(n+1) mod omega_n)(P_n x) mod omega_n.  As
    C^-1 is constant and reduction mod the monic omega_n is Z-linear,
    C_(n+1) mod omega_n is diag(I, r I) C^-1, with r = Phi_{p^(n+1)}(1+X)
    mod omega_n read once per process (series.cyclo_residue).
    """
    if n < 1:
        raise InputError("tower_projection_check needs n >= 1")
    p, tower = fd.ctx.p, fd.tower
    low, N = _forward(fd, n, *_as_classes(fd, n + 1, col))
    top = tower._scaled(tower.frob_inv, cyclo_residue(p, n + 1, n))
    cphi_inv = tower.cphi_power(-1)
    hi = _apply(top, low, p, n)
    twisted = _apply(cphi_inv, low, p, n)
    N += min(form_depth(tower.frob_inv, p), form_depth(cphi_inv, p))
    witness = _first_unresolved(form_sub(hi, twisted), p, N, cutoff)
    return {"ok": not witness, "witness": witness}


def _times_x(f, omega):
    """X f mod omega for an integer polynomial f of length deg omega and
    a monic integer omega."""
    top = f[-1]
    out = [0] + f[:-1]
    return [c - top * w for c, w in zip(out, omega)] if top else out


def kernel_basis(fd: FrobeniusData, n: int):
    """Saturated basis of ker(forward) as explicit vectors, from one
    integer elimination over Z_(p) on coefficient blocks.  The
    coefficient space has dimension size * p^n, and at most 256 columns
    are admitted: the elimination takes seconds near that budget."""
    if n < 1:
        raise InputError("kernel_basis needs n >= 1")
    p = fd.ctx.p
    N = p ** n
    if fd.size * N > 256:
        raise InputError(
            f"kernel_basis supports size * p^n <= 256, got {fd.size * N}")
    omega = omega_ints(p, n)
    # the matrix of the map on coefficient vectors: column (i, j) is the
    # image of X^j in component i.  The numerators of the tower's P_n are
    # C_n ... C_1 (of degree below p^n) times its one denominator, which
    # scales H and leaves the kernel as it is.
    H = []
    for nums in fd.tower.P(n)[0]:
        block = [[0] * (fd.size * N) for _ in range(N)]
        for i, f in enumerate(nums):
            f = f + [0] * (N - len(f))
            for j in range(N):
                for deg, val in enumerate(f):
                    block[deg][i * N + j] = val
                f = _times_x(f, omega)
        H += block
    columns = ([[vec[i * N:(i + 1) * N]] for i in range(fd.size)]
               for vec in zp_nullspace(H, p))
    return [ColemanVector(n, _embed(fd.ctx, n, (X, 1), INF),
                          kernel_tag="kernel element") for X in columns]
