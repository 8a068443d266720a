"""Construction of admissible bases for a filtered lattice.

The central object is a free Z_p-lattice N of rank g together with a
distinguished family of g_plus dual vectors cutting out the filtration
step, given here as ``fil0_dual``.  A family v'_1, ..., v'_g of lattice
vectors is *admissible* when, for every subset I of {1, ..., g} of size
g_minus, the square matrix with columns (v'_i : i in I) followed by the
fil0_dual vectors has nonzero determinant; it is *saturated* when all
those determinants are units.  The *strong* variant asks the same of the
transported family T v'_i with T = (1 - phi)^{-1} (p phi - 1).

Everything here is decided in exact rational arithmetic.  The working
precision of the ambient context enters only through the indeterminacy
rule: a determinant that is nonzero but divisible by an extremely high
power of p is reported as indeterminate rather than silently classified.

The constructive lemmas (escaping a union of proper summands, merging
two complements, extending a basis in generic position) are exposed as
standalone functions since they are useful on their own and are tested
against brute-force certificates.  None of them searches without a
bound: the extension in unit position is a closed-form arc in F_p^m,
the normal rational curve for m <= p and a frame for m > p, as large as
the bounds of Ball and of Bush allow (see generic_position_extend).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import (
    DegenerateInput,
    Indeterminate,
    InputError,
    SearchExhausted,
    SingularOperator,
)
from .linalg import (
    INF,
    fp_rank,
    frac_det,
    frac_identity,
    frac_inv,
    frac_mat,
    frac_nullspace,
    frac_rank,
    mat_mul,
    mat_sub,
    vp_frac,
)
from .padic import PadicContext


def _as_vec(v, length: int, what: str):
    vec = [Fraction(x) for x in v]
    if len(vec) != length:
        raise InputError(f"{what} must have length {length}, got {len(vec)}")
    return vec


def _integral_vec(v, p: int, what: str):
    vec = []
    for x in v:
        q = Fraction(x)
        if q.denominator % p == 0:
            raise InputError(f"{what} has non p-integral entry {q}")
        vec.append(q)
    return vec


def _integerize_unit(vec, p: int):
    """Scale a vector by the unit lcm of its denominators, if that lcm
    is prime to p.  Returns a list of ints on success, Fractions else."""
    den = 1
    for x in vec:
        den = lcm(den, Fraction(x).denominator)
    if den % p == 0:
        return [Fraction(x) for x in vec]
    return [int(Fraction(x) * den) for x in vec]


@dataclass(frozen=True)
class SubsetCertificate:
    """Determinant evidence for one index subset of a candidate family."""

    indices: tuple
    det: Fraction
    valuation: object
    ok: bool
    unit: bool

    def as_dict(self) -> dict:
        val = "inf" if self.valuation == INF else int(self.valuation)
        return {
            "indices": list(self.indices),
            "det": str(self.det),
            "valuation": val,
            "ok": self.ok,
            "unit": self.unit,
        }


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Full subset-by-subset report for one family of vectors."""

    kind: str
    subsets: tuple
    admissible: bool
    saturated: bool

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "admissible": self.admissible,
            "saturated": self.saturated,
            "subsets": [s.as_dict() for s in self.subsets],
        }


@dataclass(frozen=True)
class StrongAdmissibilityCertificate:
    """Plain and transported certificates, combined verdict."""

    plain: AdmissibilityCertificate
    transported: AdmissibilityCertificate
    strongly_admissible: bool

    def as_dict(self) -> dict:
        return {
            "strongly_admissible": self.strongly_admissible,
            "plain": self.plain.as_dict(),
            "transported": self.transported.as_dict(),
        }


@dataclass(frozen=True)
class CandidateBasis:
    """A constructed family of lattice vectors with verification flags."""

    vectors: tuple
    admissible: bool
    saturated: bool
    is_basis: bool
    strongly_admissible: object = None
    certificates: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "vectors": [[str(x) for x in v] for v in self.vectors],
            "admissible": self.admissible,
            "saturated": self.saturated,
            "is_basis": self.is_basis,
            "strongly_admissible": self.strongly_admissible,
            "certificates": {
                k: v.as_dict() if hasattr(v, "as_dict") else v
                for k, v in self.certificates.items()
            },
        }


class LatticeSetup:
    """Ambient data for admissibility tests.

    Parameters
    ----------
    ctx:
        p-adic context; supplies the prime and the indeterminacy
        threshold.
    g:
        rank of the lattice.
    g_minus:
        size of the index subsets (so g_plus = g - g_minus vectors cut
        out the filtration).
    fil0_dual:
        g_plus vectors of length g with p-integral entries spanning a
        direct summand of the dual lattice.
    phi_matrix:
        optional g x g rational matrix, needed only for the strong
        variant.
    """

    __slots__ = ("ctx", "g", "g_minus", "fil0_dual", "phi_matrix")

    def __init__(self, ctx: PadicContext, g: int, g_minus: int,
                 fil0_dual, phi_matrix=None):
        if not isinstance(ctx, PadicContext):
            raise InputError("ctx must be a PadicContext")
        if g < 1:
            raise InputError("g must be at least 1")
        if not 1 <= g_minus <= g:
            raise InputError("g_minus must satisfy 1 <= g_minus <= g")
        g_plus = g - g_minus
        rows = [
            _integral_vec(_as_vec(v, g, "fil0_dual vector"), ctx.p,
                          "fil0_dual vector")
            for v in fil0_dual
        ]
        if len(rows) != g_plus:
            raise InputError(
                f"expected {g_plus} fil0_dual vectors, got {len(rows)}")
        if rows and fp_rank(rows, ctx.p) != g_plus:
            raise InputError(
                "fil0_dual does not span a direct summand of rank "
                f"{g_plus} (mod-p rank deficient)")
        self.ctx = ctx
        self.g = g
        self.g_minus = g_minus
        self.fil0_dual = tuple(tuple(r) for r in rows)
        if phi_matrix is None:
            self.phi_matrix = None
        else:
            mat = [_as_vec(r, g, "phi_matrix row") for r in phi_matrix]
            if len(mat) != g:
                raise InputError(f"phi_matrix must be {g} x {g}")
            self.phi_matrix = tuple(tuple(r) for r in mat)

    @property
    def g_plus(self) -> int:
        return self.g - self.g_minus

    def transport_operator(self):
        """The matrix T = (1 - phi)^{-1} (p phi - 1).

        Raises SingularOperator when 1 is an eigenvalue of phi (so the
        inverse does not exist) or when 1/p is (so T itself is
        singular and no transported family can be admissible).
        """
        if self.phi_matrix is None:
            raise InputError("setup carries no phi_matrix")
        phi = frac_mat(self.phi_matrix)
        ident = frac_identity(self.g)
        try:
            inv = frac_inv(mat_sub(ident, phi))
        except SingularOperator:
            raise SingularOperator(
                "1 - phi is singular (1 is an eigenvalue)") from None
        scaled = [[Fraction(self.ctx.p) * x for x in row] for row in phi]
        p_phi_minus = mat_sub(scaled, ident)
        if frac_det(p_phi_minus) == 0:
            raise SingularOperator(
                "p phi - 1 is singular (1/p is an eigenvalue)")
        return mat_mul(inv, p_phi_minus)


def _subset_certificates(setup: LatticeSetup, vectors, kind: str):
    """Run the determinant test over every index subset of size g_minus.

    The determinant for subset I is taken on the chosen vectors followed
    by the fil0_dual vectors as rows, the transpose of the column matrix
    (det A^T = det A).
    """
    g, m = setup.g, setup.g_minus
    tau = setup.ctx.rel_prec - g
    certs = []
    admissible = True
    saturated = True
    for I in itertools.combinations(range(1, g + 1), m):
        det = frac_det([vectors[i - 1] for i in I] + list(setup.fil0_dual))
        val = vp_frac(det, setup.ctx.p)
        if det == 0:
            certs.append(SubsetCertificate(I, det, INF, False, False))
            admissible = False
            saturated = False
            continue
        if val >= max(tau, 1):
            partial = AdmissibilityCertificate(
                kind, tuple(certs), False, False)
            raise Indeterminate(
                f"subset {I} determinant has valuation {val} >= "
                f"threshold {max(tau, 1)}; raise rel_prec to decide",
                certificate=partial,
            )
        certs.append(SubsetCertificate(I, det, val, True, val == 0))
        if val != 0:
            saturated = False
    return AdmissibilityCertificate(
        kind, tuple(certs), admissible, admissible and saturated)


def _family(setup: LatticeSetup, vectors):
    """The g candidate vectors as lists of Fractions."""
    vecs = [_as_vec(v, setup.g, "candidate vector") for v in vectors]
    if len(vecs) != setup.g:
        raise InputError(f"expected {setup.g} vectors, got {len(vecs)}")
    return vecs


def is_admissible(setup: LatticeSetup, vectors) -> AdmissibilityCertificate:
    """Certify admissibility of a family of g lattice vectors.

    Returns the full subset certificate; raises Indeterminate when some
    nonzero determinant is too deep in p to classify at the working
    precision.
    """
    return _subset_certificates(setup, _family(setup, vectors), "plain")


def is_strongly_admissible(setup: LatticeSetup,
                           vectors) -> StrongAdmissibilityCertificate:
    """Certify both the plain family and its transport under
    T = (1 - phi)^{-1} (p phi - 1)."""
    vecs = _family(setup, vectors)
    T = setup.transport_operator()
    return _strong_certificate(setup, vecs, [_transport(T, v) for v in vecs])


def _transport(T, v):
    """T v for a g x g matrix T and a vector v."""
    return [sum(t * x for t, x in zip(row, v)) for row in T]


def _strong_certificate(setup: LatticeSetup, vecs, moved):
    """The plain certificate of vecs and the transported one of
    moved = T vecs, with T already applied."""
    plain = _subset_certificates(setup, vecs, "plain")
    transported = _subset_certificates(setup, moved, "transported")
    return StrongAdmissibilityCertificate(
        plain, transported, plain.admissible and transported.admissible)


# ---------------------------------------------------------------------------
# constructive lemmas
# ---------------------------------------------------------------------------


def escape_union(ctx: PadicContext, rank: int, hyperplanes, k: int = 1):
    """Produce a primitive vector outside every listed corank-one
    summand and outside p^k times the lattice.

    ``hyperplanes`` is a list of bases, each consisting of rank-1
    many independent vectors of length ``rank``.  The returned vector
    has integer entries, is divisible by no positive power of p, and
    avoids the rational span of every hyperplane.  The 0/1 vectors are
    tried first, then at most h (rank - 1) + 1 points of the moment
    curve for h hyperplanes, one of which always escapes.
    """
    if rank < 1:
        raise InputError("rank must be at least 1")
    if k < 1:
        raise InputError("k must be at least 1")
    functionals = []
    for H in hyperplanes:
        rows = [_as_vec(h, rank, "hyperplane vector") for h in H]
        if len(rows) != rank - 1:
            raise InputError(
                "each hyperplane needs exactly rank-1 independent vectors")
        functionals.append(_hyperplane_functional(rows, rank))

    def escapes(vec) -> bool:
        return all(sum(f * x for f, x in zip(fn, vec)) for fn in functionals)

    # structured candidates first: standard vectors, then small sums
    for size in range(1, rank + 1):
        for pos in itertools.combinations(range(rank), size):
            vec = [1 if i in pos else 0 for i in range(rank)]
            if escapes(vec):
                return vec
    # then the moment curve: a nonzero functional vanishes at no more
    # than rank - 1 of its points, so one of the first h (rank - 1) + 1
    # escapes all h hyperplanes; its leading 1 keeps it primitive
    for t in range(1, len(functionals) * (rank - 1) + 2):
        vec = [t ** i for i in range(rank)]
        if escapes(vec):
            return vec
    raise SearchExhausted(
        f"no vector escaping {len(functionals)} hyperplanes in rank {rank}")


def avoid_slopes(ctx: PadicContext, a, b, c, d, forbidden):
    """Find unit coordinates (x, y) with c x + d y a unit and the ratio
    (a x + b y) / (c x + d y) avoiding a finite forbidden set.

    The 2 x 2 matrix [[a, b], [c, d]] must be p-integral with unit
    determinant.
    """
    a, b, c, d = (Fraction(t) for t in (a, b, c, d))
    for t in (a, b, c, d):
        if vp_frac(t, ctx.p) is not INF and vp_frac(t, ctx.p) < 0:
            raise InputError("matrix entries must be p-integral")
    det = a * d - b * c
    if det == 0 or vp_frac(det, ctx.p) != 0:
        raise InputError("matrix must have unit determinant")
    bad = {Fraction(f) for f in forbidden}

    def units():
        n = 0
        count = 0
        limit = ctx.p ** 3 + len(bad) + 16
        while count < limit:
            n += 1
            if n % ctx.p:
                count += 1
                yield n

    for x in units():
        for y in units():
            den = c * x + d * y
            if den == 0 or vp_frac(den, ctx.p) != 0:
                continue
            if (a * x + b * y) / den in bad:
                continue
            return (x, y)
    raise SearchExhausted("no unit pair avoids the forbidden ratio set")


def _hyperplane_functional(rows, rank: int):
    """A nonzero linear functional vanishing on a corank-one span (any
    nonzero one on the zero span of rank 1)."""
    ker = frac_nullspace([list(r) for r in rows] or [[Fraction(0)] * rank])
    if len(ker) != 1:
        raise InputError(
            "each hyperplane needs exactly rank-1 independent vectors")
    return ker[0]


def merge_complement(ctx: PadicContext, rank: int, W1, v1, W2, v2,
                     avoid_hyperplanes=()):
    """Merge two complements into one.

    Given corank-one summands W1, W2 with respective complements
    Z_p v1, Z_p v2, produce a single vector v that complements both,
    additionally avoiding each hyperplane in ``avoid_hyperplanes``.
    The vector is returned as a combination alpha v1 + beta v2 and is
    verified exactly before being returned.
    """
    p = ctx.p
    v1 = _as_vec(v1, rank, "v1")
    v2 = _as_vec(v2, rank, "v2")
    W1rows = [_as_vec(w, rank, "W1 vector") for w in W1]
    W2rows = [_as_vec(w, rank, "W2 vector") for w in W2]
    for rows, name in ((W1rows, "W1"), (W2rows, "W2")):
        if len(rows) != rank - 1 or (rows and frac_rank(rows) != rank - 1):
            raise InputError(f"{name} needs exactly rank-1 independent vectors")

    def bordered_det(rows, vec) -> Fraction:
        return frac_det(rows + [vec])

    x1 = bordered_det(W1rows, v1)
    x2 = bordered_det(W2rows, v2)
    if x1 == 0 or vp_frac(x1, p) != 0:
        raise DegenerateInput("v1 does not complement W1 (non-unit index)")
    if x2 == 0 or vp_frac(x2, p) != 0:
        raise DegenerateInput("v2 does not complement W2 (non-unit index)")
    b1 = bordered_det(W1rows, v2)
    a2 = bordered_det(W2rows, v1)

    functionals = []
    for H in avoid_hyperplanes:
        rows = [_as_vec(h, rank, "avoid hyperplane vector") for h in H]
        f = _hyperplane_functional(rows, rank)
        s1 = sum(Fraction(fi) * wi for fi, wi in zip(f, v1))
        s2 = sum(Fraction(fi) * wi for fi, wi in zip(f, v2))
        if s1 == 0 and s2 == 0:
            raise DegenerateInput(
                "both candidate complements lie in a hyperplane to avoid")
        functionals.append((s1, s2))

    def verify(alpha, beta):
        if alpha == 0 and beta == 0:
            return None
        vec = [alpha * u + beta * w for u, w in zip(v1, v2)]
        d1 = alpha * x1 + beta * b1
        d2 = alpha * a2 + beta * x2
        if d1 == 0 or vp_frac(d1, p) != 0:
            return None
        if d2 == 0 or vp_frac(d2, p) != 0:
            return None
        for s1, s2 in functionals:
            if alpha * s1 + beta * s2 == 0:
                return None
        return vec

    # the matrix sending (alpha, beta) to the two complement indices
    X = [[x1, b1], [a2, x2]]
    detX = x1 * x2 - b1 * a2
    if detX != 0 and vp_frac(detX, p) == 0:
        # invertible change of coordinates: pick the two indices directly
        # with the ratio search, then pull back
        forbidden = set()
        for s1, s2 in functionals:
            den = s1 * x2 - s2 * a2
            if den != 0:
                forbidden.add(Fraction(-(s2 * x1 - s1 * b1), den))
        try:
            dx, dy = avoid_slopes(ctx, 1, 0, 0, 1, forbidden)
        except SearchExhausted:
            dx = dy = None
        if dx is not None:
            Xinv = frac_inv(frac_mat(X))
            alpha = Xinv[0][0] * dx + Xinv[0][1] * dy
            beta = Xinv[1][0] * dx + Xinv[1][1] * dy
            got = verify(alpha, beta)
            if got is not None:
                return _integerize_unit(got, p)

    # bounded exact sweep; units first, then general residues
    units = [t for t in range(1, p * p) if t % p]
    rest = [t for t in range(p * p) if t % p == 0]
    order = units + rest
    for alpha in order:
        for beta in order:
            got = verify(Fraction(alpha), Fraction(beta))
            if got is not None:
                return _integerize_unit(got, p)
    raise SearchExhausted(
        "no combination of the two complements satisfies every condition")


def generic_position_extend(ctx: PadicContext, W_basis, k: int,
                            mode: str = "auto"):
    """Extend a basis of a rank-m lattice by k vectors so that every
    m-element subset of the output is itself a basis (mode ``units``)
    or at least spans rationally (mode ``nonzero``).

    Returns (vectors, achieved_mode).  Over a unit basis, a family is in
    unit position exactly when its coordinates mod p form an arc in
    F_p^m: m + k points of which every m are independent.  The arc is
    written down, not searched for.  For m = 1 the point 1, repeated, is
    an arc of any size.  For 2 <= m <= p the normal rational curve
    (1, t, ..., t^(m-1)), t in F_p, with (0, ..., 0, 1) is an arc of
    p + 1 points, and Ball (J. Eur. Math. Soc. 14, 2012) shows that no
    arc is larger.  For m > p the frame e_1, ..., e_m, (1, ..., 1) has
    m + 1 points, the bound of Bush (Ann. Math. Statist. 23, 1952).  One
    inverse mod p sends the first m points onto the given basis.  Past
    the bound, mode ``units`` raises SearchExhausted and mode ``auto``
    degrades to nonzero.
    """
    if mode not in ("units", "nonzero", "auto"):
        raise InputError(f"unknown mode {mode!r}")
    if k < 0:
        raise InputError("k must be nonnegative")
    m = len(W_basis)
    if m < 1:
        raise InputError("W_basis must be nonempty")
    basis = [
        _integral_vec(_as_vec(v, m, "basis vector"), ctx.p, "basis vector")
        for v in W_basis
    ]
    det0 = frac_det(basis)
    if det0 == 0 or vp_frac(det0, ctx.p) != 0:
        raise InputError("W_basis is not a basis (determinant not a unit)")
    if k == 0:
        return [list(v) for v in basis], "units"

    p = ctx.p

    def all_subset_dets_ok(vectors, want_units: bool) -> bool:
        for sub in itertools.combinations(vectors, m):
            det = frac_det(sub)
            if det == 0:
                return False
            if want_units and vp_frac(det, p) != 0:
                return False
        return True

    def extend(coordinates):
        # coordinates in the given basis keep the output inside W
        return [list(v) for v in basis] + [
            [sum(c * v[j] for c, v in zip(coords, basis)) for j in range(m)]
            for coords in coordinates]

    if mode in ("units", "auto"):
        if m == 1:
            arc = [[1]] * (k + 1)
        elif m <= p:
            # the normal rational curve at t = 0, infinity, 1, ..., p - 1
            arc = [[pow(t, i, p) for i in range(m)] for t in range(p)]
            arc.insert(1, [0] * (m - 1) + [1])
        else:
            arc = [[int(i == j) for j in range(m)] for i in range(m)]
            arc.append([1] * m)
        if len(arc) >= m + k:
            inv = frac_inv(arc[:m])
            coords = [[sum(x * y for x, y in zip(pt, col))
                       for col in zip(*inv)] for pt in arc[m:m + k]]
            out = extend([[c.numerator * pow(c.denominator, -1, p) % p
                           for c in row] for row in coords])
            if all_subset_dets_ok(out, True):
                return out, "units"
        if mode == "units":
            raise SearchExhausted(
                f"cannot keep all {m}-subset determinants unital for "
                f"{m + k} vectors over F_{p}; an arc in F_{p}^{m} has at "
                f"most {len(arc)} vectors")

    # moment-curve extension: coordinates (1, t, t^2, ...) at distinct
    # positive integers t give every mixed minor a nonzero generalized
    # Vandermonde determinant
    out = extend([t ** i for i in range(m)] for t in range(1, k + 1))
    if not all_subset_dets_ok(out, False):
        raise SearchExhausted("moment-curve extension failed verification")
    return out, "nonzero"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _complement_indices(setup: LatticeSetup):
    """Standard vectors extending fil0_dual to a basis mod p, greedily;
    the rows keep full rank mod p, as LatticeSetup checks fil0_dual."""
    p = setup.ctx.p
    rows = [list(v) for v in setup.fil0_dual]
    chosen = []
    for i, e in enumerate(frac_identity(setup.g)):
        if fp_rank(rows + [e], p) > len(rows):
            rows.append(e)
            chosen.append(i)
        if len(chosen) == setup.g_minus:
            break
    if len(chosen) != setup.g_minus:
        raise DegenerateInput("could not complete fil0_dual to a basis mod p")
    return chosen


def construct_admissible(setup: LatticeSetup) -> CandidateBasis:
    """Build an admissible family of g vectors deterministically.

    The quotient of the lattice by the span of fil0_dual is identified
    with Z_p^{g_minus} through a complement of standard vectors; a
    generic-position extension there is lifted back, adding one
    fil0_dual vector to each of the last g_plus lifts so that the
    family is simultaneously a basis.  The result is re-verified from
    scratch before being returned.
    """
    g, m = setup.g, setup.g_minus
    comp = _complement_indices(setup)
    # change of coordinates: rows are the complement standard vectors
    # followed by fil0_dual; unimodular by the greedy construction
    ident = frac_identity(g)
    A = [ident[i] for i in comp] + list(setup.fil0_dual)
    ext, achieved = generic_position_extend(setup.ctx, frac_identity(m),
                                            setup.g_plus, mode="auto")
    Ainv = frac_inv(A)
    vectors = []
    for idx, w in enumerate(ext):
        coords = list(w) + [Fraction(0)] * setup.g_plus
        if idx >= m:
            coords[m + (idx - m)] = Fraction(1)
        vec = [
            sum(Ainv[i][j] * coords[j] for j in range(g))
            for i in range(g)
        ]
        vectors.append(_integerize_unit(vec, setup.ctx.p))
    cert = is_admissible(setup, vectors)
    if not cert.admissible:
        raise SearchExhausted(
            "constructed family failed its own admissibility certificate")
    basis_det = frac_det(vectors)
    is_basis = basis_det != 0 and vp_frac(basis_det, setup.ctx.p) == 0
    return CandidateBasis(
        vectors=tuple(tuple(v) for v in vectors),
        admissible=cert.admissible,
        saturated=cert.saturated,
        is_basis=is_basis,
        certificates={"plain": cert, "extension_mode": achieved},
    )


def construct_strongly_admissible(setup: LatticeSetup,
                                  seed: int = 0) -> CandidateBasis:
    """Build a strongly admissible family by seeded random search.

    Vectors are sampled one at a time; a partial family is kept only
    when every subset of the appropriate size has full column rank
    against fil0_dual for both the plain and the transported family.
    Each accepted vector is transported once, and the finished family is
    re-verified with the same certificates as is_strongly_admissible
    and must additionally be a basis.  Falls back to a deterministic
    sweep over small residues before giving up.
    """
    g, m = setup.g, setup.g_minus
    p = setup.ctx.p
    T = setup.transport_operator()
    fil_rows = [list(v) for v in setup.fil0_dual]

    def extend(vecs, moved, cand):
        """The families vecs and moved = T vecs grown by cand and T cand,
        or None unless both keep full rank against fil0_dual on every
        subset of the appropriate size."""
        vecs, moved = vecs + [cand], moved + [_transport(T, cand)]
        size = min(m, len(vecs))
        for fam in (vecs, moved):
            for sub in itertools.combinations(fam, size):
                rows = [list(v) for v in sub] + fil_rows
                if frac_rank(rows) != size + setup.g_plus:
                    return None
        return vecs, moved

    def finish(vecs, moved):
        det = frac_det(vecs)
        if det == 0 or vp_frac(det, p) != 0:
            return None
        cert = _strong_certificate(setup, vecs, moved)
        if not cert.strongly_admissible:
            return None
        return CandidateBasis(
            vectors=tuple(tuple(_integerize_unit(v, p)) for v in vecs),
            admissible=cert.plain.admissible,
            saturated=cert.plain.saturated,
            is_basis=True,
            strongly_admissible=True,
            certificates={"strong": cert},
        )

    rng = random.Random(seed)
    for _ in range(64):
        vecs, moved = [], []
        while len(vecs) < g:
            tries = ([Fraction(rng.randrange(p * p)) for _ in range(g)]
                     for _try in range(64))
            grown = next(filter(None, (extend(vecs, moved, c)
                                       for c in tries)), None)
            if grown is None:
                break
            vecs, moved = grown
        if len(vecs) == g:
            found = finish(vecs, moved)
            if found is not None:
                return found

    # deterministic fallback over small residues
    pool = list(itertools.product(range(p), repeat=g))
    pool = [list(map(Fraction, t)) for t in pool if any(t)]

    def grow(vecs, moved):
        if len(vecs) == g:
            return finish(vecs, moved)
        for cand in pool:
            grown = extend(vecs, moved, cand)
            if grown is not None:
                got = grow(*grown)
                if got is not None:
                    return got
        return None

    found = grow([], [])
    if found is None:
        raise SearchExhausted(
            "no strongly admissible basis found by sampling or sweep")
    return found
