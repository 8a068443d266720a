"""The benchmark's workloads: inputs made from a seed, the operations that
run on them, and the check of every operation's output.

An operation is one public padlog call that returns a verdict or a
result (for `cli`, one process).  `build(workload, seed, root, work,
traced)` returns the list of operations of one round (`work` is a
scratch directory for the CLI's files); the runner repeats whole
rounds.  Each operation's check compares its output with the
independent `reference` module, or with a property the method must
have, and raises `CheckFailed` on disagreement.

Instance shapes, levels and grids are fixed per workload; the seed
draws the random matrices, vectors, basis changes, filtrations and
search seeds, so every seed runs the same amount of structural work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import padlog as P

import reference as R

WORKLOADS = ("tower", "coleman", "wach", "cli")


class CheckFailed(Exception):
    """An operation returned an output the reference rejects."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def keep(state, key, value):
    """Store an operation's result for the operations that use it."""
    state[key] = value
    return value


class Op:
    """One operation: `call()` runs the library, `check(result)` verifies
    its output outside the timed region."""

    __slots__ = ("label", "call", "check", "pure")

    def __init__(self, label, call, check, pure=True):
        self.label = label
        self.call = call
        self.check = check
        # pure: the output is the whole result, so an equal result needs
        # no second check (a CLI run's output is also the file it wrote)
        self.pure = pure


# -- inputs -------------------------------------------------------------------


NONZERO = (-3, -2, -1, 1, 2, 3)


def dense(rng, rows, cols, values=NONZERO):
    """A rows x cols matrix of entries drawn from values.  Entries are
    nonzero so that every seed does the same polynomial work: a zero
    entry empties whole products in the tower."""
    return [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]


def admitted_instance(rng, ctx, size, d0):
    """First gate-passing dense matrix drawn from rng.  Entries are
    +-1, +-2, +-3 and +-p: the slope window needs entries divisible by p
    (for size 2, the lower right one)."""
    values = sorted(set(NONZERO) | {ctx.p, -ctx.p})
    for _ in range(20000):
        C = dense(rng, size, size, values)
        try:
            return P.FrobeniusData.create(ctx, C, d0=d0, r=1)
        except P.HypothesisFailed:
            continue
    raise RuntimeError(f"no admitted instance for p={ctx.p}, size={size}")


def _unit_block(rng, k, p):
    while True:
        M = R.frac_matrix(dense(rng, k, k))
        det = R.perm_det(M)
        if det and det.numerator % p:
            return M


def adapted_B(rng, fd, with_Q):
    """A filtration-adapted basis change [[P, Q], [0, R]] with unit
    diagonal blocks; Q = 0 unless with_Q, in which case Q is dense."""
    g, f, p = fd.size, fd.fil_dim, fd.ctx.p
    top, bottom = _unit_block(rng, f, p), _unit_block(rng, g - f, p)
    B = [[Fraction(0)] * g for _ in range(g)]
    for i in range(f):
        B[i][:f] = top[i]
    for i in range(g - f):
        B[f + i][f:] = bottom[i]
    if with_Q:
        for i, row in enumerate(dense(rng, f, g - f)):
            B[i][f:] = R.frac_matrix([row])[0]
    return B


def random_vector(rng, size):
    """size polynomials with three nonzero coefficients in [-9, 9]."""
    return dense(rng, size, 3, [x for x in range(-9, 10) if x])


def lattice_setup(rng, p, g, g_minus, phi=None):
    """A LatticeSetup with random fil0_dual rows in [-3, 3]."""
    ctx = P.PadicContext(p)
    while True:
        fil = [[rng.randint(-3, 3) for _ in range(g)]
               for _ in range(g - g_minus)]
        try:
            return P.LatticeSetup(ctx, g, g_minus, fil, phi)
        except P.InputError:
            continue


# -- converting library values for the reference ------------------------------


def scalar_triple(s):
    return (R.INF, None, s.prec) if s.u is None else (s.v, s.u, s.prec)


def series_agrees(xs, f, p, length=None):
    """Every stored coefficient of the XSeries xs agrees with the exact
    polynomial f at certified precision; past an exact polynomial's
    stored coefficients, f must vanish."""
    n = length if length is not None else max(len(xs.coeffs), len(f))
    for j in range(n):
        if j < len(xs.coeffs):
            v, u, prec = scalar_triple(xs.coeffs[j])
        elif xs.trunc is None:
            v, u, prec = R.INF, None, R.INF
        else:
            return False
        if not R.certified_agree(v, u, prec, f[j] if j < len(f) else 0, p):
            return False
    return True


def require_matrix(M, ref, p, what, length=None):
    for i, row in enumerate(M):
        for j, e in enumerate(row):
            require(series_agrees(e, ref[i][j], p, length),
                    f"{what}: entry ({i}, {j}) disagrees with the reference")


def lifted(xs, p):
    """(rational representative, absolute precision) of a series whose
    coefficients are library scalars."""
    vals, prec = [], R.INF
    for c in xs.coeffs:
        val, ap = R.scalar_value(*scalar_triple(c), p)
        vals.append(val)
        prec = min(prec, ap)
    return R.ptrim(vals), prec


def vanishes_to(poly, prec, p):
    return all(R.vp(c, p) >= prec for c in poly)


# -- tower --------------------------------------------------------------------

# (p, size, d0, top level) of the random admitted instances.
TOWER_SHAPES = ((3, 2, 1, 4), (3, 3, 1, 3), (3, 4, 2, 2), (5, 2, 1, 2),
                (5, 3, 2, 1), (5, 4, 2, 2), (7, 2, 1, 2), (7, 3, 1, 1))
ANTIDIAGONAL_TOP = 5


def tower_ops(seed):
    rng = random.Random(f"tower-{seed}")
    cases = []
    ctx3 = P.PadicContext(3, rel_prec=20, denom_budget=24)
    cases.append((P.pollack_instance(ctx3), ANTIDIAGONAL_TOP, True))
    for p, size, d0, top in TOWER_SHAPES:
        ctx = P.PadicContext(p, rel_prec=20, denom_budget=24)
        cases.append((admitted_instance(rng, ctx, size, d0), top, False))
    ops = []
    for fd, top, anti in cases:
        ops += _tower_instance_ops(fd, top, anti, adapted_B(rng, fd, False),
                                   adapted_B(rng, fd, True))
    return ops


def _tower_instance_ops(fd, top, anti, B_diag, B_q):
    p, fil = fd.ctx.p, fd.fil_dim
    C = [list(row) for row in fd.C]
    ref = R.Tower(C, fil, p)
    ref_w = functools.cache(lambda name: R.Tower(
        R.conjugated_C(C, fil, p, B_diag if name == "diag" else B_q), fil, p))
    tag = f"p{p}s{fd.size}" + ("anti" if anti else "")
    state = {}
    ops = []

    def check_gate(rep):
        require(rep.ok, "admitted instance fails the gate")
        require(rep.det_C == R.perm_det(ref.C), "det(C) differs")

    def check_build(approx, n):
        Mn = ref.Mn(n)
        require(R.value_at_zero(Mn) == ref.Cphi, "reference M_n(0) != C_phi")
        require_matrix(approx.raw, Mn, p, f"M_{n}")
        w = R.omega(p, n)
        require_matrix([[e.rep for e in row] for row in approx.reduced],
                       R.pmat_mod(Mn, w), p, f"M_{n} mod omega_{n}")
        if anti:
            require(Mn == R.antidiagonal_closed_form(p, n),
                    "reference M_n misses the antidiagonal closed form")

    def check_det(rep, n):
        require(rep["raw_match"] and rep["reduced_match"],
                "det_Mn reports a mismatch")
        closed = ref.det_closed_form(n)
        require(series_agrees(rep["det"], closed, p),
                "det M_n differs from the closed form")
        require(series_agrees(rep["closed_form"], closed, p),
                "library closed form differs from the reference")

    def check_stab(ok, n):
        require(ok is True, "stabilization verdict is not True")
        diff = R.pmat_sub(ref.Mn(n), ref.Mn(n - 1))
        require(R.is_zero_pmat(R.pmat_mod(diff, R.omega(p, n - 1))),
                "reference M_n != M_(n-1) mod omega_(n-1)")

    def check_conj(rep, n, name):
        B = B_diag if name == "diag" else B_q
        tw = ref_w(name)
        require([list(r) for r in rep["conjugated_C"]] == tw.C,
                 "conjugated C differs from B C_phi B^-1 diag(I, p)")
        Bc = R.pmat_const(B)
        moved = R.pmat_mul(R.pmat_mul(Bc, ref.Mn(n)),
                           R.pmat_const(R.mat_inv(B)))
        defect = R.pmat_sub(tw.Mn(n), moved)
        exact = R.is_zero_pmat(defect)
        mod = R.is_zero_pmat(R.pmat_mod(defect, R.omega(p, n)))
        if name == "diag":
            require(exact, "law (a): block-diagonal B must transport M_n")
        elif n == 1:
            require(not exact, "law (b): Q != 0 must leave a level-1 defect")
        lev = rep["levels"][n]
        require(lev["exact"] == exact and lev["mod_omega"] == mod,
                f"conjugation verdicts {lev['exact']}, {lev['mod_omega']} "
                f"differ from the reference {exact}, {mod}")

    def check_anti(rep, n):
        require(rep["ok"], "verify_antidiagonal fails")
        require(ref.Mn(n) == R.antidiagonal_closed_form(p, n),
                "reference M_n misses the antidiagonal closed form")

    for n in range(1, top + 1):
        lbl = f"{tag}n{n}"
        ops.append(Op(f"check_hypotheses {lbl}",
                      lambda: P.check_hypotheses(fd), check_gate))
        ops.append(Op(f"build_Mn {lbl}",
                      lambda n=n: keep(state, "approx", P.build_Mn(fd, n)),
                      lambda r, n=n: check_build(r, n)))
        ops.append(Op(f"check_evaluation {lbl}",
                      lambda: P.check_evaluation(state["approx"]),
                      lambda r: require(r["ok"], "M_n(0) != C_phi")))
        ops.append(Op(f"det_Mn {lbl}", lambda n=n: P.det_Mn(fd, n),
                      lambda r, n=n: check_det(r, n)))
        if n >= 2:
            ops.append(Op(f"verify_stabilization {lbl}",
                          lambda n=n: P.verify_stabilization(fd, n - 1, n),
                          lambda r, n=n: check_stab(r, n)))
        for name, B in (("diag", B_diag), ("Q", B_q)):
            ops.append(Op(
                f"conjugate_basis_check {name} {lbl}",
                lambda n=n, B=B: P.conjugate_basis_check(fd, B, levels=(n,)),
                lambda r, n=n, name=name: check_conj(r, n, name)))
        if anti:
            ops.append(Op(f"verify_antidiagonal {lbl}",
                          lambda n=n: P.verify_antidiagonal(fd, n),
                          lambda r, n=n: check_anti(r, n)))
    return ops


# -- coleman ------------------------------------------------------------------

# (p, size, d0, top level) for forward / roundtrip / tower projection:
# VECTORS instances of each shape, each with one random vector per level,
# so that operations of equal shape come from independent instances.
COLEMAN_SHAPES = ((3, 2, 1, 3), (3, 3, 1, 2), (3, 4, 2, 2), (5, 2, 1, 2),
                  (5, 3, 2, 1), (7, 2, 1, 2))
# (p, size, d0, n) for kernel_basis: size * p^n = 18, 20, 21, 27, 36, 54.
KERNEL_CASES = ((3, 2, 1, 2), (5, 4, 2, 1), (7, 3, 1, 1), (3, 3, 1, 2),
                (3, 4, 2, 2), (3, 2, 1, 3))
# (p, g, g_minus) for construct_admissible.
ADMISSIBLE_CASES = ((3, 4, 2), (3, 6, 4), (5, 5, 3), (5, 6, 2), (7, 4, 1),
                    (7, 6, 3))
# (p, g, d0 of the instance giving phi_matrix, g_minus) for
# construct_strongly_admissible, each run with STRONG_SEEDS search seeds.
STRONG_CASES = ((3, 4, 2, 2), (5, 4, 2, 2), (7, 4, 2, 2))
STRONG_SEEDS = 3
VECTORS = 3


def coleman_ops(seed):
    rng = random.Random(f"coleman-{seed}")
    ops = []
    for p, size, d0, top in COLEMAN_SHAPES:
        for k in range(VECTORS):
            fd = admitted_instance(rng, P.PadicContext(
                p, rel_prec=20, denom_budget=24), size, d0)
            ref = R.Tower([list(r) for r in fd.C], fd.fil_dim, p)
            for n in range(1, top + 1):
                ops += _factor_ops(fd, ref, n, random_vector(rng, size),
                                   f"p{p}s{size}n{n}v{k}")
    for p, size, d0, n in KERNEL_CASES:
        fd = admitted_instance(rng, P.PadicContext(p, rel_prec=20,
                                                   denom_budget=24), size, d0)
        ops.append(_kernel_op(fd, n))
    for p, g, g_minus in ADMISSIBLE_CASES:
        setup = lattice_setup(rng, p, g, g_minus)
        ops.append(Op(f"construct_admissible p{p}g{g}m{g_minus}",
                      lambda s=setup: P.construct_admissible(s),
                      lambda r, s=setup: _check_family(r, s, strong=False)))
    for p, g, d0, g_minus in STRONG_CASES:
        fd = admitted_instance(rng, P.PadicContext(p), g, d0)
        setup = lattice_setup(rng, p, g, g_minus, fd.C_phi_frac())
        for _ in range(STRONG_SEEDS):
            s = rng.randrange(10 ** 6)
            ops.append(Op(
                f"construct_strongly_admissible p{p}g{g}m{g_minus}s{s}",
                lambda st=setup, s=s: P.construct_strongly_admissible(st, s),
                lambda r, st=setup: _check_family(r, st, strong=True)))
    return ops


def _factor_ops(fd, ref, n, vec, lbl):
    p = fd.ctx.p
    col = [P.XSeries.from_ints(fd.ctx, c) for c in vec]
    exact = [[Fraction(x) for x in c] for c in vec]
    w = R.omega(p, n)

    def check_forward(image):
        want = ref.forward(n, exact)
        for i, comp in enumerate(image.components):
            require(comp.level == n and series_agrees(comp.rep, want[i], p),
                    f"forward image component {i} disagrees")

    def check_roundtrip(rep):
        require(rep["ok"], "roundtrip_check fails")
        comps, prec = [], R.INF
        for c in rep["recovered"].components:
            poly, ap = lifted(c.rep, p)
            comps.append(poly)
            prec = min(prec, ap)
        got = ref.forward(n, comps)
        want = ref.forward(n, exact)
        for a, b in zip(got, want):
            require(vanishes_to(R.psub(a, b), prec, p),
                    "factor_level preimage has the wrong forward image")

    def check_projection(rep):
        require(rep["ok"], "tower_projection_check fails")
        hi = [R.pmod(x, w) for x in ref.forward(n + 1, exact)]
        lo = ref.forward(n, exact)
        twisted = R.pmat_apply(R.pmat_const(R.mat_inv(ref.Cphi)), lo)
        require(all(not R.pmod(R.psub(a, b), w)
                    for a, b in zip(hi, twisted)),
                "reference tower projection fails")

    return [
        Op(f"forward {lbl}", lambda: P.forward(fd, n, col), check_forward),
        Op(f"roundtrip_check {lbl}", lambda: P.roundtrip_check(fd, n, col),
           check_roundtrip),
        Op(f"tower_projection_check {lbl}",
           lambda: P.tower_projection_check(fd, n, col), check_projection),
    ]


def _kernel_op(fd, n):
    p = fd.ctx.p
    ref = R.Tower([list(r) for r in fd.C], fd.fil_dim, p)

    def check(basis):
        require(len(basis) == ref.kernel_dim(n),
                f"kernel rank {len(basis)} != {ref.kernel_dim(n)}")
        rows = []
        for vec in basis:
            comps, prec, row = [], R.INF, []
            for c in vec.components:
                poly, ap = lifted(c.rep, p)
                require(all(R.vp(x, p) >= 0 for x in poly),
                        "kernel vector is not integral")
                comps.append(poly)
                prec = min(prec, ap)
                row += poly + [Fraction(0)] * (p ** n - len(poly))
            require(all(vanishes_to(x, prec, p)
                        for x in ref.forward(n, comps)),
                    "kernel vector survives the forward map")
            rows.append(row)
        require(not rows or R.fp_rank(rows, p) == len(rows),
                "kernel basis is not saturated (rank mod p drops)")

    return Op(f"kernel_basis p{p}s{fd.size}n{n}",
              lambda: P.kernel_basis(fd, n), check)


def _check_family(cand, setup, strong):
    p, g = setup.ctx.p, setup.g
    vecs = [[Fraction(x) for x in v] for v in cand.vectors]
    families = {"plain": vecs}
    if strong:
        require(cand.strongly_admissible is True,
                "family not strongly admissible")
        T = R.transport_operator(R.frac_matrix(setup.phi_matrix), p)
        families["transported"] = [
            [sum(T[i][j] * v[j] for j in range(g)) for i in range(g)]
            for v in vecs]
    dets = {kind: R.subset_dets(fam, setup.fil0_dual, setup.g_minus)
            for kind, fam in families.items()}
    for kind, found in dets.items():
        require(all(found.values()), f"{kind}: a subset determinant is zero")
    require(cand.admissible, "family reported not admissible")
    cert = cand.certificates["strong" if strong else "plain"]
    plain = cert.plain if strong else cert
    require({c.indices: c.det for c in plain.subsets} == dets["plain"],
            "certificate determinants differ from the reference")
    basis_det = R.perm_det([[vecs[j][i] for j in range(g)] for i in range(g)])
    require(basis_det != 0 and R.vp(basis_det, p) == 0,
            "family is not a basis (determinant not a unit)")
    require(cand.is_basis, "family reported not a basis")


# -- wach ---------------------------------------------------------------------

C_GRID = {3: (4, 10, 28, 82), 5: (6, 11, 26)}
TRUNCS = (6, 9, 12)
WACH_TOP = 3


def wach_ops(seed):
    rng = random.Random(f"wach-{seed}")
    ops = []
    for p in (3, 5):
        ctx = P.wach_context(p)
        ops += _wach_instance_ops(P.pollack_instance(ctx), (1, 2), "anti")
        ops += _wach_instance_ops(admitted_instance(rng, ctx, 2, 1), (1,),
                                  "rand")
    return ops


def _wach_instance_ops(fd, g_levels, tag):
    p, fil = fd.ctx.p, fd.fil_dim
    C = [list(row) for row in fd.C]
    ref = functools.cache(lambda n: R.wach_M_prime(C, fil, p, n))
    lbl = f"p{p}{tag}"
    state = {}
    ops = []

    def check_tower(tower):
        for k in range(1, WACH_TOP + 1):
            M = tower.matrix(k)
            require(R.value_at_zero(M) == R.identity(fd.size),
                    f"M'_{k}(0) != I")
            require([[R.ptrim(e) for e in row] for row in M] == ref(k),
                    f"M'_{k} differs from C_phi^k P_k^-1 ... P_1^-1")

    def check_congruence(ok, m, n):
        require(ok is True, "tower congruence verdict is not True")
        diff = R.pmat_sub(ref(m), ref(n))
        require(R.is_zero_pmat(R.pmat_mod(diff, R.omega(p, n))),
                "reference M'_m != M'_n mod omega_n")

    def check_exact_G(rep, n, c, T):
        G = [[R.ptrim(e) for e in row] for row in rep["G"]]
        require(all(R.vp(x, p) >= 0 for row in G for e in row for x in e),
                "G is not p-integral")
        require(R.value_at_zero(G) == R.identity(fd.size), "G(0) != I")
        lhs = [[R.ptrunc(e, T) for e in row] for row in R.pmat_mul(ref(n), G)]
        rhs = [[R.gamma_act(e, c, T) for e in row] for row in ref(n)]
        require(lhs == rhs, f"M'_{n} G != gamma(M'_{n}) mod pi^{T}")

    def check_scalar_G(rep, n, c, T):
        require(rep["integral"] and rep["constant_is_identity"],
                "scalar twist not certified integral with constant I")
        exact = [[R.ptrim(e) for e in row] for row in state[(n, c, T)]["G"]]
        require_matrix(rep["G"], exact, p, f"scalar twist G^({n})", length=T)

    c0 = 1 + p
    ops.append(Op(f"build_M_prime {lbl}",
                  lambda: keep(state, "tower", P.build_M_prime(fd, WACH_TOP)),
                  check_tower))
    for m in range(2, WACH_TOP + 1):
        ops.append(Op(f"verify_tower_congruence {lbl} {m}",
                      lambda m=m: P.verify_tower_congruence(
                          state["tower"], m, m - 1),
                      lambda r, m=m: check_congruence(r, m, m - 1)))
    ops.append(Op(f"verify_p1_twist {lbl}",
                  lambda: P.verify_p1_twist(fd, P.GammaElement(p, c0),
                                            TRUNCS[-1]),
                  lambda r: require(r["identity_mod_pi"],
                                    "P_1 gamma(P_1^-1) != I mod pi")))
    for n in g_levels:
        for c in C_GRID[p]:
            for T in TRUNCS:
                ops.append(Op(
                    f"build_G_gamma {lbl} n{n} c{c} T{T}",
                    lambda n=n, c=c, T=T: keep(state, (n, c, T),
                                               P.build_G_gamma(
                                                   fd, n,
                                                   P.GammaElement(p, c), T)),
                    lambda r, n=n, c=c, T=T: check_exact_G(r, n, c, T)))
        ops.append(Op(
            f"build_G_gamma scalar {lbl} n{n}",
            lambda n=n: P.build_G_gamma(
                fd, n, P.GammaElement(p, fd.ctx.integer(c0)), TRUNCS[-1]),
            lambda r, n=n: check_scalar_G(r, n, c0, TRUNCS[-1])))
    ops.append(Op(f"verify_commutation {lbl}",
                  lambda: P.verify_commutation(fd, 1, P.GammaElement(p, c0),
                                               TRUNCS[0]),
                  lambda r: require(r["ok"], "commutation fails")))
    ops.append(Op(f"verify_cocycle {lbl}",
                  lambda: P.verify_cocycle(fd, 1, c0, 1 + 2 * p, TRUNCS[0]),
                  lambda r: require(r["ok"], "cocycle fails")))
    return ops


# -- cli ----------------------------------------------------------------------

CLI_VARIANTS = ((3, 4), (5, 6))  # (p, gamma exponent c)
CLI_LEVEL = 2


def _rational_rows(M):
    return [[str(Fraction(x)) for x in row] for row in M]


def write_cli_inputs(seed, work):
    """Instance, vector and basis files for each CLI variant; returns the
    list of (p, c, paths, instance matrix, fil) per variant."""
    rng = random.Random(f"cli-{seed}")
    os.makedirs(work, exist_ok=True)
    variants = []
    for p, c in CLI_VARIANTS:
        ctx = P.PadicContext(p, rel_prec=20, denom_budget=24)
        fd = admitted_instance(rng, ctx, 2, 1)
        phi_fd = admitted_instance(rng, ctx, 4, 2)
        setup = lattice_setup(rng, p, 4, 2)
        files = {
            "inst": {"p": p, "d": 2, "d0": 1, "r": 1,
                     "C": _rational_rows(fd.C), "rel_prec": 20,
                     "denom_budget": 24},
            "vec": [{"n": n, "components": [[str(x) for x in comp]
                                            for comp in random_vector(rng, 2)]}
                    for n in range(1, CLI_LEVEL + 1)],
            "basis": {"p": p, "g": 4, "g_minus": 2,
                      "fil0_dual": _rational_rows(setup.fil0_dual),
                      "phi_matrix": _rational_rows(phi_fd.C_phi_frac())},
        }
        paths = {}
        for name, obj in files.items():
            paths[name] = os.path.join(work, f"{name}{p}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        variants.append((p, c, paths, [list(r) for r in fd.C], fd.fil_dim,
                         rng.randrange(10 ** 6)))
    return variants


def cli_ops(seed, root, work, traced):
    variants = write_cli_inputs(seed, work)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    ops = []
    for p, c, paths, C, fil, strong_seed in variants:
        commands = [
            ("check", ["--input", paths["inst"]]),
            ("logmatrix", ["--input", paths["inst"], "--n", str(CLI_LEVEL)]),
            ("coleman", ["--input", paths["inst"],
                         "--vectors", paths["vec"]]),
            ("basis", ["--input", paths["basis"]]),
            ("basis", ["--input", paths["basis"], "--mode", "strong",
                       "--seed", str(strong_seed)]),
            ("pollack", ["--p", str(p), "--levels", "3"]),
            ("wach", ["--p", str(p), "--c", str(c), "--levels", "2",
                      "--trunc", "10"]),
        ]
        for k, (cmd, args) in enumerate(commands):
            out = os.path.join(work, f"out-{p}-{k}.json")
            argv = [cmd] + args + ["--out", out]
            check = _cli_check(out, C, fil, p if cmd == "logmatrix" else None)
            if traced:
                call = (lambda argv=argv: _main_in_process(argv))
            else:
                call = (lambda argv=argv: _run_process(argv, env, root))
            ops.append(Op(f"cli {cmd} p{p} #{k}", call, check, pure=False))
    return ops


# Runs padlog.cli as __main__, as `python -m padlog.cli` does, with the
# speed probe of speed.py running inside the child; its last line on
# stderr gives the seconds spent in probes and their scale factor.
CLI_CHILD = """
import runpy, sys
sys.path.insert(0, sys.argv.pop(1))
import speed
first, ticker = speed.probe(), speed.Ticker()
sys.argv[0] = "padlog"
try:
    with ticker:
        runpy.run_module("padlog.cli", run_name="__main__", alter_sys=True)
finally:
    probes = [first, *ticker.ticks, speed.probe()]
    print("perfbench-probe", sum(probes), speed.scale(probes), file=sys.stderr)
"""


class CliRun:
    """Exit code and stdout of one CLI process, with the child's own
    probe time and scale factor."""

    __slots__ = ("code", "stdout", "probed", "factor")

    def __init__(self, code, stdout, probed, factor):
        self.code, self.stdout = code, stdout
        self.probed, self.factor = probed, factor


def _run_process(argv, env, root):
    here = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-c", CLI_CHILD, here] + argv,
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    _, probed, factor = proc.stderr.rstrip().rsplit("\n", 1)[-1].split()
    return CliRun(proc.returncode, proc.stdout, float(probed), float(factor))


def _main_in_process(argv):
    import padlog.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = padlog.cli.main(argv)
    return CliRun(code, buf.getvalue(), None, None)


def _record_triple(rec):
    """(v, u, prec) of a scalar record {v, u, prec} of a JSON report."""
    inf = (lambda x: R.INF if x == "inf" else int(x))
    return inf(rec["v"]), None if rec["u"] is None else int(rec["u"]), \
        inf(rec["prec"])


def _cli_check(out, C, fil, p_matrix):
    tower = R.Tower(C, fil, p_matrix) if p_matrix else None

    def check(run):
        require(run.code == 0, f"exit code {run.code}")
        require(run.stdout.rstrip().endswith("overall: PASS"),
                "report does not end with overall: PASS")
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        require(report["status"] == "pass", f"JSON status {report['status']}")
        if tower is None:
            return
        ref = tower.Mn(CLI_LEVEL)
        for i, row in enumerate(report["matrix"]):
            for j, entry in enumerate(row):
                coeffs, want = entry["coeffs"], ref[i][j]
                for d in range(max(len(coeffs), len(want))):
                    v, u, prec = (_record_triple(coeffs[d]) if d < len(coeffs)
                                  else (R.INF, None, R.INF))
                    require(R.certified_agree(
                        v, u, prec, want[d] if d < len(want) else 0,
                        p_matrix),
                        f"--out matrix entry ({i}, {j}) coefficient {d} "
                        f"disagrees with the reference")
    return check


def build(workload, seed, root, work, traced):
    if workload == "tower":
        return tower_ops(seed)
    if workload == "coleman":
        return coleman_ops(seed)
    if workload == "wach":
        return wach_ops(seed)
    return cli_ops(seed, root, work, traced)
