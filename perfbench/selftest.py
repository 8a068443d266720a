"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check must accept the library's genuine output and reject a copy
with one deliberate fault: a certified coefficient of M_n changed, a
subset determinant forced to zero, a kernel vector dropped, one entry
of G changed, and one coefficient of the `logmatrix --out` matrix
changed.  Exits 0 when every fault is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import padlog as P  # noqa: E402
from padlog.logmatrix import LogMatrixApprox  # noqa: E402

import workloads as W  # noqa: E402

failures = []


def accepted(check, genuine, what):
    try:
        check(genuine)
    except W.CheckFailed as exc:
        failures.append(f"{what}: genuine output rejected ({exc})")
        return False
    return True


def rejected(check, perturbed, what):
    try:
        check(perturbed)
    except W.CheckFailed as exc:
        print(f"caught: {what} ({exc})")
    else:
        failures.append(f"{what}: perturbed output accepted")


def verify(check, genuine, perturbed, what):
    if accepted(check, genuine, what):
        rejected(check, perturbed, what)


def bump(s):
    """The scalar with its lowest certified unit digit changed."""
    mod = s.p ** s.prec
    u = (s.u + 1) % mod
    if u % s.p == 0:
        u = (u + 1) % mod
    return P.PadicScalar(s.ctx, s.v, u, s.prec)


def find(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


def coefficient_changed(rng):
    ctx = P.PadicContext(3, rel_prec=20, denom_budget=24)
    fd = W.admitted_instance(rng, ctx, 2, 1)
    ops = W._tower_instance_ops(fd, 2, False, W.adapted_B(rng, fd, False),
                                W.adapted_B(rng, fd, True))
    op = find(ops, "build_Mn p3s2n2")
    approx = op.call()
    raw = [list(row) for row in approx.raw]
    coeffs = list(raw[0][1].coeffs)
    j = next(k for k, c in enumerate(coeffs) if not c.is_zero_rep)
    coeffs[j] = bump(coeffs[j])
    raw[0][1] = P.XSeries(ctx, coeffs)
    verify(op.check, approx, LogMatrixApprox(fd, 2, raw, approx.reduced),
           "M_2 with one certified coefficient changed")


def subset_det_zero(rng):
    setup = W.lattice_setup(rng, 3, 4, 2)
    cand = P.construct_admissible(setup)
    zeroed = (tuple(0 for _ in range(setup.g)),) + tuple(cand.vectors[1:])
    verify(lambda r: W._check_family(r, setup, strong=False), cand,
           dataclasses.replace(cand, vectors=zeroed),
           "admissible family with subset determinants forced to zero")


def kernel_vector_dropped(rng):
    ctx = P.PadicContext(3, rel_prec=20, denom_budget=24)
    op = W._kernel_op(W.admitted_instance(rng, ctx, 2, 1), 2)
    basis = op.call()
    verify(op.check, basis, basis[:-1], "kernel basis with a vector dropped")


def g_entry_changed(rng):
    fd = W.admitted_instance(rng, P.wach_context(3), 2, 1)
    op = find(W._wach_instance_ops(fd, (1,), "rand"),
              "build_G_gamma p3rand n1 c4 T6")
    rep = op.call()
    G = [[list(e) for e in row] for row in rep["G"]]
    entry = G[0][1] + [0] * max(0, 2 - len(G[0][1]))
    entry[1] += 1
    G[0][1] = entry
    verify(op.check, rep, dict(rep, G=G), "G^(1) with one entry changed")


def out_matrix_changed(rng):
    work = os.path.join(HERE, "results", f"selftest-{os.getpid()}")
    try:
        ops = W.cli_ops(rng.randrange(10 ** 6), ROOT, work, traced=True)
        op = find(ops, "cli logmatrix")
        result = op.call()
        what = "logmatrix --out matrix with one coefficient changed"
        if not accepted(op.check, result, what):
            return
        path = next(os.path.join(work, f) for f in sorted(os.listdir(work))
                    if f.startswith("out-3-1"))
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        rec = next(c for c in report["matrix"][0][1]["coeffs"]
                   if c["u"] is not None)
        rec["u"] = str(bump(P.PadicScalar(P.PadicContext(3), int(rec["v"]),
                                          int(rec["u"]), rec["prec"])).u)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        rejected(op.check, result, what)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    rng = random.Random("selftest")
    for case in (coefficient_changed, subset_det_zero, kernel_vector_dropped,
                 g_entry_changed, out_matrix_changed):
        case(rng)
    for msg in failures:
        print(f"FAILED: {msg}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
