"""Per-layer tracing of padlog from the outside.

`Tracer.install` replaces chosen padlog functions by timing wrappers.
padlog modules bind each other's functions with `from ... import`, so a
function is wrapped under every name that refers to it in any padlog
module (and in the package namespace), not only where it is defined.

A wrapped call records its count and its self time: its duration minus
the time spent in other wrapped calls beneath it.  A call made while the
same wrapper is already active (recursion, as in `cofactor_det`) is
passed straight through, so only the outermost call is counted and
timed.  Everything stays in memory until `snapshot` is read.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  Every listed function is timed; the
# span names double as the per-layer metric prefixes.
SPANS = {
    ("padlog.series", "XSeries.__mul__"): "series.mul",
    ("padlog.series", "reduce_mod_omega"): "series.reduce_mod_omega",
    ("padlog.series", "poly_divmod"): "series.divide",
    ("padlog.series", "divide_exact"): "series.divide",
    ("padlog.linalg", "cofactor_det"): "linalg.cofactor_det",
    ("padlog.linalg", "frac_det"): "linalg.frac_det",
    ("padlog.linalg", "frac_inv"): "linalg.frac_inv",
    ("padlog.linalg", "frac_rank"): "linalg.frac_rank",
    ("padlog.linalg", "frac_solve"): "linalg.frac_solve",
    ("padlog.linalg", "frac_nullspace"): "linalg.frac_nullspace",
    ("padlog.linalg", "smith_zp"): "linalg.smith_zp",
    ("padlog.linalg", "fpoly_mul"): "linalg.fpoly_mul",
    ("padlog.logmatrix", "check_hypotheses"): "logmatrix.check_hypotheses",
    ("padlog.logmatrix", "build_Cn"): "logmatrix.build_Cn",
    ("padlog.logmatrix", "build_Mn"): "logmatrix.build_Mn",
    ("padlog.logmatrix", "det_Mn"): "logmatrix.det_Mn",
    ("padlog.logmatrix", "verify_stabilization"):
        "logmatrix.verify_stabilization",
    ("padlog.logmatrix", "conjugate_basis_check"):
        "logmatrix.conjugate_basis_check",
    ("padlog.coleman", "forward"): "coleman.forward",
    ("padlog.coleman", "factor_level"): "coleman.factor_level",
    ("padlog.coleman", "kernel_basis"): "coleman.kernel_basis",
    ("padlog.basis", "construct_admissible"): "basis.construct_admissible",
    ("padlog.basis", "construct_strongly_admissible"):
        "basis.construct_strongly_admissible",
    ("padlog.pollack", "verify_antidiagonal"): "pollack.verify_antidiagonal",
    ("padlog.wach", "build_M_prime"): "wach.build_M_prime",
    ("padlog.wach", "build_G_gamma"): "wach.build_G_gamma",
    ("padlog.wach", "phi_act_poly"): "wach.substitution",
    ("padlog.wach", "gamma_act_poly"): "wach.substitution",
    ("padlog.wach", "verify_commutation"): "wach.verify_commutation",
    ("padlog.wach", "verify_cocycle"): "wach.verify_cocycle",
    ("padlog.serialize", "read_json"): "serialize.read_json",
    ("padlog.serialize", "write_json"): "serialize.write_json",
    ("padlog.cli", "main"): "cli.main",
}

ELIMINATIONS = ("linalg.frac_det", "linalg.frac_inv", "linalg.frac_rank",
                "linalg.frac_solve", "linalg.frac_nullspace",
                "linalg.smith_zp")


def _mul_products(args):
    a, b = args[0], args[1]
    return len(a.coeffs) * len(getattr(b, "coeffs", ()))


def _substitution_terms(attr, args):
    """deg f * deg g for f(g) with g = (1+pi)^e - 1, e = p or c."""
    e = args[0] if attr == "phi_act_poly" else args[0].c
    return max(len(args[1]) - 1, 0) * e


class Tracer:
    """Counts and self times of the SPANS, kept in memory."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.work = Counter()
        self._stack = []
        self._active = Counter()
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span, fn, work=None):
        calls, self_s, stack, active = (self.calls, self.self_s,
                                        self._stack, self._active)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[span]:
                return fn(*args, **kwargs)
            calls[span] += 1
            if work is not None:
                work(args)
            frame = [0.0]
            stack.append(frame)
            active[span] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[span] -= 1
                stack.pop()
                self_s[span] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _work_hook(self, span, attr, site):
        work = self.work
        if span == "series.mul":
            def hook(args):
                work["series.mul_coeff_products"] += _mul_products(args)
            return hook
        if span == "wach.substitution":
            def hook(args):
                work["wach.substitution_terms"] += \
                    _substitution_terms(attr, args)
            return hook
        if span == "linalg.frac_det" and site == "padlog.basis":
            def hook(args):
                work["basis.subset_dets"] += 1
            return hook
        return None

    def install(self):
        """Wrap every function in SPANS under every padlog name bound to
        it.  Call `uninstall` to restore the originals."""
        for modname, _ in SPANS:
            importlib.import_module(modname)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "padlog" or name.startswith("padlog.")}
        for (modname, attr), span in SPANS.items():
            owner = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                hook = self._work_hook(span, attr, modname)
                setattr(cls, meth, self._wrap(span, original, hook))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            for site, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        hook = self._work_hook(span, attr, site)
                        setattr(mod, name, self._wrap(span, original, hook))
                        self._undo.append((mod, name, original))

    def exclude(self, dt):
        """Leave dt seconds spent inside the innermost open span out of
        its self time."""
        if self._stack:
            self._stack[-1][0] += dt

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- readout ----------------------------------------------------------

    def snapshot(self):
        """Counts and self times accumulated so far, as metric values."""
        out = {}
        for span in set(SPANS.values()):
            out[f"{span}_calls"] = self.calls[span]
            out[f"{span}_s"] = self.self_s[span]
        out["linalg.elim_s"] = sum(self.self_s[s] for s in ELIMINATIONS)
        out.update({k: self.work[k] for k in (
            "series.mul_coeff_products", "wach.substitution_terms",
            "basis.subset_dets")})
        return out
