"""Every function that perfbench's per-layer tracer wraps must still
exist, and the benchmark's output checks must still accept the library's
results, so that either kind of break fails here rather than in a
benchmark run."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layers():
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _spans():
    return _layers().SPANS


def test_every_traced_span_resolves():
    spans = _spans()
    assert spans
    missing = []
    for modname, attr in spans:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert not missing, f"traced functions no longer defined: {missing}"


def test_benchmark_checks_accept_genuine_and_reject_faulty_output():
    """perfbench/selftest.py runs each benchmark check on the library's
    output and on a copy with one planted fault; it exits 0 only when
    every genuine output passes and every fault is caught."""
    got = subprocess.run([sys.executable, "perfbench/selftest.py"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120)
    assert got.returncode == 0, got.stdout + got.stderr


def test_growing_a_tower_calls_no_traced_function():
    """A benchmark round reuses the instances of the last one, so a
    traced call made only while a tower grows would count in the first
    round and not in the next, and a traced run would stop."""
    from instances import random_instance

    tracer = _layers().Tracer()
    fd = random_instance(3, 3, 1, 1)
    tracer.install()
    try:
        tower = fd.tower
        tower.M(3)
        tower.M_prime(3)
        tower.C(4)
        tower.cphi_power(-3)
    finally:
        tracer.uninstall()
    assert len(tower.chain) == 4
    assert not +tracer.calls, dict(tracer.calls)
