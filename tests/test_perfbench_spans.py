"""Every function that perfbench's per-layer tracer wraps must still
exist, so that renaming or deleting one fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path


def _spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


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
