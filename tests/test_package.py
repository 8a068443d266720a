"""The package namespace: every exported name resolves, each module is
loaded on first use, and the modules keep to the public names of linalg."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import padlog

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_all_exports_resolve():
    names = padlog.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(padlog, n)] == []
    namespace = {}
    exec("from padlog import *", namespace)
    assert set(names) <= set(namespace)
    assert set(names) <= set(dir(padlog))


def test_each_name_is_the_object_defined_in_its_home_module():
    for name in padlog.__all__:
        home = importlib.import_module(f"padlog.{padlog._HOME[name]}")
        obj = getattr(padlog, name)
        assert obj is vars(home)[name], name
        if hasattr(obj, "__qualname__"):
            # defined there, not imported from another module
            assert obj.__module__ == home.__name__, name


def test_a_name_rebound_in_its_home_module_is_read_through(monkeypatch):
    # padlog keeps the module, not the name: a test's monkeypatch or the
    # benchmark tracer rebinds a function in its home module, and
    # undoing that must leave no stale binding in the package
    import padlog.logmatrix as lm

    original = lm.build_Mn
    stand_in = object()
    monkeypatch.setattr(lm, "build_Mn", stand_in)
    assert padlog.build_Mn is stand_in
    monkeypatch.undo()
    assert padlog.build_Mn is original


def _in_child(code, *argv):
    """The JSON value that code, run in a fresh interpreter, prints as
    its last line of output."""
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# the padlog modules loaded so far, in the child
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'padlog')"


def test_bare_import_loads_only_the_errors():
    bare, after = _in_child(
        "import padlog\n"
        f"bare = {LOADED}\n"
        "padlog.linalg.int_trim\n"
        f"print(json.dumps([bare, {LOADED}]))")
    assert bare == ["padlog", "padlog.errors"]
    assert after == ["padlog", "padlog.errors", "padlog.linalg",
                     "padlog.padic"]


TOWER = ("padic", "linalg", "series", "logmatrix")


@pytest.mark.parametrize("argv, runs", [
    pytest.param("check --input sample_inputs/pollack3.json", TOWER,
                 id="check"),
    pytest.param("logmatrix --input sample_inputs/pollack3.json --n 2",
                 TOWER, id="logmatrix"),
    pytest.param("coleman --input sample_inputs/pollack3.json "
                 "--vectors sample_inputs/vectors3.json",
                 TOWER + ("coleman",), id="coleman"),
    pytest.param("basis --input sample_inputs/basis_rank3.json",
                 ("padic", "linalg", "basis"), id="basis"),
    pytest.param("basis --input sample_inputs/basis_rank3_strong.json "
                 "--mode strong --seed 4", ("padic", "linalg", "basis"),
                 id="basis_strong"),
    pytest.param("pollack --p 3", TOWER + ("pollack",), id="pollack"),
    pytest.param("wach --p 3 --c 4", TOWER + ("pollack", "wach"),
                 id="wach"),
])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, runs):
    got = _in_child(
        "from padlog.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        f"print(json.dumps({LOADED}))", *argv.split())
    front = ("cli", "errors", "reports", "serialize")
    assert got == sorted(["padlog"] + [f"padlog.{m}" for m in front + runs])


def test_no_module_imports_private_names_of_linalg():
    # the integer-form operations of linalg are public; no other module
    # reaches into its private helpers
    src = pathlib.Path(padlog.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.module == "linalg" and node.level == 1
                    or node.module == "padlog.linalg"):
                found += [(path.name, a.name) for a in node.names
                          if a.name.startswith("_")]
    assert found == []
