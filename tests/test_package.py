"""The package namespace: every exported name resolves, and the modules
keep to the public names of linalg."""

import ast
import pathlib

import padlog


def test_all_exports_resolve():
    names = padlog.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(padlog, n)] == []
    namespace = {}
    exec("from padlog import *", namespace)
    assert set(names) <= set(namespace)


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
