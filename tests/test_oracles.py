"""The reference computations in oracles.py must stay independent of
the package they check."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_padlog():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles.py"
            imported.append(node.module)
    assert imported
    assert not [m for m in imported if m.split(".")[0] == "padlog"]
