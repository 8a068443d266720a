"""The reference computations in oracles.py must stay independent of
the package they check."""

import ast
from fractions import Fraction
from pathlib import Path

from oracles import poly_mat_mul


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


def test_poly_mat_mul_takes_rectangular_shapes():
    ones_row = [[[Fraction(1)]] * 3]
    ones_col = [[[Fraction(1)]] for _ in range(3)]
    assert poly_mat_mul(ones_row, ones_col) == [[[3]]]
    assert poly_mat_mul(ones_col, ones_row) == [[[1]] * 3 for _ in range(3)]
    # (1 + X) times a 1 x 2 row [X, 2]
    assert poly_mat_mul([[[1, 1]]], [[[0, 1], [2]]]) == [[[0, 1, 1], [2, 2]]]
