"""CLI goldens: the stdout, stderr, exit code and --out JSON of each
command in CASES, run through padlog.cli.main from the repository root,
must equal the files under tests/golden/ byte for byte.  Masked
fields: none.  The CLI prints and writes no timing or other
run-dependent field, so nothing is left out of the comparison.

A golden changes only in a change that means to alter what the CLI
prints or writes, and says why.  To rewrite them all from the current
code, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# the commands of the CI workflow, exit codes 0, 1, 2 and 3 (among them
# the two that only main's exception handlers produce), one deeper
# logmatrix level, and coleman on deeper inputs: denominators 3^-2 and
# 3^-3, an integer above 3^20 and a term past omega_3's degree, and
# basis on fil0_dual rows that are not standard vectors
CASES = {
    "check": "check --input sample_inputs/pollack3.json",
    "logmatrix_n2": "logmatrix --input sample_inputs/pollack3.json --n 2",
    "logmatrix_n3": "logmatrix --input sample_inputs/pollack3.json --n 3",
    "coleman": "coleman --input sample_inputs/pollack3.json "
               "--vectors sample_inputs/vectors3.json",
    "basis": "basis --input sample_inputs/basis_rank3.json",
    "basis_strong": "basis --input sample_inputs/basis_rank3_strong.json "
                    "--mode strong --seed 4",
    "pollack": "pollack --p 3",
    "wach": "wach --p 3 --c 4",
    "coleman_cutoff_exit2": "coleman --input sample_inputs/pollack3.json "
                            "--vectors sample_inputs/vectors3.json "
                            "--cutoff 25",
    "coleman_deep_cutoff19_exit2": "coleman --input sample_inputs/"
                                   "pollack3.json --vectors tests/golden/"
                                   "inputs/vectors3_deep.json --cutoff 19",
    "logmatrix_n0_exit3": "logmatrix --input sample_inputs/pollack3.json "
                          "--n 0",
    "coleman_no_vectors_exit3": "coleman --input sample_inputs/pollack3.json "
                                "--vectors tests/golden/inputs/"
                                "no_vectors.json",
    "logmatrix_budget0_exit2": "logmatrix --input tests/golden/inputs/"
                               "pollack3_budget0.json --n 2",
    "basis_strong_phi_identity_exit1": "basis --input tests/golden/inputs/"
                                       "basis_rank3_phi_identity.json "
                                       "--mode strong",
    "basis_p5_oblique": "basis --input tests/golden/inputs/"
                        "basis_p5_oblique.json",
}


def run_case(command: str, out_path: Path):
    """(record, out bytes or None) for one CLI command run from the
    repository root with --out out_path."""
    from padlog.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(shlex.split(command) + ["--out", str(out_path)])
    finally:
        os.chdir(cwd)
    record = {"command": command, "exit": code,
              "stdout": stdout.getvalue().splitlines(),
              "stderr": stderr.getvalue().splitlines()}
    out = out_path.read_bytes() if out_path.exists() else None
    return record, out


def _golden(name: str):
    record = json.loads((GOLDEN / f"{name}.json").read_text())
    out_file = GOLDEN / f"{name}.out.json"
    return record, out_file.read_bytes() if out_file.exists() else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, tmp_path):
    record, out = run_case(CASES[name], tmp_path / "out.json")
    want_record, want_out = _golden(name)
    assert record == want_record
    assert out == want_out


def test_every_golden_has_a_case():
    names = {p.name.split(".")[0] for p in GOLDEN.glob("*.json")}
    assert names == set(CASES)


def _write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    for name, command in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            record, out = run_case(command, Path(tmp) / "out.json")
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(record, indent=2) + "\n")
        out_file = GOLDEN / f"{name}.out.json"
        if out is not None:
            out_file.write_bytes(out)
        elif out_file.exists():
            out_file.unlink()


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    _write_goldens()
