"""Command line driver: exit codes, printed report lines, JSON output."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from padlog.cli import main

from oracles import vp_rational

ROOT = Path(__file__).resolve().parent.parent

POLLACK3 = {
    "p": 3,
    "d": 2,
    "d0": 1,
    "r": 1,
    "C": [["0", "-1"], ["1", "0"]],
    "rel_prec": 20,
    "denom_budget": 24,
}

ORDINARY = {
    "p": 3,
    "d": 2,
    "d0": 1,
    "r": 1,
    "C": [["1", "0"], ["0", "1"]],
    "rel_prec": 20,
    "denom_budget": 24,
}

VECTORS = [
    {"n": 1, "components": [["1", "2"], ["0", "1", "1"]]},
    {"n": 2, "components": [["5"], ["1", "0", "2"]]},
]

SETUP = {"p": 3, "g": 3, "g_minus": 2, "fil0_dual": [["0", "0", "1"]]}


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(POLLACK3))
    return str(path)


def test_check_passes(instance_file, capsys):
    assert main(["check", "--input", instance_file]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "[PASS]" in out


def test_check_fails_on_ordinary_instance(tmp_path, capsys):
    path = tmp_path / "ordinary.json"
    path.write_text(json.dumps(ORDINARY))
    assert main(["check", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out
    assert "1 is an eigenvalue of C_phi" in out


def test_check_missing_file_is_input_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check", "--input", missing]) == 3
    assert "error:" in capsys.readouterr().err


def test_check_malformed_record(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 3, "C": [["1"]]}))
    assert main(["check", "--input", str(path)]) == 3


def test_logmatrix_report_and_json(instance_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["logmatrix", "--input", instance_file, "--n", "2",
                 "--out", str(out_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "value at zero is C_phi" in printed
    assert "stabilization mod omega_1" in printed
    obj = json.loads(out_path.read_text())
    assert obj["status"] == "pass"
    assert "matrix" in obj
    assert len(obj["matrix"]) == 2


def test_logmatrix_out_matrix_is_padic_records(tmp_path):
    # README, "File formats": {v, u, prec} stands for p^v u + O(p^(v+prec))
    out_path = tmp_path / "m.json"
    sample = ROOT / "sample_inputs"
    assert main(["logmatrix", "--input", str(sample / "pollack3.json"),
                 "--n", "1", "--out", str(out_path)]) == 0
    entry = json.loads(out_path.read_text())["matrix"][0][1]
    assert entry["trunc"] is None and len(entry["coeffs"]) == 1
    rec = entry["coeffs"][0]
    v, u, prec = rec["v"], int(rec["u"]), rec["prec"]
    assert (v, prec) == (-1, 20)
    err = Fraction(3) ** v * u - Fraction(-1, 3)
    assert err == 0 or vp_rational(err, 3) >= v + prec


def test_logmatrix_and_coleman_build_one_chain(instance_file, tmp_path,
                                               grown):
    # every check of a run reads one tower, which grows each level once
    assert main(["logmatrix", "--input", instance_file, "--n", "3"]) == 0
    assert [k for _, k in grown] == [1, 2, 3]
    assert len({id(tower) for tower, _ in grown}) == 1
    # the vectors at levels 1 and 2, both images of each roundtrip and the
    # factored output read one chain
    grown.clear()
    vec_path = tmp_path / "vectors.json"
    vec_path.write_text(json.dumps(VECTORS))
    assert main(["coleman", "--input", instance_file,
                 "--vectors", str(vec_path)]) == 0
    assert [k for _, k in grown] == [1, 2]
    assert len({id(tower) for tower, _ in grown}) == 1


def test_logmatrix_gate_rejects_bad_instance(tmp_path, capsys):
    path = tmp_path / "ordinary.json"
    path.write_text(json.dumps(ORDINARY))
    assert main(["logmatrix", "--input", str(path), "--n", "1"]) == 1
    assert "admission gate failed" in capsys.readouterr().err


def test_logmatrix_rejects_bad_level(instance_file, capsys):
    assert main(["logmatrix", "--input", instance_file, "--n", "0"]) == 3


def test_coleman_roundtrips(instance_file, tmp_path, capsys):
    vec_path = tmp_path / "vectors.json"
    vec_path.write_text(json.dumps(VECTORS))
    out_path = tmp_path / "coleman.json"
    code = main(["coleman", "--input", instance_file,
                 "--vectors", str(vec_path), "--out", str(out_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "vector 0 roundtrip at level 1" in printed
    assert "vector 1 roundtrip at level 2" in printed
    obj = json.loads(out_path.read_text())
    assert len(obj["factored"]) == 2


def test_coleman_single_record(instance_file, tmp_path):
    vec_path = tmp_path / "vector.json"
    vec_path.write_text(json.dumps(VECTORS[0]))
    assert main(["coleman", "--input", instance_file,
                 "--vectors", str(vec_path)]) == 0


def test_coleman_empty_vector_list_is_input_error(instance_file, tmp_path,
                                                  capsys):
    # a run that checks nothing must not report PASS
    vec_path = tmp_path / "vectors.json"
    vec_path.write_text("[]")
    out_path = tmp_path / "coleman.json"
    assert main(["coleman", "--input", instance_file, "--vectors",
                 str(vec_path), "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "holds no vector records" in captured.err
    assert not out_path.exists()


def test_coleman_cutoff_beyond_precision_is_indeterminate(tmp_path,
                                                          capsys):
    # at rel_prec 2 the image is known modulo 3^2, so the factorization
    # cannot certify its remainders at cutoff 3
    inst_path = tmp_path / "instance.json"
    inst_path.write_text(json.dumps(dict(POLLACK3, rel_prec=2)))
    vec_path = tmp_path / "vector.json"
    vec_path.write_text(json.dumps(
        {"n": 1, "components": [["1", "2"], ["3", "3", "1"]]}))
    out_path = tmp_path / "coleman.json"
    args = ["coleman", "--input", str(inst_path), "--vectors",
            str(vec_path), "--out", str(out_path), "--cutoff"]
    assert main(args + ["2"]) == 0
    capsys.readouterr()
    assert main(args + ["3"]) == 2
    assert ("[INDETERMINATE] vector 0 roundtrip at level 1"
            in capsys.readouterr().out)
    assert json.loads(out_path.read_text())["status"] == "indeterminate"


def test_basis_admissible(tmp_path, capsys):
    setup_path = tmp_path / "setup.json"
    setup_path.write_text(json.dumps(SETUP))
    out_path = tmp_path / "basis.json"
    code = main(["basis", "--input", str(setup_path),
                 "--out", str(out_path)])
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["candidate"]["admissible"]
    assert obj["candidate"]["is_basis"]
    assert len(obj["candidate"]["vectors"]) == 3


def test_basis_strong_needs_phi(tmp_path, capsys):
    setup_path = tmp_path / "setup.json"
    setup_path.write_text(json.dumps(SETUP))
    assert main(["basis", "--input", str(setup_path),
                 "--mode", "strong"]) == 3
    setup_phi = dict(SETUP)
    setup_phi["phi_matrix"] = [["0", "1", "0"], ["2", "0", "0"],
                               ["0", "0", "3"]]
    phi_path = tmp_path / "setup_phi.json"
    phi_path.write_text(json.dumps(setup_phi))
    capsys.readouterr()
    assert main(["basis", "--input", str(phi_path),
                 "--mode", "strong", "--seed", "4"]) == 0
    assert "strongly admissible" in capsys.readouterr().out


def test_pollack_subcommand(tmp_path, capsys):
    out_path = tmp_path / "pollack.json"
    assert main(["pollack", "--p", "3", "--levels", "3",
                 "--out", str(out_path)]) == 0
    printed = capsys.readouterr().out
    for n in (1, 2, 3):
        assert f"level {n} antidiagonal closed form" in printed
    obj = json.loads(out_path.read_text())
    assert len(obj["levels"]) == 3
    assert all(level["ok"] for level in obj["levels"])


def test_pollack_p5(capsys):
    assert main(["pollack", "--p", "5", "--levels", "2"]) == 0


def test_cutoff_is_ignored_by_the_exact_subcommands(capsys):
    sample = str(ROOT / "sample_inputs" / "pollack3.json")
    runs = (["pollack", "--p", "3", "--levels", "2"],
            ["logmatrix", "--input", sample, "--n", "2"])
    for argv, cutoffs in zip(runs, (("0", "5"), ("0", "20"))):
        printed = []
        for cutoff in cutoffs:
            assert main(argv + ["--cutoff", cutoff]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
    assert "[PASS] value at zero is C_phi" in printed[1]
    exact = "ignored: these checks are exact"
    said = {"check": exact, "logmatrix": exact, "pollack": exact,
            "wach": exact,
            "basis": "ignored: the subset determinants are exact"}
    for command, why in said.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"--cutoff CUTOFF {why}" in out


def test_wach_subcommand(capsys):
    assert main(["wach", "--p", "3", "--c", "4", "--levels", "2",
                 "--trunc", "24"]) == 0
    printed = capsys.readouterr().out
    assert "M'_1(0) = I" in printed
    assert "P_1 gamma(P_1^{-1}) = I mod pi" in printed
    assert "commutation at level 1" in printed
    assert "overall: PASS" in printed


def test_wach_help_states_the_defaults(capsys, monkeypatch):
    # the defaults that --help states are the ones a run without the
    # flags uses
    with pytest.raises(SystemExit) as info:
        main(["wach", "--help"])
    assert info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--p P the prime p" in out
    stated = {}
    for flag in ("levels", "trunc"):
        help_line = out.split(f"--{flag} {flag.upper()} ")[1]
        stated[flag] = help_line.split("(default ")[1].split(")")[0]
    assert stated == {"levels": "2", "trunc": "30"}
    import padlog.cli as cli

    truncs = []
    check = cli.verify_p1_twist
    monkeypatch.setattr(cli, "verify_p1_twist", lambda fd, gamma, trunc:
                        truncs.append(trunc) or check(fd, gamma, trunc))
    assert main(["wach", "--p", "3", "--c", "4"]) == 0
    printed = capsys.readouterr().out
    assert truncs == [int(stated["trunc"])]
    assert printed.count("(0) = I") == int(stated["levels"])


def test_wach_rejects_bad_exponent(capsys):
    assert main(["wach", "--p", "3", "--c", "2"]) == 3


@pytest.mark.parametrize("levels", ("0", "-1"))
def test_levels_below_one_is_input_error(levels, capsys):
    for command in (["pollack", "--p", "3"],
                    ["wach", "--p", "3", "--c", "4"]):
        assert main(command + [f"--levels={levels}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--levels must be at least 1" in captured.err


def test_readme_commands_pass(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    commands = [line for block in re.findall(r"```sh\n(.*?)```", readme,
                                             re.S)
                for line in block.splitlines() if line.startswith("padlog ")]
    assert len(commands) == 7
    monkeypatch.chdir(ROOT)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line


def test_out_json_is_always_valid(instance_file, tmp_path):
    out_path = tmp_path / "r.json"
    main(["check", "--input", instance_file, "--out", str(out_path)])
    obj = json.loads(out_path.read_text())
    assert obj["title"].startswith("admission gate")
    assert obj["checks"][0]["status"] == "pass"
