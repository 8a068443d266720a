"""Planted faults that the test suite must catch.

Each entry of MUTANTS is (file, old, new, tests).  The old text occurs
exactly once in the file.  On a copy of the repository with old replaced
by new, the pytest node ids in tests must fail; on the unedited copy
they must pass.  The file name keeps pytest from collecting this module.

Run from the repository root:

    python tests/mutants.py

It prints one line per mutant and exits 0 only when the named tests pass
on the unedited copy and every mutant is caught.  A mutant that survives
stays listed: it calls for a test that catches it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LINALG = "src/padlog/linalg.py"
WITNESS = ("tests/test_linalg.py::"
           "test_form_witness_reads_valuations_over_the_denominator")
SOLVE = "tests/test_linalg.py::test_zp_solve_integral_"
CONJ = "tests/test_logmatrix.py::"
ROUND = ("tests/test_series.py::"
         "test_form_views_round_each_coefficient_as_from_rational")
PIN = ("tests/test_coleman.py::"
       "test_roundtrip_is_the_composition_of_the_public_maps")
FLOOR_LOG = "tests/test_wach.py::test_scalar_twist_claims_the_floor_log_bound"
ADMISSIBLE = "tests/test_basis.py::test_construct_admissible_"
OBLIQUE = ADMISSIBLE + "oblique_fil0_dual_is_saturated"
SERIES = "tests/test_series.py::"
PINNED = SERIES + "test_products_and_divisions_match_the_pinned_outcomes"

MUTANTS = [
    # form_witness: the threshold one digit too deep
    (LINALG, "e = N + vp_frac(d, p)\n", "e = N + vp_frac(d, p) + 1\n",
     [WITNESS]),
    # form_witness: the scan ignores the denominator's valuation
    (LINALG, "e = N + vp_frac(d, p)\n", "e = N\n", [WITNESS]),
    # form_witness: a column-major scan
    (LINALG,
     "(i, j, k) for i, row in enumerate(X)\n"
     "                 for j, f in enumerate(row) ",
     "(i, j, k) for j in range(len(X[0]) if X else 0)\n"
     "                 for i, f in ((i, r[j]) for i, r in enumerate(X)) ",
     [WITNESS]),
    # fp_rank: a pivot of valuation 1 counted as a unit
    (LINALG, "[c for _, c, v in _zp_echelon(A, p) if v == 0]",
     "[c for _, c, v in _zp_echelon(A, p) if v <= 1]",
     ["tests/test_linalg.py::test_fp_rank_small_cases"]),
    # zp_solve_integral: any nonzero last coordinate accepted
    (LINALG, "if vec[-1] % p:", "if vec[-1]:", [SOLVE + "negative"]),
    # zp_solve_integral: the length check dropped
    (LINALG,
     "if not (columns and target) or any(len(c) != len(target)\n"
     "                                       for c in columns):",
     "if not (columns and target):",
     [SOLVE + "rejects_mismatched_lengths"]),
    # det_Mn: omega_n / X read as omega_n without its top coefficient
    ("src/padlog/logmatrix.py", "omega_ints(p, n)[1:]",
     "omega_ints(p, n)[:-1]",
     ["tests/test_logmatrix.py::test_determinant_identity",
      "tests/test_cli_golden.py::test_cli_matches_golden[logmatrix_n2]"]),
    # det_Mn: one factor of omega_n / X too few
    ("src/padlog/logmatrix.py", "for _ in range(s):",
     "for _ in range(s - 1):",
     ["tests/test_logmatrix.py::test_determinant_identity"]),
    # C_phi scaled on the Fil^0 columns instead of the scaled ones
    ("src/padlog/logmatrix.py", "_diagonal([[p]] * f + [[1]] * (g - f), p)",
     "_diagonal([[1]] * f + [[p]] * (g - f), p)",
     ["tests/test_logmatrix.py::test_value_at_zero_is_frobenius_matrix",
      "tests/test_cli_golden.py::test_cli_matches_golden[logmatrix_n2]"]),
    # C_phi^-1 scaled by columns instead of rows
    ("src/padlog/logmatrix.py",
     "form_mul(_diagonal([[1]] * f + [[p]] * (g - f), 1), frob_inv)",
     "form_mul(frob_inv, _diagonal([[1]] * f + [[p]] * (g - f), 1))",
     ["tests/test_coleman.py::test_integral_shift_matches_oracle[size3]",
      "tests/test_coleman.py::test_tower_projection_compatibility"]),
    # the transported C_w^-1 formed without lifting B
    ("src/padlog/logmatrix.py",
     "form_mul(form_mul(_lift(left, f, p), tower.frob_inv), right)",
     "form_mul(form_mul(left, tower.frob_inv), right)",
     [CONJ + "test_transported_conjugate_is_the_direct_product",
      CONJ + "test_conjugation_verdicts_and_witnesses_match_the_oracle"]),
    # the transported C_w formed without lifting B^-1
    ("src/padlog/logmatrix.py",
     "form_mul(form_mul(left, tower.frob), _lift(right, f, p))",
     "form_mul(form_mul(left, tower.frob), right)",
     [CONJ + "test_transported_conjugate_is_the_direct_product",
      CONJ + "test_conjugated_instance_passes_gate"]),
    # the shared component check lets a class at another level through
    ("src/padlog/coleman.py",
     "not isinstance(c, LambdaNElement) or c.level != level",
     "not isinstance(c, LambdaNElement)",
     ["tests/test_coleman.py::test_vectors_reject_classes_at_another_level"]),
    # forward reads the chain one level short
    ("src/padlog/coleman.py", "_apply(fd.tower.P(n), x, p, n)",
     "_apply(fd.tower.P(n - 1), x, p, n)",
     ["tests/test_coleman.py::test_forward_matches_chain_oracle"]),
    # subset certificates read the vectors shifted by one
    ("src/padlog/basis.py", "vectors[i - 1] for i in I",
     "vectors[i % g] for i in I",
     ["tests/test_basis.py::test_not_admissible_on_degenerate_subset"]),
    # the shared family check accepts too few vectors
    ("src/padlog/basis.py", "if len(vecs) != setup.g:",
     "if len(vecs) > setup.g:",
     ["tests/test_basis.py::test_families_of_the_wrong_size_are_rejected"]),
    # the frame's complement taken as the pivot columns of fil0_dual
    ("src/padlog/basis.py", "if i not in pivots]", "if i in pivots]",
     [ADMISSIBLE + "rank3", OBLIQUE]),
    # every lift past the arc's first g_minus points adds fil0_dual[0]
    ("src/padlog/basis.py", "list(setup.fil0_dual[idx - m])",
     "list(setup.fil0_dual[0])", [OBLIQUE]),
    # the arc placed at columns 0..g_minus-1, not at the complement
    ("src/padlog/basis.py", "for j, x in zip(comp, w):",
     "for j, x in zip(range(m), w):", [OBLIQUE]),
    # the kernel budget counts size * p^(n-1) columns
    ("src/padlog/coleman.py", "if fd.size * N > 256:",
     "if fd.size * p ** (n - 1) > 256:",
     ["tests/test_coleman.py::"
      "test_kernel_budget_refuses_before_building_the_matrix"]),
    # the binomial-row recurrence one step ahead in its numerator
    ("src/padlog/series.py", "c = c * (e - j) // (j + 1)",
     "c = c * (e - j + 1) // (j + 1)",
     ["tests/test_series.py::test_phi_cyclo_matches_the_binomial_sum"]),
    # merge_complement scans one class of t short of its bound
    ("src/padlog/basis.py", "range((len(functionals) + 1) * p)",
     "range(len(functionals) * p)",
     ["tests/test_basis.py::test_merge_complement_scans_up_to_the_bound"]),
    # avoid_slopes accepts a y divisible by p
    ("src/padlog/basis.py", "if y % p and _is_unit(den, p)",
     "if _is_unit(den, p)",
     ["tests/test_basis.py::test_avoid_slopes_scans_y_at_x_one"]),
    # merge_complement takes non p-integral input
    ("src/padlog/basis.py",
     "return _integral_vec(_as_vec(vec, rank, what), p, what)",
     "return _as_vec(vec, rank, what)",
     ["tests/test_basis.py::"
      "test_merge_complement_rejects_non_integral_input"]),
    # the twist's constant term compared with P_1 instead of P_0 = I
    ("src/padlog/wach.py", "form_at_zero(G) == self.fd.tower.P(0)",
     "form_at_zero(G) == self.fd.tower.P(1)",
     ["tests/test_wach.py::test_cocycle_identity"]),
    # PadicContext.integer keeps rel_prec digits above p^0, not above p^v
    ("src/padlog/padic.py", "return self.from_rational(n)",
     "return self.from_rational(n, self.rel_prec)",
     ["tests/test_padic.py"]),
    # a bool gamma exponent read as the int it equals
    ("src/padlog/wach.py",
     "elif not isinstance(c, int) or isinstance(c, bool):",
     "elif not isinstance(c, int):",
     ["tests/test_wach.py::"
      "test_gamma_element_rejects_exponents_that_are_not_ints"]),
    # the rounding reuses the first ud^-1 at every mantissa length k
    ("src/padlog/padic.py", "mod, inv = inverses[k]\n",
     "mod, inv = p ** k, next(iter(inverses.values()))[1]\n", [ROUND]),
    # the rounding ignores the p-power of the denominator
    ("src/padlog/padic.py", "v = -vd\n", "v = 0\n",
     [ROUND, "tests/test_series.py::"
      "test_rounding_keeps_the_denominator_budget"]),
    # the rounding keeps rel_prec digits whatever N is
    ("src/padlog/padic.py", "k = min(self.rel_prec, abs_prec - v) if c",
     "k = self.rel_prec if c",
     [ROUND, "tests/test_coleman.py::"
      "test_low_precision_maps_certify_only_what_every_lift_shares"]),
    # det_Mn shares the det view even when a witness exists
    ("src/padlog/logmatrix.py", "view if witness is None\n",
     "view if True\n",
     [CONJ + "test_det_mn_shares_one_view_only_when_the_forms_match"]),
    # a constant product left over a denominator sharing its content
    (LINALG,
     "return _reduced([[[x] if x else [] for x in r] for r in sums], a * b)",
     "return [[[x] if x else [] for x in r] for r in sums], a * b",
     ["tests/test_linalg.py::"
      "test_form_mul_of_constant_forms_is_the_general_product"]),
    # two forms taken as constant on their corner entries alone
    (LINALG,
     "and len(N[0][0]) < 2 and all(len(e) < 2 for e in chain(*M, *N))):",
     "and len(N[0][0]) < 2):",
     ["tests/test_linalg.py::"
      "test_form_mul_of_constant_forms_is_the_general_product"]),
    # a scalar record field that is not a number escapes as ValueError
    ("src/padlog/padic.py", "except (TypeError, KeyError, ValueError)",
     "except (TypeError, KeyError)",
     ["tests/test_padic.py::test_malformed_record_is_input_error"]),
    # padlog coleman on an empty vector list passes again
    ("src/padlog/cli.py", "if not records:", "if records is None:",
     ["tests/test_cli.py::test_coleman_empty_vector_list_is_input_error"]),
    # the roundtrip compares the image with itself
    ("src/padlog/coleman.py", "form_sub(y, b)", "form_sub(y, y)",
     ["tests/test_coleman.py::"
      "test_roundtrip_witnesses_a_preimage_that_does_not_map_back"]),
    # the factorization divides its input in place
    ("src/padlog/coleman.py", "X, d = [row[:] for row in x[0]], x[1]",
     "X, d = x", [PIN]),
    # the scalar twist rounds every degree at N_0
    ("src/padlog/wach.py", "for e in entries], Nj)",
     "for e in entries], Ns[0])", [FLOOR_LOG]),
    # the scalar twist's regrouping transposes degrees and entries
    ("src/padlog/wach.py", "views = iter(zip(*(", "views = iter(list((",
     [FLOOR_LOG]),
    # 1/lead known to N - v instead of N - 2v
    ("src/padlog/series.py", "inv = 1 / x, N - 2 * lead.v",
     "inv = 1 / x, N - lead.v",
     [SERIES + "test_inverse_of_the_lead_is_known_to_N_minus_2v", PINNED]),
    # a factor's valuation read without the cap at its precision: two
    # inexact zeros claim an exact product
    ("src/padlog/series.py",
     "min(vp_frac(x, ctx.p), na), min(vp_frac(y, ctx.p), nb)",
     "vp_frac(x, ctx.p), vp_frac(y, ctx.p)",
     [SERIES + "test_product_reads_a_zero_factor_at_its_precision", PINNED]),
    # no budget check on the products a sum or a remainder absorbs
    ("src/padlog/series.py",
     "if va < na and vb < nb and va + vb < -ctx.denom_budget:",
     "if False:",
     [SERIES + "test_budget_holds_on_intermediate_products_and_the_inverse",
      PINNED]),
    # no budget check on 1/lead
    ("src/padlog/series.py", "if lead.v > ctx.denom_budget:", "if False:",
     [SERIES + "test_budget_holds_on_intermediate_products_and_the_inverse",
      PINNED]),
    # an empty levels checks nothing and passes
    ("src/padlog/logmatrix.py", "    if not levels:\n", "    if False:\n",
     ["tests/test_logmatrix.py::test_conjugation_refuses_an_empty_levels"]),
    # the partial logarithms rounded over p times their denominator
    ("src/padlog/pollack.py", "ctx.over(den, acc)",
     "ctx.over(den * ctx.p, acc)",
     ["tests/test_pollack.py::"
      "test_partial_logs_round_their_integer_products_once"]),
]


def _pytest(tree: Path, ids):
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *ids], cwd=tree, capture_output=True, text=True, timeout=900,
        env=_env(tree))


def _env(tree: Path):
    """The environment with the copy's src first on the import path."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"),
                PYTHONDONTWRITEBYTECODE="1")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".benchmarks", "*.egg-info", "results"))
        where = subprocess.run(
            [sys.executable, "-c", "import padlog; print(padlog.__file__)"],
            cwd=tree, capture_output=True, text=True, env=_env(tree)).stdout
        if not where.startswith(str(tree)):
            print(f"the copy imports padlog from {where.strip()!r}")
            return 1
        for path, old, new, _ in MUTANTS:
            count = (tree / path).read_text().count(old)
            if count != 1:
                print(f"{path}: old text occurs {count} times: {old!r}")
                return 1
        ids = sorted({i for *_, tests in MUTANTS for i in tests})
        got = _pytest(tree, ids)
        if got.returncode != 0:
            print("the named tests do not pass on the unedited copy")
            print(got.stdout[-3000:] + got.stderr[-3000:])
            return 1
        survivors = 0
        for path, old, new, tests in MUTANTS:
            source = (tree / path).read_text()
            (tree / path).write_text(source.replace(old, new))
            try:
                got = _pytest(tree, tests)
            finally:
                (tree / path).write_text(source)
            caught = got.returncode == 1  # 1: tests ran and failed
            survivors += not caught
            print(f"{'caught' if caught else 'SURVIVED'} "
                  f"(pytest exit {got.returncode}): {path}: "
                  f"{old.strip()!r} -> {new.strip()!r}")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
