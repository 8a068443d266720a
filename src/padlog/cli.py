"""Command line front end.

Subcommands:

  check      admission gate for an instance file
  logmatrix  build M_n and verify evaluation, determinant, stabilization
  coleman    factor forward images and verify the roundtrip
  basis      construct an admissible (or strongly admissible) family
  pollack    antidiagonal closed-form checks for a chosen prime
  wach       tower, twist, and commutation checks on the antidiagonal
             instance

Exit codes: 0 all checks pass, 1 a check fails, 2 indeterminate at the
working precision, 3 invalid input.
"""

from __future__ import annotations

import argparse
import sys

from .basis import construct_admissible, construct_strongly_admissible
from .coleman import roundtrip_check
from .errors import (
    DenominatorBudgetExceeded,
    HypothesisFailed,
    Indeterminate,
    InputError,
    IntegralityViolation,
    PadlogError,
    PrecisionLoss,
)
from .logmatrix import (
    build_Mn,
    check_evaluation,
    check_hypotheses,
    det_Mn,
    verify_stabilization,
)
from .padic import PadicContext
from .pollack import pollack_instance, verify_antidiagonal
from .reports import Report, Status
from .serialize import (
    classes_to_record,
    instance_from_record,
    matrix_to_record,
    read_json,
    setup_from_record,
    vector_from_record,
    write_json,
)
from .wach import (
    GammaElement,
    build_M_prime,
    verify_commutation,
    verify_p1_twist,
    verify_tower_congruence,
    wach_context,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padlog",
        description="exact p-adic logarithmic matrix toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, cutoff="certification depth p^cutoff (default 1)"):
        sp.add_argument("--out", metavar="FILE",
                        help="write a JSON report here")
        sp.add_argument("--cutoff", type=int, default=1, help=cutoff)

    exact = "ignored: these checks are exact"

    sp = sub.add_parser("check", help="run the admission gate")
    sp.add_argument("--input", required=True, metavar="FILE")
    common(sp, exact)

    sp = sub.add_parser("logmatrix", help="build and verify M_n")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--n", type=int, required=True, help="level n >= 1")
    common(sp)

    sp = sub.add_parser("coleman", help="factor forward images")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--vectors", required=True, metavar="FILE",
                    help="vector record or list of records")
    common(sp)

    sp = sub.add_parser("basis", help="construct admissible families")
    sp.add_argument("--input", required=True, metavar="FILE")
    sp.add_argument("--mode", choices=("admissible", "strong"),
                    default="admissible")
    sp.add_argument("--seed", type=int, default=0)
    common(sp, "ignored: the subset determinants are exact, and rel_prec "
               "sets the depth at which they count as units")

    sp = sub.add_parser("pollack", help="antidiagonal closed forms")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--levels", type=int, default=3,
                    help="check n = 1..levels (default 3)")
    common(sp, exact)

    sp = sub.add_parser("wach", help="tower and twist checks")
    sp.add_argument("--p", type=int, required=True, help="the prime p")
    sp.add_argument("--c", type=int, required=True,
                    help="gamma exponent, 1 mod p")
    sp.add_argument("--levels", type=int, default=2,
                    help="check the tower at n = 1..levels (default 2)")
    sp.add_argument("--trunc", type=int, default=30,
                    help="compute the twists mod pi^trunc (default 30)")
    common(sp, exact)

    return parser


def _finish(report: Report, args, payload=None) -> int:
    for line in report.lines():
        print(line)
    if args.out:
        obj = report.as_dict()
        if payload:
            obj.update(payload)
        write_json(args.out, obj)
    return report.exit_code()


def _cmd_check(args) -> int:
    record = read_json(args.input)
    fd = instance_from_record(record, where=args.input, force=True)
    gate = check_hypotheses(fd)
    report = Report(f"admission gate on {args.input}")
    report.add("p-integral, unit determinant, slope window, 1 not an "
               "eigenvalue", gate.ok,
               detail="; ".join(gate.failures) if gate.failures else "")
    report.extra["gate"] = gate.as_dict()
    return _finish(report, args)


def _cmd_logmatrix(args) -> int:
    record = read_json(args.input)
    fd = instance_from_record(record, where=args.input)
    if args.n < 1:
        raise InputError("--n must be at least 1")
    report = Report(f"M_{args.n} for {args.input}")
    approx = build_Mn(fd, args.n)
    try:
        ev = check_evaluation(approx, cutoff=args.cutoff)
        report.add("value at zero is C_phi", ev["ok"], witness=ev["witness"])
    except Indeterminate as exc:
        report.add("value at zero is C_phi", Status.INDETERMINATE, str(exc))
    det = det_Mn(fd, args.n)
    report.add("determinant closed form (raw)", det["raw_match"])
    report.add("determinant closed form (reduced)", det["reduced_match"])
    if args.n >= 2:
        report.add(f"stabilization mod omega_{args.n - 1}",
                   verify_stabilization(fd, args.n - 1, args.n))
    payload = {"matrix": matrix_to_record(approx.raw)}
    return _finish(report, args, payload)


def _cmd_coleman(args) -> int:
    record = read_json(args.input)
    fd = instance_from_record(record, where=args.input)
    vec_obj = read_json(args.vectors)
    records = vec_obj if isinstance(vec_obj, list) else [vec_obj]
    report = Report(f"factorization roundtrips for {args.vectors}")
    payload = {"factored": []}
    for idx, rec in enumerate(records):
        n, comps = vector_from_record(rec, fd,
                                      where=f"{args.vectors}[{idx}]")
        name = f"vector {idx} roundtrip at level {n}"
        try:
            got = roundtrip_check(fd, n, comps, cutoff=args.cutoff)
        except PrecisionLoss as exc:
            report.add(name, Status.INDETERMINATE, str(exc))
            continue
        report.add(name, got["ok"], witness=got["witness"])
        if got["ok"]:
            payload["factored"].append(
                classes_to_record(n, got["image"].components))
    return _finish(report, args, payload)


def _cmd_basis(args) -> int:
    record = read_json(args.input)
    setup = setup_from_record(record, where=args.input)
    report = Report(f"basis construction for {args.input}")
    if args.mode == "strong":
        cand = construct_strongly_admissible(setup, seed=args.seed)
        report.add("strongly admissible", bool(cand.strongly_admissible))
    else:
        cand = construct_admissible(setup)
    report.add("admissible", cand.admissible,
               detail="all subset determinants are units" if cand.saturated
               else "saturated: no (some subset determinant is a nonunit)")
    report.add("spans the lattice", cand.is_basis)
    return _finish(report, args, {"candidate": cand.as_dict()})


def _cmd_pollack(args) -> int:
    if args.levels < 1:
        raise InputError("--levels must be at least 1")
    ctx_fd = pollack_instance(_pollack_context(args.p, args.levels))
    report = Report(f"antidiagonal instance at p = {args.p}")
    results = []
    for n in range(1, args.levels + 1):
        got = verify_antidiagonal(ctx_fd, n)
        report.add(f"level {n} antidiagonal closed form", got["ok"])
        results.append(got)
    report.extra["note"] = results[0]["note"]
    return _finish(report, args, {"levels": [
        {k: v for k, v in r.items() if k != "note"} for r in results
    ]})


def _pollack_context(p: int, levels: int) -> PadicContext:
    budget = max(20, levels + 8)
    return PadicContext(p, rel_prec=20, denom_budget=budget)


def _cmd_wach(args) -> int:
    if args.levels < 1:
        raise InputError("--levels must be at least 1")
    ctx = wach_context(args.p)
    fd = pollack_instance(ctx)
    gamma = GammaElement(args.p, args.c)
    report = Report(
        f"tower checks at p = {args.p}, gamma exponent {args.c}")
    tower = build_M_prime(fd, args.levels)
    for n in range(1, args.levels + 1):
        report.add(f"M'_{n}(0) = I", tower.value_at_zero_is_identity(n))
    for n in range(1, args.levels):
        report.add(
            f"M'_{n + 1} = M'_{n} mod omega_{n}",
            verify_tower_congruence(tower, n + 1, n))
    twist = verify_p1_twist(fd, gamma, args.trunc)
    report.add("P_1 gamma(P_1^{-1}) = I mod pi", twist["identity_mod_pi"])
    for n in range(1, args.levels + 1):
        try:
            tower.twist(n, gamma, args.trunc)
            report.add(f"G^({n}) integral with constant term I", True)
        except IntegralityViolation as exc:
            report.add(f"G^({n}) integral with constant term I", False,
                       detail=str(exc), witness=exc.witness)
    for n in range(1, args.levels):
        got = verify_commutation(fd, n, gamma, args.trunc)
        report.add(f"commutation at level {n}", got["ok"],
                   witness=got["mismatch"])
    return _finish(report, args)


_COMMANDS = {
    "check": _cmd_check,
    "logmatrix": _cmd_logmatrix,
    "coleman": _cmd_coleman,
    "basis": _cmd_basis,
    "pollack": _cmd_pollack,
    "wach": _cmd_wach,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HypothesisFailed as exc:
        print(f"admission gate failed: {exc}", file=sys.stderr)
        return 1
    except (Indeterminate, PrecisionLoss, DenominatorBudgetExceeded) as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 2
    except PadlogError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
