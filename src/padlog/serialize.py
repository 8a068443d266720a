"""JSON input and output for instances, vectors, and reports.

All integers may be written as decimal strings so that arbitrarily
large values survive tools that mangle big JSON numbers; rationals are
strings like "3/4".  Every loader names the offending path and field
in its InputError.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .basis import LatticeSetup
from .errors import InputError
from .linalg import form_from_fractions, form_mod
from .logmatrix import FrobeniusData
from .padic import PadicContext
from .series import LambdaNElement, XSeries, form_views, omega_ints


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, default=str)
        fh.write("\n")


def as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise InputError(f"{where}: not a decimal integer: {value!r}") \
                from None
    raise InputError(f"{where}: expected an integer, got {type(value).__name__}")


def as_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{where}: not a rational: {value!r}") from None
    raise InputError(
        f"{where}: expected a rational, got {type(value).__name__}")


def _field(record: dict, name: str, where: str):
    if name not in record:
        raise InputError(f"{where}: missing field {name!r}")
    return record[name]


def _rational_rows(rows: list, where: str, kind: str):
    """The list rows at path where as rows of Fractions; a row that is
    not a list raises "expected a <kind>"."""
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InputError(f"{where}[{i}]: expected a {kind}")
        out.append([as_fraction(x, f"{where}[{i}][{j}]")
                    for j, x in enumerate(row)])
    return out


def context_from_record(record: dict, where: str = "input") -> PadicContext:
    p = as_int(_field(record, "p", where), f"{where}.p")
    rel = as_int(record.get("rel_prec", 20), f"{where}.rel_prec")
    budget = as_int(record.get("denom_budget", 20), f"{where}.denom_budget")
    try:
        return PadicContext(p, rel_prec=rel, denom_budget=budget)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def instance_from_record(record: dict, where: str = "input",
                         force: bool = False) -> FrobeniusData:
    """Build an admitted instance from {p, d, d0, r, C, rel_prec,
    denom_budget}.  d and r are optional when C determines them."""
    if not isinstance(record, dict):
        raise InputError(f"{where}: expected an object")
    ctx = context_from_record(record, where)
    C = _field(record, "C", where)
    if not isinstance(C, list) or not C:
        raise InputError(f"{where}.C: expected a nonempty matrix")
    rows = _rational_rows(C, f"{where}.C", "row")
    d0 = as_int(_field(record, "d0", where), f"{where}.d0")
    r = as_int(record.get("r", 1), f"{where}.r")
    if "d" in record:
        d = as_int(record["d"], f"{where}.d")
        if d * r != len(rows):
            raise InputError(
                f"{where}: d*r = {d * r} does not match matrix size "
                f"{len(rows)}")
    try:
        return FrobeniusData.create(ctx, rows, d0=d0, r=r, force=force)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def vector_from_record(record: dict, fd: FrobeniusData,
                       where: str = "vector"):
    """Level and components from {n, components: [[coeff, ...], ...]}.

    Each component is a coefficient array of an exact polynomial,
    reduced exactly into the level-n quotient and then rounded once.
    Returns (n, [classes])."""
    if not isinstance(record, dict):
        raise InputError(f"{where}: expected an object")
    n = as_int(_field(record, "n", where), f"{where}.n")
    if n < 1:
        raise InputError(f"{where}.n: must be at least 1")
    comps = _field(record, "components", where)
    if not isinstance(comps, list) or len(comps) != fd.size:
        raise InputError(
            f"{where}.components: expected {fd.size} coefficient arrays")
    column = []
    for i, arr in enumerate(comps):
        if not isinstance(arr, list):
            raise InputError(f"{where}.components[{i}]: expected an array")
        column.append([[as_fraction(c, f"{where}.components[{i}][{j}]")
                        for j, c in enumerate(arr)]])
    rem = form_mod(form_from_fractions(column), omega_ints(fd.ctx.p, n))
    return n, [LambdaNElement(fd.ctx, n, e)
               for (e,) in form_views(fd.ctx, rem)]


def class_to_record(elem: LambdaNElement) -> dict:
    return {
        "level": elem.level,
        "coeffs": [c.to_record() for c in elem.rep.coeffs],
    }


def classes_to_record(n: int, components) -> dict:
    return {"n": n, "components": [class_to_record(c) for c in components]}


def series_to_record(s: XSeries) -> dict:
    return {
        "coeffs": [c.to_record() for c in s.coeffs],
        "trunc": s.trunc,
    }


def matrix_to_record(M) -> list:
    return [[series_to_record(e) for e in row] for row in M]


def setup_from_record(record: dict, where: str = "input") -> LatticeSetup:
    """Lattice data from {p, g, g_minus, fil0_dual, phi_matrix?}."""
    if not isinstance(record, dict):
        raise InputError(f"{where}: expected an object")
    ctx = context_from_record(record, where)
    g = as_int(_field(record, "g", where), f"{where}.g")
    g_minus = as_int(_field(record, "g_minus", where), f"{where}.g_minus")
    fil = _field(record, "fil0_dual", where)
    if not isinstance(fil, list):
        raise InputError(f"{where}.fil0_dual: expected a list of vectors")
    fil_rows = _rational_rows(fil, f"{where}.fil0_dual", "vector")
    phi = record.get("phi_matrix")
    phi_rows = None
    if phi is not None:
        if not isinstance(phi, list):
            raise InputError(f"{where}.phi_matrix: expected a matrix")
        phi_rows = _rational_rows(phi, f"{where}.phi_matrix", "row")
    try:
        return LatticeSetup(ctx, g, g_minus, fil_rows, phi_rows)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None
