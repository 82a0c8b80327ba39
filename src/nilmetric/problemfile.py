"""Problem-file parsing and export: a small versioned JSON format holding
a bracket table, a structure, an optional metric, and options.

Indices in files are 1-based with i < j, mirroring the written convention
for structure constants.  Parsing is total: every malformed field raises
ParseError naming the record and field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra_core import Metric, SkewTensor
from .catalog import FamilyPoint, standard_structure
from .errors import NilmetricError, NotPositiveDefinite, ParseError
from .structures import (
    Structure,
    complex_structure,
    hypercomplex_structure,
    no_structure,
    symplectic_structure,
)

FORMAT_VERSION = 1

# what float() raises on a non-number, or on an int beyond the float range
_NOT_A_NUMBER = (TypeError, ValueError, OverflowError)

_STRUCTURE_BUILDERS = {
    "symplectic": symplectic_structure,
    "complex": complex_structure,
    "hypercomplex": lambda payload: hypercomplex_structure(*payload),
}


@dataclass(frozen=True)
class ProblemFile:
    dim: int
    tensor: SkewTensor
    structure: Structure
    metric: Metric
    options: dict


def _require(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _as_matrix(value, n: int, what: str) -> np.ndarray:
    try:
        M = np.asarray(value, dtype=float)
    except _NOT_A_NUMBER as exc:
        raise ParseError(f"{what}: not a numeric matrix") from exc
    _require(M.shape == (n, n), f"{what}: expected shape {n}x{n}, got {M.shape}")
    _require(bool(np.all(np.isfinite(M))), f"{what}: entries must be finite")
    return M


def parse_problem(data: dict, source: str = "problem") -> ProblemFile:
    """Validate a problem dictionary into typed objects.

    Every violation raises ParseError with the offending record or field
    named; nothing is silently defaulted except structure (none) and
    metric (identity).
    """
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    fmt = data.get("format", FORMAT_VERSION)
    _require(fmt == FORMAT_VERSION,
             f"{source}: unsupported format {fmt!r} (expected {FORMAT_VERSION})")
    _require("dim" in data, f"{source}: missing field 'dim'")
    dim = data["dim"]
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
             f"{source}: 'dim' must be a positive integer")
    records = data.get("bracket", [])
    _require(isinstance(records, list), f"{source}: 'bracket' must be a list")
    entries = []
    for idx, rec in enumerate(records):
        where = f"{source}: bracket record {idx}"
        _require(isinstance(rec, dict), f"{where}: must be an object")
        for key in ("i", "j", "k"):
            _require(key in rec, f"{where}: missing index '{key}'")
            v = rec[key]
            _require(isinstance(v, int) and not isinstance(v, bool),
                     f"{where}: '{key}' must be an integer")
        _require("coeff" in rec, f"{where}: missing 'coeff'")
        i, j, k = rec["i"], rec["j"], rec["k"]
        _require(1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim,
                 f"{where}: indices ({i},{j},{k}) out of range 1..{dim}")
        _require(i < j, f"{where}: requires i < j, got i={i}, j={j}")
        try:
            coeff = float(rec["coeff"])
        except _NOT_A_NUMBER as exc:
            raise ParseError(f"{where}: 'coeff' must be a real number") from exc
        _require(np.isfinite(coeff), f"{where}: 'coeff' must be finite")
        entries.append((i, j, k, coeff))
    tensor = SkewTensor.from_entries(dim, entries)

    record = data.get("structure", {"class": "none"})
    _require(isinstance(record, dict), f"{source}: 'structure' must be an object")
    tag = record.get("class", "none")
    _require(isinstance(tag, str),
             f"{source}: structure 'class' must be a string")
    if tag == "none":
        structure = no_structure(dim)
    else:
        _require(tag in _STRUCTURE_BUILDERS,
                 f"{source}: structure class {tag!r} unknown")
        payload = record.get("payload", "standard")
        where = f"{source}: structure payload"
        if isinstance(payload, str):
            _require(payload == "standard", f"{where} string must be 'standard'")
            arg = None
        elif tag == "hypercomplex":
            _require(isinstance(payload, list) and len(payload) == 3,
                     f"{source}: hypercomplex payload needs three matrices")
            arg = [_as_matrix(J, dim, where) for J in payload]
        else:
            arg = _as_matrix(payload, dim, where)
        # finite entries can still overflow in the builder's checks: such a
        # payload is rejected, not warned about and passed on
        try:
            with np.errstate(over="raise", invalid="raise"):
                structure = (standard_structure(tag, dim) if arg is None
                             else _STRUCTURE_BUILDERS[tag](arg))
        except (NilmetricError, FloatingPointError) as exc:
            raise ParseError(f"{source}: invalid structure payload ({exc})") from exc

    if "metric" in data and data["metric"] is not None:
        M = _as_matrix(data["metric"], dim, f"{source}: metric")
        _require(bool(np.abs(M).max() <= 0.5 * np.finfo(float).max),
                 f"{source}: metric: overflow in G + G^T")
        try:
            with np.errstate(over="raise", invalid="raise"):
                metric = Metric(M)
        except (NotPositiveDefinite, FloatingPointError) as exc:
            raise ParseError(f"{source}: metric: {exc}") from exc
    else:
        metric = Metric.identity(dim)

    options = data.get("options", {})
    _require(isinstance(options, dict), f"{source}: 'options' must be an object")
    if "tol" in options:
        try:
            tol = float(options["tol"])
        except _NOT_A_NUMBER as exc:
            raise ParseError(f"{source}: options.tol must be a real number") from exc
        _require(tol > 0, f"{source}: options.tol must be positive")
    return ProblemFile(dim=dim, tensor=tensor, structure=structure,
                       metric=metric, options=dict(options))


def load_problem(path: str) -> ProblemFile:
    """Read and validate a problem file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    return parse_problem(data, source=path)


def _round_trip_float(x: float) -> float:
    """Identity passage through 17 significant digits (lossless)."""
    return float(f"{float(x):.17g}")


def jsonable(value):
    """Recursively convert numerics, arrays and dataclass-like objects to
    JSON-serializable structures with round-trippable floats.

    Raises TypeError for any other object.
    """
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return _round_trip_float(float(value))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonable(row) for row in value.tolist()]
    if isinstance(value, SkewTensor):
        return bracket_records(value)
    if isinstance(value, Metric):
        return jsonable(value.matrix)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {name: jsonable(getattr(value, name))
                for name in value.__dataclass_fields__}
    raise TypeError(f"cannot convert {type(value).__name__} to JSON")


def bracket_records(tensor: SkewTensor) -> list:
    """1-based {i, j, k, coeff} records of the nonzero coefficients."""
    return [
        {"i": i, "j": j, "k": k, "coeff": _round_trip_float(v)}
        for i, j, k, v in tensor.entries()
    ]


def export_problem(tensor: SkewTensor, structure: Structure = None,
                   metric: Metric = None, options: dict = None) -> dict:
    """Problem dictionary reproducing the inputs bit-exactly on re-parse."""
    n = tensor.dim
    out = {"format": FORMAT_VERSION, "dim": n,
           "bracket": bracket_records(tensor)}
    if structure is not None and structure.tag != "none":
        out["structure"] = {"class": structure.tag,
                            "payload": jsonable(structure.payload)}
    else:
        out["structure"] = {"class": "none"}
    if metric is not None and not metric.is_identity():
        out["metric"] = jsonable(metric.matrix)
    if options:
        out["options"] = jsonable(options)
    return out


def point_to_problem(point: FamilyPoint) -> dict:
    """Export a catalog point as a problem dictionary."""
    return export_problem(point.tensor, point.structure, point.metric)
