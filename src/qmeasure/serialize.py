"""Canonical JSON files for states, POVMs, channels, superoperators, and
instruments.

Complex scalars are [re, im] pairs, matrices are row-major arrays of rows,
and floats are printed with 17 significant digits, so write -> read -> write
round trips are byte identical.  Parsing is split in two: `parse_text` only
checks syntax and shapes (parse errors), `build` constructs domain objects
(whose invariant checks may raise ValueError).
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel, Superoperator
from .matkit import DEFAULT_TOL, Tolerances
from .measure import Instrument, Povm
from .states import DensityOperator


class ParseError(ValueError):
    """Malformed file: bad JSON, unknown kind, or wrong shapes."""


def _fmt(x: float) -> str:
    v = float(x)
    if v == 0.0:  # normalize -0.0 so round trips stay byte identical
        v = 0.0
    return f"{v:.17g}"


def _emit(node, out: list) -> None:
    if isinstance(node, dict):
        out.append("{")
        for i, (key, value) in enumerate(node.items()):
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for i, value in enumerate(node):
            if i:
                out.append(",")
            _emit(value, out)
        out.append("]")
    elif isinstance(node, bool):
        out.append("true" if node else "false")
    elif isinstance(node, int):
        out.append(str(node))
    elif isinstance(node, float):
        out.append(_fmt(node))
    elif isinstance(node, str):
        out.append(json.dumps(node))
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")


def matrix_payload(m) -> list:
    """Row-major nested lists with [re, im] complex entries (a list of such
    matrices for a stack, such as a channel's Kraus array)."""
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def to_payload(obj) -> dict:
    if isinstance(obj, DensityOperator):
        return {"kind": "density", "dim": obj.dim,
                "data": {"mat": matrix_payload(obj.mat)}}
    if isinstance(obj, Povm):
        return {"kind": "povm", "dim": obj.dim,
                "data": {"outcomes": [{"label": label, "mat": matrix_payload(eff.mat)}
                                      for label, eff in obj.outcomes]}}
    if isinstance(obj, KrausChannel):
        return {"kind": "kraus_channel", "dims": [obj.d_in, obj.d_out],
                "data": {"kraus": matrix_payload(obj.kraus)}}
    if isinstance(obj, Superoperator):
        return {"kind": "superoperator", "dims": [obj.d_in, obj.d_out],
                "data": {"mat": matrix_payload(obj.mat)}}
    if isinstance(obj, Instrument):
        return {"kind": "instrument", "dims": [obj.d_in, obj.d_out],
                "data": {"outcomes": [{"label": label, "kraus": matrix_payload(ch.kraus)}
                                      for label, ch in obj.outcomes]}}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_text(obj) -> str:
    out: list = []
    _emit(to_payload(obj), out)
    return "".join(out) + "\n"


def write_file(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(obj))


def _parse_matrix(node, what: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ParseError(f"{what}: expected a non-empty array of rows")
    width = None
    rows = []
    for row in node:
        if not isinstance(row, list) or not row:
            raise ParseError(f"{what}: rows must be non-empty arrays")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{what}: ragged matrix rows")
        entries = []
        for cell in row:
            ok = (isinstance(cell, list) and len(cell) == 2 and
                  all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in cell))
            if not ok:
                raise ParseError(f"{what}: complex entries must be [re, im] number pairs")
            entries.append(complex(float(cell[0]), float(cell[1])))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _require_dim(doc, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParseError(f"{key!r} must be a positive integer")
    return value


def _require_dims(doc) -> tuple[int, int]:
    value = doc.get("dims")
    if (not isinstance(value, list) or len(value) != 2 or
            any(not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in value)):
        raise ParseError("'dims' must be a pair of positive integers")
    return int(value[0]), int(value[1])


def _parse_kraus_list(node, d_in: int, d_out: int, what: str) -> list:
    if not isinstance(node, list) or not node:
        raise ParseError(f"{what}: expected a non-empty array of Kraus operators")
    ops = []
    for idx, raw in enumerate(node):
        mat = _parse_matrix(raw, f"{what}[{idx}]")
        if mat.shape != (d_out, d_in):
            raise ParseError(
                f"{what}[{idx}]: shape {mat.shape} does not match dims ({d_out}, {d_in})")
        ops.append(mat)
    return ops


def _reject_constant(name: str):
    raise ParseError(f"invalid JSON: non-standard literal {name}")


def parse_text(text: str) -> dict:
    """Syntactic pass: JSON, kind, and shapes.  Raises ParseError only."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    kind = doc.get("kind")
    data = doc.get("data")
    if not isinstance(kind, str):
        raise ParseError("missing or non-string 'kind'")
    if not isinstance(data, dict):
        raise ParseError("missing 'data' object")

    if kind == "density":
        dim = _require_dim(doc, "dim")
        mat = _parse_matrix(data.get("mat"), "mat")
        if mat.shape != (dim, dim):
            raise ParseError(f"mat shape {mat.shape} does not match dim {dim}")
        return {"kind": kind, "mat": mat}

    if kind == "povm":
        dim = _require_dim(doc, "dim")
        outcomes = data.get("outcomes")
        if not isinstance(outcomes, list) or not outcomes:
            raise ParseError("'outcomes' must be a non-empty array")
        labels, mats = [], []
        for idx, entry in enumerate(outcomes):
            if not isinstance(entry, dict) or not isinstance(entry.get("label"), str):
                raise ParseError(f"outcomes[{idx}]: expected an object with a string label")
            mat = _parse_matrix(entry.get("mat"), f"outcomes[{idx}].mat")
            if mat.shape != (dim, dim):
                raise ParseError(f"outcomes[{idx}].mat shape {mat.shape} != dim {dim}")
            labels.append(entry["label"])
            mats.append(mat)
        return {"kind": kind, "labels": labels, "mats": mats}

    if kind == "kraus_channel":
        d_in, d_out = _require_dims(doc)
        ops = _parse_kraus_list(data.get("kraus"), d_in, d_out, "kraus")
        return {"kind": kind, "d_in": d_in, "d_out": d_out, "kraus": ops}

    if kind == "superoperator":
        d_in, d_out = _require_dims(doc)
        mat = _parse_matrix(data.get("mat"), "mat")
        if mat.shape != (d_out * d_out, d_in * d_in):
            raise ParseError(
                f"mat shape {mat.shape} does not match dims ({d_out * d_out}, {d_in * d_in})")
        return {"kind": kind, "d_in": d_in, "d_out": d_out, "mat": mat}

    if kind == "instrument":
        d_in, d_out = _require_dims(doc)
        outcomes = data.get("outcomes")
        if not isinstance(outcomes, list) or not outcomes:
            raise ParseError("'outcomes' must be a non-empty array")
        parsed = []
        for idx, entry in enumerate(outcomes):
            if not isinstance(entry, dict) or not isinstance(entry.get("label"), str):
                raise ParseError(f"outcomes[{idx}]: expected an object with a string label")
            ops = _parse_kraus_list(entry.get("kraus"), d_in, d_out,
                                    f"outcomes[{idx}].kraus")
            parsed.append((entry["label"], ops))
        return {"kind": kind, "d_in": d_in, "d_out": d_out, "outcomes": parsed}

    raise ParseError(f"unknown kind {kind!r}")


def build(parsed: dict, tol: Tolerances = DEFAULT_TOL):
    """Semantic pass: construct the domain object; invariants may raise ValueError."""
    kind = parsed["kind"]
    if kind == "density":
        return DensityOperator(parsed["mat"], tol)
    if kind == "povm":
        return Povm.from_effects(parsed["mats"], labels=parsed["labels"], tol=tol)
    if kind == "kraus_channel":
        return KrausChannel(parsed["kraus"], d_in=parsed["d_in"], d_out=parsed["d_out"])
    if kind == "superoperator":
        return Superoperator(parsed["mat"], d_in=parsed["d_in"], d_out=parsed["d_out"])
    if kind == "instrument":
        outs = tuple(
            (label, KrausChannel(ops, d_in=parsed["d_in"], d_out=parsed["d_out"]))
            for label, ops in parsed["outcomes"])
        return Instrument(outs, tol)
    raise ParseError(f"unknown kind {kind!r}")


def from_text(text: str, tol: Tolerances = DEFAULT_TOL):
    return build(parse_text(text), tol)


def read_file(path, tol: Tolerances = DEFAULT_TOL):
    """The object in the file at `path`; parse errors and invariant violations
    name the file, and a file that is not UTF-8 text is a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        return from_text(text, tol)
    except ValueError as exc:  # ParseError included
        exc.args = (f"{path}: {exc}",)
        raise
