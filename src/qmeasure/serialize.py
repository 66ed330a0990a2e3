"""Canonical JSON files for states, POVMs, channels, superoperators, and
instruments.

Complex scalars are [re, im] pairs, matrices are row-major arrays of rows,
and matrix entries are printed with 17 significant digits, so write -> read ->
write round trips are byte identical.  Payloads carry matrices as float arrays
and every other value (kind, label, dimension; the maps store theirs as ints)
as a plain JSON value, which both writers write with `json.dumps`.
The file writer and `dumps` (the CLI's records) write an array one distinct
row at a time: each distinct row of its last two axes (a matrix row of
[re, im] pairs) is encoded once and its text reused wherever the row recurs.
The rows whose bytes are all zero (+0.0 throughout, as most rows of a
decomposition's kernel operators are) are found with one mask and share one
text, so only the other rows are keyed one by one.  A row is written through a
cached printf template: `%.17g` in files, and `%r` (float's repr, the text
`json.dumps` gives) in records, where a row holding NaN or +-inf goes through
`json.dumps` for its `NaN`/`Infinity` spellings.  Their text is the same, byte
for byte, as that of the array's nested lists.  One builder lays a payload out
as a list of pieces, an array's one per entry of its first axis (a row of a
matrix, a matrix of a stack): `dumps` and `to_text` join them, while
`write_file` and the CLI hand them to the sink's `writelines`, so no writer
holds a second copy of a multi-MB text.  Parsing is split in two:
`parse_text` only checks syntax and shapes (parse errors), `build` constructs
domain objects (whose invariant checks may raise ValueError).
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .channels import KrausChannel, Superoperator
from .matkit import DEFAULT_TOL, Tolerances
from .measure import Instrument, Povm
from .states import DensityOperator


class ParseError(ValueError):
    """Malformed file: bad JSON, unknown kind, or wrong shapes."""


def _array_pieces(a: np.ndarray, row_text, comma: str, out: list) -> None:
    """Append to `out` the text of `a` as nested lists, one piece per entry of
    its first axis, each distinct row of its last two axes written once by
    `row_text`.  Rows are told apart by their bytes, so -0.0 and 0.0 stay
    distinct; the rows whose bytes are all zero are found with one mask and
    share one text, and only the others are keyed one by one.  The row texts
    are joined with `comma` over the leading axes below the first."""
    if a.ndim <= 2:
        out.append(row_text(a))
        return
    lead = a.shape[:-2]
    count = math.prod(lead)
    rows = a.reshape((count,) + a.shape[-2:])
    bits = np.ascontiguousarray(rows).view(np.uint8).reshape(count, -1)
    live = bits.any(axis=1)
    zero = None if live.all() else row_text(rows[np.argmin(live)])  # +0.0 throughout
    texts = [zero] * count
    memo: dict = {}
    for i in np.flatnonzero(live).tolist():
        key = bits[i].tobytes()
        text = memo.get(key)
        if text is None:
            text = memo[key] = row_text(rows[i])
        texts[i] = text
    for depth in range(len(lead), 1, -1):
        n = lead[depth - 1]
        texts = ["[" + comma.join(texts[i * n:(i + 1) * n]) + "]"
                 for i in range(math.prod(lead[:depth - 1]))]
    out.append("[")
    for i, text in enumerate(texts):
        if i:
            out.append(comma)
        out.append(text)
    out.append("]")


def _pieces(node, out: list, row_text, comma: str, colon: str) -> list:
    """Append the JSON text of a payload to `out` in pieces and return `out`:
    arrays through `_array_pieces`, other leaves through `json.dumps`."""
    if isinstance(node, np.ndarray):
        _array_pieces(node, row_text, comma, out)
    elif isinstance(node, dict):
        out.append("{")
        for i, (key, value) in enumerate(node.items()):
            if not isinstance(key, str):  # json.dumps would turn it into one
                raise TypeError(f"payload keys must be strings, not {type(key).__name__}")
            if i:
                out.append(comma)
            out.append(json.dumps(key))
            out.append(colon)
            _pieces(value, out, row_text, comma, colon)
        out.append("}")
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for i, value in enumerate(node):
            if i:
                out.append(comma)
            _pieces(value, out, row_text, comma, colon)
        out.append("]")
    else:
        out.append(json.dumps(node))
    return out


@functools.cache
def _template(shape: tuple, spec: str, sep: str) -> str:
    """printf template of a float array of this shape: nested lists of `spec`
    joined by `sep`."""
    if not shape:
        return spec
    return "[" + sep.join([_template(shape[1:], spec, sep)] * shape[0]) + "]"


def _file_row(row: np.ndarray) -> str:
    # + 0.0 turns -0.0 into 0.0, so round trips stay byte identical.
    return _template(row.shape, "%.17g", ",") % tuple((row + 0.0).ravel().tolist())


def _record_row(row: np.ndarray) -> str:
    # %r is float.__repr__, json.dumps' text of a finite float; json.dumps
    # alone spells NaN and +-Infinity.
    if np.isfinite(row).all():
        return _template(row.shape, "%r", ", ") % tuple(row.ravel().tolist())
    return json.dumps(row.tolist())


def dumps(payload) -> str:
    """`json.dumps(payload)` of the payload with its arrays as nested lists."""
    return "".join(_pieces(payload, [], _record_row, ", ", ": "))


def record_pieces(payload) -> list[str]:
    """The text of `dumps(payload)` and a newline, the CLI's record line, as a
    list of pieces for a sink's `writelines`."""
    out = _pieces(payload, [], _record_row, ", ", ": ")
    out.append("\n")
    return out


def matrix_payload(m) -> np.ndarray:
    """Read-only float64 array of [re, im] pairs, shape m.shape + (2,): the
    row-major complex entries of a matrix, or of a stack such as a channel's
    Kraus array.  A C-ordered copy whatever the layout of `m`, since the pairs
    are a float view of its complex entries."""
    a = np.array(m, dtype=np.complex128, order="C")
    pairs = a.view(np.float64).reshape(a.shape + (2,))
    pairs.setflags(write=False)
    return pairs


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


def _file_pieces(obj) -> list[str]:
    out = _pieces(to_payload(obj), [], _file_row, ",", ":")
    out.append("\n")
    return out


def to_text(obj) -> str:
    return "".join(_file_pieces(obj))


def write_file(path, obj) -> None:
    """Write the text of `obj` to `path` in pieces, all built before the file
    is opened."""
    pieces = _file_pieces(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def _matrix_at_once(node) -> np.ndarray | None:
    """The complex matrix of a non-empty array of rows of finite [re, im]
    number pairs, converted in one pass; None for any other node.  The node
    must come from a text without `true` or `false`: numpy would silently read
    a bool as a number."""
    try:
        a = np.asarray(node)
    except (ValueError, TypeError, OverflowError):  # ragged, or nested too deep
        return None
    if a.dtype.kind not in "fiu" or a.ndim != 3 or a.shape[2] != 2 or 0 in a.shape:
        return None
    mat = np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]
    return mat if np.isfinite(mat).all() else None


def _shaped_matrix(node, what: str, shape: tuple[int, int], fast: bool) -> np.ndarray:
    """`node` as a complex matrix of the given shape.  With `fast`, a well-formed
    node takes one numpy conversion; anything else goes through the loop, which
    alone words the ParseError."""
    mat = _matrix_at_once(node) if fast and isinstance(node, list) else None
    if mat is None:
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
                try:
                    entries.append(complex(float(cell[0]), float(cell[1])))
                except OverflowError:  # an integer literal beyond the float range
                    raise ParseError(f"{what}: number literal is not a finite float") from None
            rows.append(entries)
        mat = np.array(rows, dtype=complex)
        if not np.isfinite(mat).all():  # a float literal such as 1e400 reads as inf
            raise ParseError(f"{what}: number literal is not a finite float")
    if mat.shape != shape:
        raise ParseError(f"{what}: shape {mat.shape} does not match {shape}")
    return mat


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


def _parse_kraus_list(node, shape: tuple[int, int], what: str, fast: bool) -> list:
    if not isinstance(node, list) or not node:
        raise ParseError(f"{what}: expected a non-empty array of Kraus operators")
    return [_shaped_matrix(raw, f"{what}[{idx}]", shape, fast) for idx, raw in enumerate(node)]


def _outcome_entries(data: dict) -> list[dict]:
    """`data["outcomes"]`, which must be a non-empty array of objects with string labels."""
    outcomes = data.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise ParseError("'outcomes' must be a non-empty array")
    for idx, entry in enumerate(outcomes):
        if not isinstance(entry, dict) or not isinstance(entry.get("label"), str):
            raise ParseError(f"outcomes[{idx}]: expected an object with a string label")
    return outcomes


def _reject_constant(name: str):
    raise ParseError(f"invalid JSON: non-standard literal {name}")


def parse_text(text: str) -> dict:
    """Syntactic pass: JSON, kind, and shapes.  Raises ParseError only."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ParseError:
        raise
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    kind = doc.get("kind")
    data = doc.get("data")
    if not isinstance(kind, str):
        raise ParseError("missing or non-string 'kind'")
    if not isinstance(data, dict):
        raise ParseError("missing 'data' object")
    fast = "true" not in text and "false" not in text  # see _matrix_at_once

    if kind == "density":
        dim = _require_dim(doc, "dim")
        return {"kind": kind, "mat": _shaped_matrix(data.get("mat"), "mat", (dim, dim), fast)}

    if kind == "povm":
        dim = _require_dim(doc, "dim")
        outcomes = _outcome_entries(data)
        mats = [_shaped_matrix(entry.get("mat"), f"outcomes[{idx}].mat", (dim, dim), fast)
                for idx, entry in enumerate(outcomes)]
        return {"kind": kind, "labels": [entry["label"] for entry in outcomes], "mats": mats}

    if kind == "kraus_channel":
        d_in, d_out = _require_dims(doc)
        ops = _parse_kraus_list(data.get("kraus"), (d_out, d_in), "kraus", fast)
        return {"kind": kind, "kraus": ops}

    if kind == "superoperator":
        d_in, d_out = _require_dims(doc)
        mat = _shaped_matrix(data.get("mat"), "mat", (d_out * d_out, d_in * d_in), fast)
        return {"kind": kind, "mat": mat}

    if kind == "instrument":
        d_in, d_out = _require_dims(doc)
        parsed = [(entry["label"], _parse_kraus_list(entry.get("kraus"), (d_out, d_in),
                                                     f"outcomes[{idx}].kraus", fast))
                  for idx, entry in enumerate(_outcome_entries(data))]
        return {"kind": kind, "outcomes": parsed}

    raise ParseError(f"unknown kind {kind!r}")


def build(parsed: dict, tol: Tolerances = DEFAULT_TOL):
    """Semantic pass: construct the domain object; invariants may raise ValueError."""
    kind = parsed["kind"]
    if kind == "density":
        return DensityOperator(parsed["mat"], tol)
    if kind == "povm":
        return Povm.from_effects(parsed["mats"], labels=parsed["labels"], tol=tol)
    if kind == "kraus_channel":
        return KrausChannel(parsed["kraus"])
    if kind == "superoperator":
        return Superoperator(parsed["mat"])
    if kind == "instrument":
        return Instrument(tuple((label, KrausChannel(ops)) for label, ops in parsed["outcomes"]),
                          tol)
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
