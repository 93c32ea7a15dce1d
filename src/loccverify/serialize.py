"""JSON interchange for matrices and Kraus sets, instrument input, and
reports.

Floats are printed with 17 significant digits so every value round-trips
exactly; keys are emitted sorted so identical inputs produce byte-identical
documents.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channels import Instrument, KrausSet, kraus_from_operators


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("only two-dimensional arrays serialize as matrices")
    # Row-major [re, im] pairs, as Python floats, in one conversion.
    data = np.ascontiguousarray(m).view(np.float64).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _count(value, least: int = 0) -> int:
    """A count read from JSON: a whole number, at least ``least``. A float
    counts only when it is whole; anything else raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < least:
        raise ValueError(f"count {value!r} is not a whole number "
                         f"of at least {least}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = _count(obj["rows"]), _count(obj["cols"])
        flat = [complex(re, im) for re, im in obj["data"]]
        if any(isinstance(v, bool) for pair in obj["data"] for v in pair):
            raise ValueError("matrix entries must be numbers, not booleans")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if len(flat) != rows * cols:
        raise ValueError("matrix data length does not match rows * cols")
    m = np.array(flat, dtype=np.complex128).reshape(rows, cols)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def kraus_to_json(k: KrausSet) -> dict:
    return {
        "dims": {"in": list(k.input_dims.dims),
                 "out": list(k.output_dims.dims)},
        "operators": [matrix_to_json(op) for op in k.operators],
    }


def kraus_from_json(obj: dict) -> KrausSet:
    try:
        din = tuple(_count(d, 1) for d in obj["dims"]["in"])
        dout = tuple(_count(d, 1) for d in obj["dims"]["out"])
        ops = [matrix_from_json(o) for o in obj["operators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed Kraus set: {exc}") from exc
    return kraus_from_operators(ops, din, dout)


def instrument_from_json(obj: dict) -> Instrument:
    kraus = kraus_from_json(obj)
    try:
        partition = tuple(tuple(_count(i) for i in part)
                          for part in obj["partition"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instrument: {exc}") from exc
    return Instrument(kraus, partition)


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _normalize(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj) if obj.ndim == 2 else list(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def dumps(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON with a fixed float format.

    Keys are sorted; a list whose items are all numbers or strings (no
    bools) stays on one line, and every other nonempty container puts one
    item on each line.
    """
    pad = " " * indent

    def write(value: Any, depth: int) -> str:
        value = _normalize(value)
        if value is None or isinstance(value, (bool, str)):
            return json.dumps(value)
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return _format_float(value)
        if isinstance(value, dict):
            items = [json.dumps(str(key)) + ": " + write(value[key], depth + 1)
                     for key in sorted(value, key=str)]
            ends = "{}"
        elif isinstance(value, list):
            items = [write(v, depth + 1) for v in value]
            if all(isinstance(_normalize(v), (int, float, str))
                   and not isinstance(v, bool) for v in value):
                return "[" + ", ".join(items) + "]"
            ends = "[]"
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")
        if not items:
            return ends
        inner = "\n" + pad * (depth + 1)
        return (ends[0] + inner + ("," + inner).join(items)
                + "\n" + pad * depth + ends[1])

    return write(obj, 0)
