"""JSON interchange for matrices and Kraus sets, instrument input, and
reports.

Floats are printed with 17 significant digits so every value round-trips
exactly; keys are emitted sorted so identical inputs produce byte-identical
documents. The encoder is iterative, which keeps very deep structures (for
instance flattened protocol trees) away from the recursion limit.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from .channels import Instrument, KrausSet, kraus_from_operators


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError("only two-dimensional arrays serialize as matrices")
    data = [[float(v.real), float(v.imag)] for row in m for v in row]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        flat = [complex(re, im) for re, im in obj["data"]]
    except (KeyError, TypeError, ValueError) as exc:
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
        din = tuple(int(d) for d in obj["dims"]["in"])
        dout = tuple(int(d) for d in obj["dims"]["out"])
        ops = [matrix_from_json(o) for o in obj["operators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed Kraus set: {exc}") from exc
    return kraus_from_operators(ops, din, dout)


def instrument_from_json(obj: dict) -> Instrument:
    kraus = kraus_from_json(obj)
    try:
        partition = tuple(tuple(int(i) for i in part)
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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj) if obj.ndim == 2 else list(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def dumps(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON with a fixed float format.

    Containers are walked with an explicit stack; each frame emits one
    fragment per visit, so nesting depth never touches Python recursion.
    """
    frags: list[str] = []
    # Each entry: (value, depth, trailing) where trailing is the suffix
    # appended after the value (comma separators and closers are pushed as
    # literal fragments).
    stack: list[Any] = [(obj, 0)]
    pad = " " * indent

    while stack:
        item = stack.pop()
        if isinstance(item, str):
            frags.append(item)
            continue
        value, depth = item
        value = _normalize(value)
        if value is None:
            frags.append("null")
        elif value is True:
            frags.append("true")
        elif value is False:
            frags.append("false")
        elif isinstance(value, str):
            frags.append(json.dumps(value))
        elif isinstance(value, int):
            frags.append(str(value))
        elif isinstance(value, float):
            frags.append(_format_float(value))
        elif isinstance(value, dict):
            if not value:
                frags.append("{}")
                continue
            frags.append("{\n")
            inner: list[Any] = []
            keys = sorted(value, key=str)
            for i, key in enumerate(keys):
                inner.append(pad * (depth + 1) + json.dumps(str(key)) + ": ")
                inner.append((value[key], depth + 1))
                inner.append(",\n" if i < len(keys) - 1 else "\n")
            inner.append(pad * depth + "}")
            stack.extend(reversed(inner))
        elif isinstance(value, list):
            if not value:
                frags.append("[]")
                continue
            simple = all(isinstance(_normalize(v), (int, float, str))
                         and not isinstance(v, bool) for v in value)
            if simple:
                parts = []
                for v in value:
                    v = _normalize(v)
                    parts.append(_format_float(v) if isinstance(v, float)
                                 else (json.dumps(v) if isinstance(v, str)
                                       else str(v)))
                frags.append("[" + ", ".join(parts) + "]")
                continue
            frags.append("[\n")
            inner = []
            for i, v in enumerate(value):
                inner.append(pad * (depth + 1))
                inner.append((v, depth + 1))
                inner.append(",\n" if i < len(value) - 1 else "\n")
            inner.append(pad * depth + "]")
            stack.extend(reversed(inner))
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")
    return "".join(frags)
