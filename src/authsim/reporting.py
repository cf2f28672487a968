"""Deterministic report rendering.

Reports must be byte-identical across runs with the same config and seed, so
JSON is emitted by a small renderer with sorted keys, LF line endings, and
floats fixed at 12 significant digits; exact rationals render as "num/den"
strings. CSV uses a comma separator, a header row, and LF endings.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

from .errors import ParameterError


def format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"cannot render non-finite value {value!r}")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.12g}"


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def jsonable(obj):
    """Normalize report values: Fractions to num/den strings, complex to
    [re, im] pairs, numpy scalars/arrays and tuples to plain Python."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return obj


def _render(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(obj.items(), key=lambda kv: kv[0])
        for i, (key, value) in enumerate(items):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _render(value, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _render(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise ParameterError(f"cannot render value of type {type(obj).__name__}")


def render_json(obj) -> str:
    out: list = []
    _render(jsonable(obj), 0, out)
    out.append("\n")
    return "".join(out)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        return fraction_str(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(header, rows) -> str:
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def config_sha256(scenario_kind: str, parameters: dict, seed: int) -> str:
    canonical = json.dumps(
        {"parameters": parameters, "scenario": scenario_kind, "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
