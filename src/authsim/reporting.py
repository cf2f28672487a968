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
from json.encoder import encode_basestring_ascii

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


_PLAIN = frozenset({str, int, float, bool, type(None)})


def jsonable(obj):
    """Normalize report values: Fractions to num/den strings, complex to
    [re, im] pairs, numpy scalars/arrays and tuples to plain Python.

    Plain values and containers are told apart by their exact type, one
    lookup per node; only other values, subclasses included, go through the
    ``isinstance`` chain.
    """
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is dict:
        return {str(k): jsonable(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [jsonable(x) for x in obj]
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
    """Append the JSON text of ``obj`` to ``out``, normalizing as ``jsonable``
    does in the same walk: a value that is not plain is rendered as its
    ``jsonable`` form."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is float:
        out.append(format_float(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        if any(type(key) is not str for key in obj):
            obj = {str(k): v for k, v in obj.items()}
        pad = "  " * indent
        out.append("{\n")
        for i, key in enumerate(sorted(obj)):
            out.append(f"{pad}  {encode_basestring_ascii(key)}: ")
            _render(obj[key], indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        pad = "  " * indent
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _render(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        value = jsonable(obj)
        if type(value) in _PLAIN or type(value) in (dict, list):  # normalized: render it as such
            _render(value, indent, out)
        elif isinstance(value, str):
            out.append(encode_basestring_ascii(value))
        elif isinstance(value, int):
            out.append(str(value))
        elif isinstance(value, float):
            out.append(format_float(value))
        else:
            raise ParameterError(f"cannot render value of type {type(value).__name__}")


def render_json(obj) -> str:
    out: list = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _csv_cell(value) -> str:
    kind = type(value)
    if kind is float:
        return format_float(value)
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is not str:  # bool cannot be subclassed: the rest are numpy, Fraction or subclass values
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
