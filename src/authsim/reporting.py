"""Deterministic report rendering.

Reports must be byte-identical across runs with the same config and seed, so
JSON is emitted by a small renderer with sorted keys, LF line endings, and
floats fixed at 12 significant digits. CSV uses a comma separator, a header
row, and LF endings.

The renderers take plain JSON only: str, int, float, bool, None, lists,
tuples and dicts of these, matched by exact type. Any other value, a numpy
scalar or array, a ``Fraction`` or a complex number included, raises
``ParameterError``; the code that produces such a value converts it, e.g. an
exact rational to its "num/den" string with ``fraction_str`` or ``jsonable``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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
    """Plain-JSON copy of a value built from plain values and Fractions:
    Fractions become "num/den" strings, tuples lists and dict keys strings."""
    kind = type(obj)
    if kind is dict:
        return {str(k): jsonable(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [jsonable(x) for x in obj]
    if kind is Fraction:
        return fraction_str(obj)
    return obj


def _render(obj, indent: int, out: list) -> None:
    """Append the JSON text of the plain value ``obj`` to ``out``."""
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
        raise ParameterError(f"cannot render value of type {kind.__name__}")


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
    if value is None:
        return "None"
    if kind is not str:
        raise ParameterError(f"cannot render value of type {kind.__name__}")
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


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
