"""Declarative reader for every value authsim takes in. Each JSON object (the
scenario config, its parameter objects, the state, operator, scheme and
instance documents) has a ``Spec``, applied once by ``read_spec``; each CLI
flag and scalar library argument is read by its ``Field`` with ``read_value``.
An error names the exact spot, e.g. ``parameters.scheme.tag_unitaries.0,0.matrix[1][0]``
or ``copy count``, in one wording wherever the value came from.
"""

from __future__ import annotations

import operator
from collections.abc import Hashable
from numbers import Integral, Real
from typing import NamedTuple

from .errors import ParameterError


class Field(NamedTuple):
    """One key of a JSON object, or one argument: ``type`` is int (never
    bool; numpy integers too, read as a Python int), float (any real number
    but a bool, numpy scalars and Fraction too, read as a float), str, dict,
    list (items read by ``item``) or Hashable (any JSON scalar); ``lo``/``hi``
    are inclusive and bound a list's length. A key without a default is
    required unless a one-of group or the spec's ``optional`` names it.
    ``only_with`` = (key, value) allows the key, and gives it its default,
    only where an earlier key of the object reads that value."""

    type: type
    default: object = None
    lo: float | None = None
    hi: float | None = None
    choices: tuple = ()
    spec: Spec | None = None
    item: Field | None = None
    only_with: tuple = ()


class Spec(NamedTuple):
    """The keys of one JSON object. A one-of group lists alternatives (a
    key, or keys joined by '/'): at most one may be given, and exactly one
    unless some alternative has defaults for all its keys. ``optional``
    names keys that may be absent and have no default."""

    fields: dict
    one_of: tuple = ()
    optional: tuple = ()


_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string", dict: "an object", list: "a list",
    Hashable: "a scalar",
}
_ACCEPTED = {float: (int, float, Real), int: (int, Integral)}  # int, float first: the ABC checks are slow


def _path(where) -> str:
    """``where`` as text: a str, or (parent, index) for a list item, formatted only for a message."""
    return where if isinstance(where, str) else f"{_path(where[0])}[{where[1]}]"


def read_value(field: Field, value, where):
    """``value`` checked against ``field`` and read, with ``where`` (a str, or (parent, index)) named in errors."""
    accepted = _ACCEPTED.get(field.type, field.type)
    if isinstance(value, bool) and field.type is not Hashable or not isinstance(value, accepted):
        raise ParameterError(f"{_path(where)} must be {_TYPE_NAMES[field.type]}, got {value!r}")
    value = operator.index(value) if field.type is int else value  # a Python int: numpy integers wrap
    if field.spec is not None:
        return read_spec(field.spec, value, _path(where))
    if field.item is not None:
        value = [read_value(field.item, item, (where, i)) for i, item in enumerate(value)]
    size, of = (len(value), "the length of ") if field.type is list else (value, "")
    if field.lo is not None and not field.lo <= size:
        raise ParameterError(f"{of}{_path(where)} must be >= {field.lo}, got {size!r}")
    if field.hi is not None and not size <= field.hi:
        raise ParameterError(f"{of}{_path(where)} must be <= {field.hi}, got {size!r}")
    if field.choices and value not in field.choices:
        raise ParameterError(f"{_path(where)} must be one of {list(field.choices)}, got {value!r}")
    try:
        return float(value) if field.type is float else value
    except OverflowError:
        raise ParameterError(f"{_path(where)} is too large for a float, got {value!r}") from None


def read_spec(spec: Spec, doc, where: str) -> dict:
    """Checked copy of the JSON object ``doc``: unknown keys and broken
    one-of groups are rejected, each given value is read by its field, and
    each absent key with a default gets it, read the same way."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(spec.fields))
    if unknown:
        raise ParameterError(f"{where}: unknown key(s) {unknown}; allowed keys are {sorted(spec.fields)}")
    optional = set(spec.optional)
    for group in spec.one_of:
        alternatives = [alt.split("/") for alt in group]
        optional.update(*alternatives)
        given = [alt for alt in alternatives if any(key in doc for key in alt)]
        defaulted = any(all(spec.fields[key].default is not None for key in alt) for alt in alternatives)
        if len(given) > 1 or not (given or defaulted):
            many = "at most" if defaulted else "exactly"
            raise ParameterError(f"{where} takes {many} one of {' | '.join(group)}")
    out = {}
    for key, field in spec.fields.items():
        allowed = not field.only_with or out.get(field.only_with[0]) == field.only_with[1]
        if key in doc and not allowed:
            other, value = field.only_with
            raise ParameterError(f"{where}.{key} is allowed only when {other} is {value!r}")
        if key in doc or (field.default is not None and allowed):
            out[key] = read_value(field, doc[key] if key in doc else field.default, f"{where}.{key}")
        elif field.default is None and key not in optional:
            raise ParameterError(f"{where}.{key} is required")
    return out
