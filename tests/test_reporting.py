"""Report rendering of plain JSON values, the only values the renderers take.
The bytes are pinned to the renderer that also normalized numpy and
``Fraction`` values; the built-in digests cover whole reports."""

from fractions import Fraction

import numpy as np
import pytest

from authsim.errors import ParameterError
from authsim.reporting import jsonable, render_csv, render_json

VALUE = {
    "tuple": (None, True, 'café "q"\n'),
    2: {"b": -0.0, "a": [], 10: 1e-300},
    "empty": {},
    "list": [[], 1, -3, 0.1, False],
}
VALUE_JSON = (
    '{\n  "2": {\n    "10": 1e-300,\n    "a": [],\n    "b": 0\n  },\n  "empty": {},\n  "list": [\n'
    '    [],\n    1,\n    -3,\n    0.1,\n    false\n  ],\n  "tuple": [\n    null,\n    true,\n'
    '    "caf\\u00e9 \\"q\\"\\n"\n  ]\n}\n'
)


def test_one_walk_renders_normalized_values():
    assert render_json(VALUE) == VALUE_JSON
    assert render_json(jsonable(VALUE)) == VALUE_JSON


def test_csv_cells():
    row = [None, 4, True, 0.5, "a,b", -0.0, 'x"y', "l1\nl2", ""]
    assert render_csv(["k", "v"], [row]) == 'k,v\nNone,4,true,0.5,"a,b",0,"x""y","l1\nl2",\n'


NOT_PLAIN = [np.float64(0.1), np.int64(-3), np.bool_(False), Fraction(1, 3), 1 - 2j, np.array([1.5, 2.0])]


@pytest.mark.parametrize(
    "value,message",  # value: a CSV row of one cell, rendered as a JSON list too
    [([{1, 2}], "cannot render value of type set"), ([float("nan")], "non-finite"), ((np.inf,), "non-finite")]
    + [([value], f"cannot render value of type {type(value).__name__}$") for value in NOT_PLAIN],
)
def test_unrenderable_values_rejected(value, message):
    """A value that is not plain JSON is rejected inside a JSON report and as a CSV cell."""
    with pytest.raises(ParameterError, match=message):
        render_json({"x": value})
    with pytest.raises(ParameterError, match=message):
        render_csv(["k"], [value])
