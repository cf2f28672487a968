"""Report rendering of values that are not plain JSON, pinned to the bytes
of the two-pass renderer (``jsonable`` first, then one render walk) that the
one-walk renderer replaced. The built-in digests cover plain reports."""

from fractions import Fraction

import numpy as np
import pytest

from authsim.errors import ParameterError
from authsim.reporting import jsonable, render_csv, render_json

VALUE = {
    "fraction": Fraction(2, 6),
    "complex": 1 - 2j,
    "numpy": [np.float64(0.1), np.int64(-3), np.bool_(False), np.array([[1.5, 2]]), np.complex128(0.5j)],
    "tuple": (None, True, 'café "q"\n'),
    2: {"b": -0.0, "a": [], 10: 1e-300},
    "empty": {},
}
VALUE_JSON = (
    '{\n  "2": {\n    "10": 1e-300,\n    "a": [],\n    "b": 0\n  },\n  "complex": [\n    1,\n    -2\n  ],\n'
    '  "empty": {},\n  "fraction": "1/3",\n  "numpy": [\n    0.1,\n    -3,\n    false,\n    [\n      [\n'
    '        1.5,\n        2\n      ]\n    ],\n    [\n      0,\n      0.5\n    ]\n  ],\n  "tuple": [\n'
    '    null,\n    true,\n    "caf\\u00e9 \\"q\\"\\n"\n  ]\n}\n'
)


def test_one_walk_renders_normalized_values():
    assert render_json(VALUE) == VALUE_JSON
    assert render_json(jsonable(VALUE)) == VALUE_JSON


def test_csv_cells():
    row = [Fraction(1, 3), np.int64(4), True, 0.5, "a,b", np.float64(-0.0), np.bool_(True), 'x"y']
    assert render_csv(["k", "v"], [row]) == 'k,v\n1/3,4,true,0.5,"a,b",0,True,"x""y"\n'


@pytest.mark.parametrize(
    "value,message",
    [({"x": {1, 2}}, "cannot render value of type set"), ([float("nan")], "non-finite"), ((np.inf,), "non-finite")],
)
def test_unrenderable_values_rejected(value, message):
    with pytest.raises(ParameterError, match=message):
        render_json(value)
