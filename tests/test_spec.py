"""Error paths of the JSON reader, and how it reads numpy integers.

A list item's path is kept as (parent, index) and formatted only when an
error is raised; these tests pin the formatted paths of nested items.
"""

import numpy as np
import pytest

from authsim import classical_mac
from authsim.classical_mac import make_poly_family
from authsim.errors import ParameterError
from authsim.spec import Field, Spec, read_spec, read_value

COMPONENT = Field(list, item=Field(float), lo=2, hi=2)
SPEC = Spec({"matrix": Field(list, item=Field(list, item=COMPONENT)), "names": Field(list, item=Field(str))})


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"matrix": [[[1, 0], [0, True]]], "names": []}, "doc.matrix[0][1][1] must be a number, got True"),
        ({"matrix": [[[1, 0]], [[0, 1, 2]]], "names": []}, "the length of doc.matrix[1][0] must be <= 2, got 3"),
        ({"matrix": [[[1, 0]], [[10**400, 0]]], "names": []}, "doc.matrix[1][0][0] is too large for a float"),
        ({"matrix": [[[1, 0]], 5], "names": []}, "doc.matrix[1] must be a list, got 5"),
        ({"matrix": [], "names": ["a", 1]}, "doc.names[1] must be a string, got 1"),
    ],
)
def test_item_errors_name_their_path(doc, message):
    with pytest.raises(ParameterError) as info:
        read_spec(SPEC, doc, "doc")
    assert str(info.value).startswith(message)


def test_items_are_read_as_their_type():
    doc = read_spec(SPEC, {"matrix": [[[1, 0], [0.5, -1]]], "names": ["a"]}, "doc")
    assert doc == {"matrix": [[[1.0, 0.0], [0.5, -1.0]]], "names": ["a"]}
    assert all(type(x) is float for row in doc["matrix"] for pair in row for x in pair)


def test_numpy_integers_are_read_as_python_ints():
    # a numpy integer is taken where an int is, as the int it holds; a numpy bool is not
    for value in (np.int64(7), np.uint64(2**64 - 1), np.int8(-3)):
        read = read_value(Field(int), value, "n")
        assert type(read) is int and read == int(value)
    with pytest.raises(ParameterError, match=r"^n must be >= 1, got 0$"):
        read_value(Field(int, lo=1), np.int64(0), "n")
    with pytest.raises(ParameterError, match=r"^n must be an integer, got np\.(True_|bool_\(True\))$"):
        read_value(Field(int), np.bool_(True), "n")
    assert read_spec(Spec({"dims": Field(list, item=Field(int))}), {"dims": [np.int32(2)]}, "doc") == {"dims": [2]}


def test_numpy_integer_powers_cannot_wrap(monkeypatch):
    # np.int64(1048573) ** 20 wraps to a negative int64, which would pass the family-table cap;
    # the read Python ints give the true power, and the family is rejected before it is built
    assert np.int64(1048573) ** 20 < 0
    # were the cap check wrapped, the build would fail here at once instead of running without end
    monkeypatch.setattr(classical_mac.itertools, "product", None)
    with pytest.raises(ParameterError, match=r"^family table p\*\*blocks \* p = \d+ exceeds cap 1048576$"):
        make_poly_family(np.int64(1048573), np.int64(20))
