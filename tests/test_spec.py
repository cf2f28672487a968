"""Error paths of the JSON reader.

A list item's path is kept as (parent, index) and formatted only when an
error is raised; these tests pin the formatted paths of nested items.
"""

import pytest

from authsim.errors import ParameterError
from authsim.spec import Field, Spec, read_spec

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
