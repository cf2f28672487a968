"""Every scalar argument is read by one reader.

``spec.read_value`` reads config keys, CLI flags and library arguments with a
``Field``, and it alone decides that a bool is neither an int nor a real
number. A hand-written ``isinstance(x, bool)`` elsewhere would be a second
reader of the same values, with its own accept set and its own wording. An
``ast`` walk of ``src/authsim`` fails on any such check outside ``spec.py``,
and names the file and line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "authsim"
ALLOWED: set[tuple[str, str]] = set()  # (file, top-level function); spec.py is skipped whole


def _names_bool(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == "bool" or isinstance(n, ast.Attribute) and n.attr == "bool"
        for n in ast.walk(node)
    )


def bool_checks(tree: ast.Module) -> list[tuple[str, int]]:
    """(top-level function or class, line) of every ``isinstance`` call whose class
    argument names ``bool``, alone or in a tuple; the scope is "" at module level."""
    return [
        (getattr(top, "name", ""), node.lineno)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _names_bool(node.args[1])
    ]


def test_guard_finds_each_bool_check():
    source = (
        "def f(x):\n    return isinstance(x, bool)\n"
        "class C:\n    def g(self, x):\n        return isinstance(x, (int, bool)) or isinstance(x, np.bool)\n"
        "ok = isinstance(1, int) and isinstance(True, (str, int))\n"
        "top = isinstance(1, bool)\n"
    )
    assert bool_checks(ast.parse(source)) == [("f", 2), ("C", 5), ("C", 5), ("", 7)]


def test_library_reads_bools_only_in_spec():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spec.py"
        for scope, line in bool_checks(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, scope) not in ALLOWED
    ]
    assert found == [], f"isinstance(..., bool) in src/authsim (read the value with spec.read_value): {found}"
