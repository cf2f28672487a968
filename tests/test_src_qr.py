"""Every QR factorization of the library comes from one Haar sampler.

``quantum_core._haar_columns`` draws the normals, factors them by one
batched ``np.linalg.qr`` and applies the diag(R) phase fix, and the tests
hold its output to one single draw per unitary bit for bit. A second QR
would be a second place that decides the draw order and the phase
convention. An ``ast`` walk of ``src/authsim`` fails on any ``linalg.qr``
(``np.linalg.qr``, ``numpy.linalg.qr``, ``scipy.linalg.qr``) and any ``qr``
imported from a ``linalg`` module outside ``_haar_columns``, and names the
file, function and line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "authsim"
ALLOWED = ("quantum_core.py", "_haar_columns")


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ''."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def qr_uses(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, line) of every ``linalg.qr`` attribute and every ``qr`` imported from a
    ``linalg`` module; the function is '' at module level."""
    uses = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr == "qr" and _dotted(node.value).split(".")[-1] == "linalg":
            uses.append((scope, node.lineno))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
            uses.extend((scope, node.lineno) for alias in node.names if alias.name == "qr")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(uses, key=lambda use: use[1])


def test_guard_finds_each_route_to_qr():
    source = (
        "import numpy as np\nfrom numpy.linalg import qr\nx = np.linalg.qr(a)\n"
        "def f():\n    return numpy.linalg.qr(a)\ny = scipy.linalg.qr(a)\nz = np.qr(a)\n"
    )
    assert qr_uses(ast.parse(source)) == [("", 2), ("", 3), ("f", 5), ("", 6)]


def test_library_factors_only_in_the_haar_sampler():
    found = [
        (path.name, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line in qr_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    outside = [f"{name}:{line} in {scope or 'module'}" for name, scope, line in found if (name, scope) != ALLOWED]
    assert outside == [], f"QR in src/authsim outside quantum_core._haar_columns: {outside}"
    assert [(name, scope) for name, scope, _ in found] == [ALLOWED]
