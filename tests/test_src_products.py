"""Every Kronecker product of the library comes from one kernel.

``quantum_core._kron`` forms a product with one broadcast multiply, and the
tests hold it to ``np.kron`` bit for bit. ``np.kron`` itself re-derives its
operands' shapes on every call, so a second route through it would bring
that cost back unseen. An ``ast`` walk of ``src/authsim`` fails on any
``kron`` attribute (``np.kron``, ``numpy.kron``) and any ``kron`` imported
from numpy, and names the file and line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "authsim"


def kron_uses(tree: ast.Module) -> list[int]:
    """Line numbers of every ``.kron`` attribute and every ``kron`` imported from numpy."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "kron":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            lines.extend(node.lineno for alias in node.names if alias.name == "kron")
    return sorted(lines)


def test_guard_finds_each_route_to_np_kron():
    source = "import numpy as np\nfrom numpy import kron\nx = np.kron(a, b)\ny = numpy.kron(a, b)\n"
    assert kron_uses(ast.parse(source)) == [2, 3, 4]


def test_library_has_no_np_kron():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in kron_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], f"np.kron in src/authsim (use quantum_core._kron): {found}"
