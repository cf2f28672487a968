"""Each size cap of the library is compared in one place per layer.

``quantum_core.MAX_TOTAL_DIMENSION`` bounds every state, operator, builder
and tensor product where its dims are read, in ``_resolve_dims``;
``symmetric_projector`` keeps its own ``d**n`` check, because it allocates
its matrix before it builds a value. ``classical_mac.MESSAGE_SPACE_CAP``
bounds the ``|M| x p`` table of both built-in families in ``_poly_g``. A
second comparison would be a second place that decides a cap and its
message. An ``ast`` walk of ``src/authsim`` fails on any comparison that names
a cap outside these functions, and names the file, function and line. A cap
read elsewhere, say as a ``Field`` bound, is not a comparison.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "authsim"
ALLOWED = [
    ("MAX_TOTAL_DIMENSION", "quantum_core.py", "_resolve_dims"),
    ("MAX_TOTAL_DIMENSION", "quantum_core.py", "symmetric_projector"),
    ("MESSAGE_SPACE_CAP", "classical_mac.py", "_poly_g"),
]
CAPS = {cap for cap, _, _ in ALLOWED}


def cap_comparisons(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(cap, enclosing function, line) of every comparison that names a cap, as a name or an
    attribute; the function is '' at module level."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else ""
                if name in CAPS:
                    found.append((name, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found, key=lambda use: use[2])


def test_guard_finds_each_comparison():
    source = (
        "F = Field(int, hi=MAX_TOTAL_DIMENSION)\nok = x <= MESSAGE_SPACE_CAP\n"
        "def f(d):\n    if not d < quantum_core.MAX_TOTAL_DIMENSION:\n        return min(d, MAX_TOTAL_DIMENSION)\n"
        "    return 0 < d * 2 <= MAX_TOTAL_DIMENSION\n"
    )
    assert cap_comparisons(ast.parse(source)) == [
        ("MESSAGE_SPACE_CAP", "", 2), ("MAX_TOTAL_DIMENSION", "f", 4), ("MAX_TOTAL_DIMENSION", "f", 6)
    ]


def test_each_cap_is_compared_only_where_sizes_are_read():
    found = [
        (cap, path.name, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for cap, scope, line in cap_comparisons(ast.parse(path.read_text(encoding="utf-8")))
    ]
    outside = [f"{cap} at {name}:{line} in {scope or 'module'}" for cap, name, scope, line in found
               if (cap, name, scope) not in ALLOWED]
    assert outside == [], f"a size cap compared outside the functions that read sizes: {outside}"
    assert sorted((cap, name, scope) for cap, name, scope, _ in found) == ALLOWED
