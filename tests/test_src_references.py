"""Every public top-level name of the library has a caller outside the tests.

Each top-level public ``def``, ``class`` and constant of ``src/authsim`` must
be read by library code (an identifier in an ``ast`` walk of ``src/``, apart
from its own binding) or named in the benchmark's sources under ``bench/``
(whose tracer looks names up from strings). Code that only tests call
belongs in the tests (``tests/testkit.py``). The keep-list holds the names the
acceptance gate calls that no library or benchmark code reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "authsim"
KEEP = {
    "is_strongly_universal", "impersonation_acceptance", "simulate_impersonation_acceptance", "random_state",
    "copies_required",
}


def public_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def read_identifiers(tree: ast.Module) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreferenced_public_names() -> set[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*(read_identifiers(tree) for tree in trees.values()))
    bench_words = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        bench_words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = set().union(*(public_definitions(tree) for tree in trees.values()))
    return {name for name in defined if name not in read and name not in bench_words}


def test_public_names_have_callers_outside_the_tests():
    assert unreferenced_public_names() - KEEP == set()


def test_keep_list_is_still_needed():
    """A kept name that gains a library or benchmark caller leaves the list."""
    assert unreferenced_public_names() == KEEP
