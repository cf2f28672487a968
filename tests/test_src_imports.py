"""authsim imports no ``dataclasses``.

Every ``@dataclass`` builds its methods with ``exec`` when its module is
imported, which every CLI run pays before it does any work. The library's
records are ``typing.NamedTuple``s and its checked types plain classes
instead. An ``ast`` walk of ``src/authsim`` fails on any import of
``dataclasses`` and names the file and line; a fresh interpreter checks that
nothing reached from ``authsim.cli`` loads the module either.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "authsim"


def dataclasses_imports(tree: ast.Module) -> list[int]:
    """Line numbers of every ``import dataclasses`` and ``from dataclasses import ...``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            lines.extend(node.lineno for alias in node.names if alias.name.split(".")[0] == "dataclasses")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "") == "dataclasses":
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_finds_each_dataclasses_import():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\nimport os, dataclasses as dc\n"
        "def f():\n    from dataclasses import replace\nfrom .dataclasses import x\nimport dataclasses_json\n"
    )
    assert dataclasses_imports(ast.parse(source)) == [1, 2, 3, 5]


def test_library_imports_no_dataclasses():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in dataclasses_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], f"dataclasses imported in src/authsim (use NamedTuple or a plain class): {found}"


def test_cli_import_leaves_dataclasses_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, numpy, authsim.cli\n"
        "print(authsim.cli.__file__)\n"
        "print(sorted({'numpy', 'authsim.cli', 'dataclasses'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    path, loaded = proc.stdout.splitlines()
    assert Path(path).resolve() == SRC / "cli.py"
    assert loaded == "['authsim.cli', 'numpy']"
