"""The benchmark tracer's contract with the library.

``bench/tracer.py`` wraps every function named in its ``LAYERS`` table,
looked up with ``getattr`` on ``authsim.<layer>``, and the ``__post_init__``
of every ``VALIDATED_TYPES`` class of ``quantum_core``. A name missing from
the library crashes every traced benchmark run (``--trace 1``), so these
tests pin the names. An ``ast`` walk of ``src/authsim`` fails on a class that
defines a ``__post_init__`` the tracer does not wrap: a check there is a
second construction hook that no span times, so it belongs in ``__init__``.
Traced smoke runs of the four workloads (the
built-in scenarios, the classical and qmac ladders and the symmetry-test
oracle) check that every wrapped call still goes through. The tracer imports only the standard library and is
loaded by file path.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from authsim import qmac_framework, quantum_core

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"
SRC = ROOT / "src" / "authsim"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_name_is_a_library_function():
    layers = load_tracer().LAYERS
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"authsim.{layer}"), name, None))
    ]
    assert sum(len(names) for names in layers.values()) > 0
    assert missing == []


def test_every_validated_type_is_a_quantum_core_class():
    types = load_tracer().VALIDATED_TYPES
    missing = [
        name
        for name in types
        if not isinstance(getattr(quantum_core, name, None), type)
        or "__post_init__" not in vars(getattr(quantum_core, name))
    ]
    assert types and missing == []


def test_validate_scheme_is_the_scheme_check():
    assert qmac_framework.validate_scheme is qmac_framework.QmacScheme.validate


def post_init_classes(tree: ast.Module) -> list[str]:
    """Names of the classes, nested ones too, whose body defines ``__post_init__``."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body)
    ]


def test_guard_finds_each_post_init():
    source = (
        "class A:\n    def __post_init__(self):\n        pass\n"
        "class B:\n    def __init__(self):\n        self.__post_init__ = None\n"
        "def f():\n    class C:\n        def __post_init__(self):\n            pass\n"
        "def __post_init__(self):\n    pass\n"
    )
    assert post_init_classes(ast.parse(source)) == ["A", "C"]


def test_only_tracer_wrapped_types_define_post_init():
    wrapped = set(load_tracer().VALIDATED_TYPES)
    found = [
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in post_init_classes(ast.parse(path.read_text(encoding="utf-8")))
        if name not in wrapped
    ]
    assert found == [], f"__post_init__ outside bench/tracer.py's VALIDATED_TYPES (check in __init__): {found}"


def traced_smoke_metrics(workload: str) -> dict:
    """The per-layer metrics of one traced ``--smoke`` pass, which must be correct."""
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result["metrics"]


def test_traced_builtin_smoke_run():
    """One traced pass of every built-in scenario in JSON and CSV (about 2 s).

    The per-layer counts pinned in bench/test_smoke.py are not checked here;
    this catches a library change that breaks a traced call, such as a new
    signature of a wrapped function.
    """
    metrics = traced_smoke_metrics("builtin-scenarios")
    assert metrics["cli.run.calls"]["value"] == 14
    # one outermost jsonable per classical report: affine-p5 and poly-p5-l2, JSON and CSV
    assert metrics["reporting.jsonable.calls"]["value"] == 4


def test_traced_classical_ladder_smoke_run():
    """One traced pass of affine p = 11 and poly (7, 2), whose p0 = 1/p and
    p1 invariants the benchmark checks, with bench/test_smoke.py's pins."""
    metrics = traced_smoke_metrics("classical-ladder")
    assert metrics["classical_mac.deception_probabilities.calls"]["value"] == 2
    assert metrics["classical_mac.cells_scanned"]["value"] == 11 * 10 * 11**2 + 49 * 48 * 7**2


def test_traced_qmac_ladder_smoke_run():
    """One traced pass of the first qmac-ladder point, 100 random 2 x 2 x 2
    schemes through cli.run, whose reports the benchmark checks: a tracer
    break on the random-scheme path fails here."""
    metrics = traced_smoke_metrics("qmac-ladder")
    assert metrics["cli.run.calls"]["value"] == 1


def test_traced_symtest_oracle_smoke_run():
    """One traced pass of the symtest-oracle smoke points, each oracle value
    checked against the closed form: a tracer break on the oracle path, or a
    tensor product formed on it, fails here (the oracle reads the Gram
    matrix of the factors and forms no product)."""
    metrics = traced_smoke_metrics("symtest-oracle")
    assert metrics["symmetry_test.acceptance_error_oracle.calls"]["value"] == 20
    assert metrics["quantum_core.tensor.calls"]["value"] == 0
