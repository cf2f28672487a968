"""The benchmark tracer's contract with the library.

``bench/tracer.py`` wraps every function named in its ``LAYERS`` table,
looked up with ``getattr`` on ``authsim.<layer>``, and the ``__post_init__``
of every ``VALIDATED_TYPES`` class of ``quantum_core``. A name missing from
the library crashes every traced benchmark run (``--trace 1``), so these
tests pin the names. The tracer imports only the standard library and is
loaded by file path.
"""

import importlib
import importlib.util
from pathlib import Path

from authsim import quantum_core

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
