"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps chosen public functions of authsim's layer modules from
outside the library, and the ``__post_init__`` validation of the quantum_core
value types under the one name ``quantum_core.validate``. A span is
(name, start, end, parent). A function's self time is the time of its spans
minus the part covered by their child spans, so time in an unwrapped helper
counts toward the wrapped function that called it. A recursive call inside an
open span of the same function is not a new span: ``calls`` counts outermost
entries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

LAYERS = {
    "cli": ("run", "load_config"),
    "reporting": ("render_json", "render_csv", "jsonable"),
    "classical_mac": ("deception_probabilities", "make_affine_family", "make_poly_family"),
    "quantum_core": (
        "random_unitary",
        "overlap",
        "tensor",
        "partial_trace",
        "measure_projective",
        "max_eigenpair",
        "symmetric_projector",
    ),
    "qmac_framework": (
        "random_scheme",
        "validate_scheme",
        "overlap_matrix",
        "max_offdiagonal_overlap",
        "impersonation_deception",
        "verify_theorem2",
    ),
    "curty_santos": (
        "incompatibility_report",
        "optimal_impersonation",
        "honest_run",
        "attack_operator",
    ),
    "symmetry_test": ("acceptance_error_oracle", "sweep"),
}
VALIDATED_TYPES = ("PureState", "UnitaryOperator", "HermitianOperator")
VALIDATE_SPAN = "quantum_core.validate"
MARK = "__bench_span__"


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    return names + [VALIDATE_SPAN]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced worker reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["classical_mac.cells_scanned"] = "count"
    units["quantum_core.projector_bytes"] = "bytes"
    return units


def _authsim_modules():
    return [m for n, m in list(sys.modules.items()) if n == "authsim" or n.startswith("authsim.")]


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers reachable from any loaded authsim module."""
    found = []
    for module in _authsim_modules():
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type) and hasattr(vars(value).get("__post_init__"), MARK):
                found.append(f"{module.__name__}.{attr}.__post_init__")
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.cells_scanned = 0
        self.projector_shapes: set = set()

    def _wrap(self, fn, name, hook=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        open_, span_name, parent, start, end = self._open, self.span_name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and span_name[open_[-1]] == nid:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(*args, **kwargs)
            i = len(start)
            span_name.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()

        setattr(wrapper, MARK, name)
        return wrapper

    def _count_cells(self, family):
        m, t = len(family.message_space), len(family.tag_space)
        self.cells_scanned += m * (m - 1) * t * t

    def _note_projector(self, d, n):
        self.projector_shapes.add((d, n))

    def install(self) -> None:
        """Wrap every function in LAYERS and rebind each of its aliases."""
        hooks = {
            "classical_mac.deception_probabilities": self._count_cells,
            "quantum_core.symmetric_projector": self._note_projector,
        }
        modules = _authsim_modules()
        for layer, fns in LAYERS.items():
            home = sys.modules[f"authsim.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(original, name, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        core = sys.modules["authsim.quantum_core"]
        for type_name in VALIDATED_TYPES:
            cls = getattr(core, type_name)
            cls.__post_init__ = self._wrap(cls.__post_init__, VALIDATE_SPAN)

    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self time over every span recorded so far."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(duration)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += duration[i]
        calls = dict.fromkeys(span_names(), 0)
        self_s = dict.fromkeys(span_names(), 0.0)
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += duration[i] - covered[i]
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["classical_mac.cells_scanned"] = self.cells_scanned
        out["quantum_core.projector_bytes"] = sum(16 * d ** (2 * n) for d, n in self.projector_shapes)
        return out
