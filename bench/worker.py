"""One fresh benchmark process: import authsim, run one pass, check it.

Run by ``bench/run.py`` as ``python3 bench/worker.py '<spec json>'``; the spec
holds the workload, seed, smoke flag, trace flag, a scratch directory and the
parent's ``time.monotonic()`` just before the spawn (CLOCK_MONOTONIC is
shared by all processes, so set-up time includes interpreter start). Prints
one JSON object with the pass's measurements as its last line.

Times are reported raw together with ``calibration_s``, the time of fixed
loops run around the pass; ``run.py`` scales every time by
``CALIBRATION_REFERENCE_S / calibration_s`` (see bench/README.md).
"""

import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# Time of the calibration loops at reference speed: about their time on a
# quiet 2-vCPU Xeon VM. Changing it rescales every reported time.
CALIBRATION_REFERENCE_S = 0.35


def _blas_stamp(np) -> dict:
    """BLAS name, version and thread count of the numpy this process loaded."""
    import ctypes

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    stamp = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                stamp["threads"] = getter()
                return stamp
    return stamp


def time_interpreter_loop() -> float:
    """A fixed dict-update loop (about 0.1 s); allocates almost nothing."""
    start = time.perf_counter()
    counts = {}
    for i in range(600_000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def time_memory_loop(np) -> float:
    """A fixed numpy streaming loop over 16 MB arrays (about 0.2 s)."""
    data = np.arange(2_000_000, dtype=float)
    start = time.perf_counter()
    for _ in range(28):
        np.sqrt(data) * 1.5 + data
    return time.perf_counter() - start


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import numpy as np

    import authsim  # every layer module except cli and reporting
    import authsim.cli  # noqa: F401 - imports reporting too

    if Path(authsim.__file__).resolve().parent != SRC / "authsim":
        print(f"error: authsim imported from {authsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_s = time.monotonic() - spec["spawned"]

    tmp = Path(spec["tmp"])
    ops = workloads.build(spec["workload"], spec["seed"], spec["smoke"], tmp)
    traced = tracer.Tracer() if spec["trace"] else None
    if traced is not None:
        traced.install()
    else:
        leftover = tracer.installed_wrappers()
        if leftover:
            print(f"error: untraced run has tracer wrappers: {leftover}", file=sys.stderr)
            return 2

    # Calibration touches no authsim code, so a change to the program cannot
    # move it. The interpreter loop brackets the pass; the memory loop runs
    # after peak memory is read, so its arrays do not count.
    calibration_s = time_interpreter_loop()
    results = []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for op in ops:
        try:
            results.append((op, op.call(), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((op, None, f"{type(exc).__name__}: {exc}"))
    wall_s, cpu_s = time.perf_counter() - t0, _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration_s += time_interpreter_loop() + time_memory_loop(np)
    layers = traced.metrics() if traced is not None else None

    failures = []
    for op, value, error in results:
        if error is None:
            try:
                error = op.check(value)
            except Exception as exc:  # an unreadable output is a failed operation
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.name}: {error}")
    report_bytes = sum(op.output.stat().st_size for op in ops if op.output is not None and op.output.exists())

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration_s,
        "attempted": len(ops),
        "failures": failures,
        "report_bytes": report_bytes,
        "layers": layers,
        "env": {"numpy": np.__version__, "blas": _blas_stamp(np)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
