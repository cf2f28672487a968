"""Report bytes under other BLAS kernels.

numpy's OpenBLAS is built with DYNAMIC_ARCH: it picks a kernel for the CPU
when it loads, and ``OPENBLAS_CORETYPE`` makes one process load another, the
kernel another CPU would get. Each test renders every built-in report, JSON
and CSV, and every other digest-pinned input of ``test_report_digests`` in a
subprocess under one forced kernel, and pins the (report, format) pairs
whose bytes differ from the pinned digests. A change that makes one more
report depend on the kernel fails here by name, and so does one that makes
a listed report stable, so the list shrinks only on purpose. The same
subprocess holds the state norm check, ``quantum_core._norm``, ``==``
``np.linalg.norm`` under that kernel.

Run as a script (``python tests/test_cross_kernel.py DIR``), this module
renders the reports into DIR and prints the moved pairs and the norm
mismatches as one JSON object.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from authsim.quantum_core import _norm
import test_report_digests as pinned

TESTS = Path(__file__).resolve().parent

# Why they move: CSV reports write lists at 17 digits (cli._flatten), so the last bits of
# random draws and Gram products show; cs-hadamard and cs-instance print roundoff as data
# (a factorization residual, an eigenvalue of about 1e-34). The inline schemes are read
# from a committed fixture, so their configs do not move with the kernel's QR.
KERNEL_MOVES = {
    "Haswell": {
        ("4x8x8", "csv"),
        ("cs-nogo-sweep", "csv"),
        ("cs-sweep-stack-boundary", "csv"),
        ("cs-sweep-stack-boundary", "json"),
        ("theorem2-random", "csv"),
    },
    "Sandybridge": {
        ("16x16x16", "csv"),
        ("4x8x8", "csv"),
        ("cs-hadamard", "csv"),
        ("cs-hadamard", "json"),
        ("cs-instance", "csv"),
        ("cs-instance", "json"),
        ("cs-nogo-sweep", "csv"),
        ("cs-sweep-stack-boundary", "csv"),
        ("cs-sweep-stack-boundary", "json"),
        ("random-schemes", "csv"),
        ("theorem2-random", "csv"),
    },
}


def norm_vectors():
    """Complex vectors of 1 to 4096 entries at scales from 1e-300 to 1e300, and
    some with infinite or NaN parts."""
    rng = np.random.default_rng(2024)
    vectors = []
    for size in (1, 2, 3, 7, 16, 17, 31, 64, 100, 1000, 4095, 4096):
        unit = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        unit /= np.linalg.norm(unit)
        vectors += [unit * scale for scale in (1e-300, 1e-160, 1.0, 3.0, 1e160, 1e300)]
    for part in (math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 1.0)):
        for size, at in ((1, 0), (17, 5), (4096, 4095)):
            vector = np.full(size, 0.25 + 0.5j)
            vector[at] = part
            vectors.append(vector)
    return vectors


def render(directory: Path) -> dict:
    """Moved (report, format) pairs and norm mismatches, rendered in this process."""
    cases = []  # (name, format, source, pinned digest)
    for (name, fmt), digest in pinned.BUILTIN_DIGESTS.items():
        cases.append((name, fmt, name, digest))
    config = directory / "random-schemes.config.json"
    config.write_text(json.dumps(pinned.RANDOM_SCHEMES_CONFIG))
    cases.append(("random-schemes", "csv", config, pinned.RANDOM_SCHEMES_CSV_DIGEST))
    for (shape, fmt), digest in pinned.LADDER_DIGESTS.items():
        config = directory / f"{shape}.config.json"
        params = {"random_schemes": pinned.LADDER_SHAPES[shape]}
        config.write_text(json.dumps({"scenario": "GenericQmac", "parameters": params, "seed": 7}))
        cases.append((shape, fmt, config, digest))
    forms = pinned.input_form_configs(directory)
    for (name, fmt), digest in pinned.INPUT_FORM_DIGESTS.items():
        config = directory / f"{name}.config.json"
        config.write_text(json.dumps(forms[name]))
        cases.append((name, fmt, config, digest))

    moved = sorted(
        [name, fmt]
        for name, fmt, source, digest in cases
        if pinned.report_digest(source, directory / f"{name}.{fmt}", fmt) != digest
    )
    with np.errstate(over="ignore", invalid="ignore"):
        mismatches = [
            i for i, v in enumerate(norm_vectors()) if not np.array_equal(_norm(v), np.linalg.norm(v), equal_nan=True)
        ]
    return {"reports": len(cases), "moved": moved, "norm_mismatches": mismatches}


@pytest.mark.parametrize("kernel", sorted(KERNEL_MOVES))
def test_moved_reports_under_kernel(kernel, tmp_path):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_VERBOSE="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    cores = re.findall(r"^Core: (\w+)$", done.stdout + done.stderr, re.MULTILINE)
    if not cores:
        pytest.skip("OPENBLAS_VERBOSE=2 names no core: this BLAS does not pick kernels at load time")
    if cores != [kernel]:
        pytest.skip(f"OpenBLAS loaded {cores} where {kernel} was asked for: this CPU cannot run that kernel")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["norm_mismatches"] == []
    pinned_reports = len(pinned.BUILTIN_DIGESTS) + 1 + len(pinned.LADDER_DIGESTS) + len(pinned.INPUT_FORM_DIGESTS)
    assert result["reports"] == pinned_reports
    assert {tuple(pair) for pair in result["moved"]} == KERNEL_MOVES[kernel]


if __name__ == "__main__":
    print(json.dumps(render(Path(sys.argv[1]))))
