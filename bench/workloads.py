"""The benchmark's workloads: the operations of one pass and their checks.

An operation is one call into authsim's public entry points, either
``cli.run`` on one scenario config or ``symmetry_test.acceptance_error_oracle``
on one state pair. Each one carries the check that decides whether its output
is correct. Only the standard library is imported at module level, so the
parent process can read ``NAMES`` without importing numpy.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

NAMES = ("builtin-scenarios", "classical-ladder", "qmac-ladder", "symtest-oracle")

BUILTIN_REPEATS = 5
FORMATS = ("json", "csv")

# (family, p, blocks): growing p gives large |T| with few messages, growing
# blocks gives many messages with small |T|. The pass is kept near 2 s so a
# 30 s run holds about ten of them.
CLASSICAL_LADDER = (
    ("affine", 11, 1),
    ("affine", 17, 1),
    ("affine", 23, 1),
    ("poly", 7, 2),
    ("poly", 3, 5),
)
# (dim, num_keys, num_messages, count)
QMAC_LADDER = ((2, 2, 2, 100), (4, 8, 8, 40), (8, 16, 16, 20), (16, 16, 16, 20))
# (d, n) points of the dense symmetric-subspace oracle; d**n runs to the 4096 cap.
ORACLE_LADDER = ((2, 8), (3, 5), (8, 3), (4, 6), (16, 3))
ORACLE_PAIRS = 20
ORACLE_TOL = 1e-9

# SHA-256 of every built-in report, JSON and CSV, as written by the seed
# commit 636e425. Reports are byte-stable, so any difference is a failure.
BUILTIN_DIGESTS = {
    ("affine-p5", "json"): "e24205cdc6f999c6730aa8072c9e656d6ca180e13611f02330aef5e6d3adb49b",
    ("affine-p5", "csv"): "f1b6322075fd4f0e3d34379f87477cb4c9c2c1b0e2cbc4e4067e67a22b778ac8",
    ("poly-p5-l2", "json"): "bf2c0e4dd6b4c4a7861844ffe56a83b155e96cfc60f1aeff2492c46a2b0b42a5",
    ("poly-p5-l2", "csv"): "42ec85d149ac220c0739117ded7e98b220dc5820da8d95936c060a4455d3bc4d",
    ("cs-swapless", "json"): "e98c0a5dc20e3c1a1ba7377ed7ee0274c7c86f1f5427a6808f8e53f893f82555",
    ("cs-swapless", "csv"): "77b75fd938ab555f645ccbbdb10c484d8a51c8d75ee42c98f8bed15e12cd19dd",
    ("cs-hadamard", "json"): "2ee35552c0ea08ce4c04b0fb74fa79aa9b8924c2e6c1ea76feba223cc750b271",
    ("cs-hadamard", "csv"): "9ef9351d1f0810611e24f034dda520366a903b9ebb685e464544bd8f6dfecf6f",
    ("cs-nogo-sweep", "json"): "f680aa63376637c9e51b4fdfaa81e0c4e19514c3bb2114206a2c4595a6514a84",
    ("cs-nogo-sweep", "csv"): "4a547d479f2db60c5ca0e376e8b779d293b10943601d92d46a4f69273794b805",
    ("theorem2-random", "json"): "aea1077e95a3c387dd38fbfb66d4a1e1e33dbc46b1a6a2666ad0e3ec7b5049ef",
    ("theorem2-random", "csv"): "7d3cfd60da8778da2c91e650f076a86dde2e55c9ee4b17cc4d8b9d08b091681c",
    ("symtest-grid", "json"): "8f952ba8df08e26e60f6b7e9638afa001cd1b7eea0f32609390ab5ebf3c9ec5a",
    ("symtest-grid", "csv"): "e20c1c5b93a395a331486906c357f7adb0bcab7ac2c7951acd6ad664f32bf15a",
}


@dataclass
class Op:
    """One timed call and the check of its result (None when correct)."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    output: Path | None = None


def report_problem(report: dict, params: dict) -> str | None:
    """Invariants that hold for every seed, keyed by the scenario parameters."""
    if "family" in params:
        p, blocks = params["p"], params.get("blocks", 1)
        p0 = Fraction(report["deception"]["p0"])
        p1 = Fraction(report["deception"]["p1"])
        if p0 != Fraction(1, p):
            return f"p0 = {p0}, expected 1/{p}"
        if params["family"] == "affine" and p1 != Fraction(1, p):
            return f"p1 = {p1}, expected 1/{p}"
        if p1 > Fraction(blocks, p):
            return f"p1 = {p1} exceeds {blocks}/{p}"
    if "random_schemes" in params and report["all_margins_positive"] is not True:
        return "all_margins_positive is not true"
    if "random_sweep" in params and report["simultaneously_secure_count"] != 0:
        return f"simultaneously_secure_count = {report['simultaneously_secure_count']}"
    return None


def _cli_op(cli, name, source, out, fmt, seed, params, digest=None) -> Op:
    def call():
        return cli.run(str(source), output=str(out), output_format=fmt, seed=seed, stdout=io.StringIO())

    def check(code):
        if code != 0:
            return f"exit code {code}"
        data = out.read_bytes()
        if digest is not None and hashlib.sha256(data).hexdigest() != digest:
            return "report digest mismatch"
        return report_problem(json.loads(data), params) if fmt == "json" else None

    return Op(name, call, check, out)


def _config_op(cli, tmp: Path, name: str, scenario: str, params: dict, seed: int) -> Op:
    source = tmp / f"{name}.config.json"
    source.write_text(json.dumps({"scenario": scenario, "parameters": params, "seed": seed}))
    return _cli_op(cli, name, source, tmp / f"{name}.json", "json", seed, params)


def _builtin_ops(cli, tmp, seed, smoke):
    ops = []
    for rep in range(1 if smoke else BUILTIN_REPEATS):
        for name, spec in cli.BUILTIN_SCENARIOS.items():
            for fmt in FORMATS:
                out = tmp / f"{rep}-{name}.{fmt}"
                digest = BUILTIN_DIGESTS[(name, fmt)]
                ops.append(_cli_op(cli, f"{name}.{fmt}", name, out, fmt, None, spec["parameters"], digest))
    return ops


def _classical_ops(cli, tmp, seed, smoke):
    ladder = CLASSICAL_LADDER
    if smoke:
        ladder = [next(pt for pt in ladder if pt[0] == family) for family in ("affine", "poly")]
    ops = []
    for family, p, blocks in ladder:
        params = {"family": family, "p": p}
        if family == "poly":
            params["blocks"] = blocks
        ops.append(_config_op(cli, tmp, f"{family}-p{p}-l{blocks}", "ClassicalMac", params, seed))
    return ops


def _qmac_ops(cli, tmp, seed, smoke):
    ops = []
    for dim, keys, messages, count in QMAC_LADDER[:1] if smoke else QMAC_LADDER:
        spec = {"count": count, "dim": dim, "num_keys": keys, "num_messages": messages}
        name = f"qmac-{dim}x{keys}x{messages}"
        ops.append(_config_op(cli, tmp, name, "GenericQmac", {"random_schemes": spec}, seed))
    return ops


def _oracle_ops(cli, tmp, seed, smoke):
    import numpy as np

    from authsim import symmetry_test
    from authsim.quantum_core import PureState

    rng = np.random.default_rng(seed)
    ladder = [min(ORACLE_LADDER, key=lambda pt: pt[0] ** pt[1])] if smoke else ORACLE_LADDER
    ops = []
    for d, n in ladder:
        for index in range(ORACLE_PAIRS):
            a, b = rng.standard_normal((2, d, 2)) @ np.array([1.0, 1j])
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)

            def call(a=a, b=b, d=d, n=n):
                return symmetry_test.acceptance_error_oracle(n, PureState(a, (d,)), PureState(b, (d,)))

            def check(value, a=a, b=b, n=n):
                expected = symmetry_test.acceptance_error_formula(n, min(1.0, abs(np.vdot(a, b))))
                if abs(value - expected) > ORACLE_TOL:
                    return f"oracle {value!r} differs from formula {expected!r}"
                return None

            ops.append(Op(f"oracle-d{d}-n{n}-{index}", call, check))
    return ops


_OPS_BY_WORKLOAD = {
    "builtin-scenarios": _builtin_ops,
    "classical-ladder": _classical_ops,
    "qmac-ladder": _qmac_ops,
    "symtest-oracle": _oracle_ops,
}


def build(workload: str, seed: int, smoke: bool, tmp: Path) -> list[Op]:
    """Operations of one pass; config files are written to ``tmp`` first."""
    from authsim import cli

    return _OPS_BY_WORKLOAD[workload](cli, tmp, seed, smoke)
