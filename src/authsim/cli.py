"""Command-line front end: run scenario configs, emit JSON/CSV reports.

A scenario config is a JSON document:

    {
      "scenario": "ClassicalMac" | "GenericQmac" | "CurtySantos" | "SymmetryTestSweep",
      "parameters": { ... kind-specific ... },
      "seed": 0,
      "output": {"format": "json" | "csv", "path": "report.json"}
    }

``run`` also accepts the name of a built-in demonstration scenario (see
``list``). A config is read once, where it enters: the top level and each
parameter object have a ``Spec`` of typed, ranged, defaulted keys
(``CONFIG_SPEC``, one per kind in ``RUNNERS``), applied by
``spec.read_spec``, which rejects unknown keys; the ``--seed``, ``--format``
and ``--output`` overrides are read by the fields of the keys they replace.
The ``MAX_*`` report caps and the output directory are checked before any
computation; the library checks its own work caps. Reports embed the seed and
a SHA-256 of the config as written; identical configs produce byte-identical
artifacts. Exit codes: 0 success, 1 usage/parameter errors, 2 invariant failures.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import classical_mac, curty_santos, qmac_framework, symmetry_test
from .errors import InvariantViolation, ParameterError
from .quantum_core import UnitaryOperator, _kron, haar_unitaries
from .reporting import config_sha256, format_float, fraction_str, jsonable, render_csv, render_json
from .spec import Field, Spec, read_spec, read_value

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)

NAMED_UNITARIES = {
    "identity": lambda: np.eye(4, dtype=complex),
    "xi": lambda: _kron(_X, np.eye(2, dtype=complex)),
    "hh": lambda: _kron(_H, _H),
}

# Caps on what a report holds, checked before any computation starts; the work caps are the library's own.
MAX_COUNT = 10_000  # draws of random_schemes and random_sweep: one report row each
MAX_SWEEP_POINTS = 2**16  # |T values| * |delta_fracs| * |lambda_fracs|
MAX_MESSAGE_SPACE_BITS = 2**20  # message_space_bits, used as 2**bits
_EXACT_FLOAT_INT = 2**53  # integers the symmetry-test formulas turn into floats

CLASSICAL_MAC_SPEC = Spec({
    "family": Field(str, "affine", choices=("affine", "poly")),
    "p": classical_mac.MODULUS,
    "blocks": classical_mac.BLOCKS._replace(default=1, only_with=("family", "poly")),
})
_RANDOM_SCHEMES_SPEC = Spec(dict(qmac_framework.RANDOM_SHAPE, count=Field(int, 100, lo=1, hi=MAX_COUNT)))
_RULE_SPEC = Spec({
    "kind": Field(str, "projective", choices=("projective", "symmetry-test")),
    "copies": Field(int, 2, lo=2, hi=_EXACT_FLOAT_INT, only_with=("kind", "symmetry-test")),
})
# Random schemes are always scored under the projective rule: a rule next to them is an error.
GENERIC_QMAC_SPEC = Spec({
    "scheme": Field(dict),
    "scheme_path": Field(str),
    "random_schemes": Field(dict, spec=_RANDOM_SCHEMES_SPEC),
    "rule": Field(dict, {}, spec=_RULE_SPEC),
}, one_of=(("random_schemes", "scheme", "scheme_path"), ("random_schemes", "rule")))
CURTY_SANTOS_SPEC = Spec({
    "unitary_name": Field(str, choices=tuple(NAMED_UNITARIES)),
    "unitary": Field(dict),
    "instance": Field(dict),
    "random_sweep": Field(dict, spec=Spec({"count": Field(int, 200, lo=1, hi=MAX_COUNT)})),
}, one_of=(("random_sweep", "unitary_name", "unitary", "instance"),))
_TAG_COUNT = Field(int, lo=2, hi=_EXACT_FLOAT_INT)
SYMMETRY_SWEEP_SPEC = Spec({
    "t_values": Field(list, item=_TAG_COUNT),
    "t_min": _TAG_COUNT._replace(default=2),
    "t_max": _TAG_COUNT._replace(default=16),
    "delta_fracs": Field(list, [0.5, 1.0], item=Field(float, lo=0, hi=1)),
    "lambda_fracs": Field(list, [0.0, 0.5], item=Field(float, lo=0, hi=1)),
    "d": Field(int, 2, lo=1),
    "message_space_bits": Field(int, 64, lo=2, hi=MAX_MESSAGE_SPACE_BITS),
}, one_of=(("t_values", "t_min/t_max"),))


class ScenarioConfig(NamedTuple):
    scenario_kind: str
    parameters: dict
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None
    base_dir: Path | None = None  # for resolving referenced files
    name: str = "scenario"

    @property
    def sha256(self) -> str:
        return config_sha256(self.scenario_kind, self.parameters, self.seed)


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ParameterError(f"cannot read {what} {path} as UTF-8 JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# built-in demonstration scenarios

BUILTIN_SCENARIOS = {
    "affine-p5": {
        "description": "strongly universal affine family over Z_5: p0 = p1 = 1/5",
        "scenario": "ClassicalMac",
        "parameters": {"family": "affine", "p": 5},
    },
    "poly-p5-l2": {
        "description": "2/5-ASU polynomial family over Z_5, two message blocks",
        "scenario": "ClassicalMac",
        "parameters": {"family": "poly", "p": 5, "blocks": 2},
    },
    "cs-swapless": {
        "description": "singlet-keyed 1-bit scheme with U = X(x)I: floor impersonation, certain substitution",
        "scenario": "CurtySantos",
        "parameters": {"unitary_name": "xi"},
    },
    "cs-hadamard": {
        "description": "singlet-keyed 1-bit scheme with U = H(x)H: impersonation (2+sqrt2)/4",
        "scenario": "CurtySantos",
        "parameters": {"unitary_name": "hh"},
    },
    "cs-nogo-sweep": {
        "description": "200 random tagging unitaries: floor impersonation and blocked substitution never coexist",
        "scenario": "CurtySantos",
        "parameters": {"random_sweep": {"count": 200}},
    },
    "theorem2-random": {
        "description": "100 random 2-key qubit schemes: impersonation margin above 1/|T| every time",
        "scenario": "GenericQmac",
        "parameters": {"random_schemes": {"count": 100, "dim": 2, "num_keys": 2, "num_messages": 2}},
    },
    "symtest-grid": {
        "description": "copy counts and key budgets over |T| = 2..16: linear quantum vs logarithmic classical key growth",
        "scenario": "SymmetryTestSweep",
        "parameters": {
            "t_min": 2,
            "t_max": 16,
            "delta_fracs": [0.5, 1.0],
            "lambda_fracs": [0.0, 0.5],
            "d": 2,
            "message_space_bits": 4,
        },
    },
}


# ---------------------------------------------------------------------------
# scenario runners: (checked parameters, config) -> plain-JSON report: str,
# int, float, bool, None, lists, tuples and str-keyed dicts only


def _run_classical_mac(params: dict, config: ScenarioConfig) -> dict:
    p, blocks = params["p"], params.get("blocks", 1)
    classical_mac.check_caps(p * p, p**blocks, p)  # before the p**blocks messages are built
    if params["family"] == "poly":
        family = classical_mac.make_poly_family(p, blocks)
    else:
        family = classical_mac.make_affine_family(p)
    report = classical_mac.deception_probabilities(family)
    tag_count = len(family.tag_space)
    bound_bits = classical_mac.key_length_lower_bound(1, classical_mac.Fraction(1, tag_count))
    return {
        "family": {
            "name": family.name,
            "kind": family.family_kind.value,
            "epsilon": None if family.epsilon is None else fraction_str(family.epsilon),
            "key_space_size": family.key_space_size,
            "message_space_size": len(family.message_space),
            "tag_space_size": tag_count,
        },
        "deception": jsonable(vars(report)),
        "theorem1": {
            "epsilon": f"1/{tag_count}",
            "bound_bits": bound_bits,
            "actual_key_bits": math.log2(family.key_space_size),
        },
    }


def _run_generic_qmac(params: dict, config: ScenarioConfig) -> dict:
    if "random_schemes" in params:
        shape = params["random_schemes"]
        # the spec fills every key, and its keys are random_scheme_reports' parameter names
        reports = qmac_framework.random_scheme_reports(np.random.default_rng(config.seed), **shape)
        rows = [
            {"index": i, "lambda_max": r.max_overlap, "p0": r.p0, "classical_floor": r.classical_floor, "margin": r.margin}
            for i, r in enumerate(reports)
        ]
        return {
            "random_schemes": shape,
            "all_margins_positive": all(row["margin"] > 0.0 for row in rows),
            "min_margin": min(row["margin"] for row in rows),
            "rows": rows,
        }

    if "scheme" in params:
        doc, where = params["scheme"], "parameters.scheme"
    else:
        path = Path(params["scheme_path"])
        if config.base_dir is not None and not path.is_absolute():
            path = config.base_dir / path
        doc, where = _read_json(path, "scheme file"), str(path)
    scheme = qmac_framework.scheme_from_json_dict(doc, where)
    rule = qmac_framework.DecisionRule(**params["rule"])
    result = qmac_framework.verify_theorem2(scheme)
    # verify_theorem2 already scored the attack under the projective rule
    attack = result.attack if rule.kind == "projective" else qmac_framework.impersonation_deception(scheme, rule)
    return {
        "scheme_name": scheme.name,
        "tags_per_message": scheme.tags_per_message,
        "rule": {"kind": rule.kind, "copies": rule.copies},
        "theorem2": {
            "p0": result.p0,
            "classical_floor": result.classical_floor,
            "margin": result.margin,
            "max_overlap": result.max_overlap,
            "classical_equivalent": result.classical_equivalent,
            "p0_average": result.attack.deception_probability_average,
            "witness_message": result.attack.witness_message,
            "witness_labels": list(result.attack.witness_labels) if result.attack.witness_labels else None,
            "witness_strategy": result.attack.witness_strategy,
        },
        "impersonation": {
            "deception_probability": attack.deception_probability,
            "deception_probability_average": attack.deception_probability_average,
            "classical_floor": attack.classical_floor,
            "witness_message": attack.witness_message,
            "witness_labels": list(attack.witness_labels) if attack.witness_labels else None,
        },
    }


def _cs_instance_report(instance: curty_santos.CurtySantosInstance) -> dict:
    witness, nogo, eigenvalues = curty_santos.analyze_instance(instance)
    cond13 = nogo.condition_13
    honest = [
        {
            "message": trace.message,
            "outcome_distribution": trace.bob_outcome_distribution.tolist(),
            "accepted_probability": trace.accepted_probability,
            "factorization_residual": trace.factorization_residual,
        }
        for trace in (curty_santos.honest_run(instance, m) for m in (0, 1))
    ]
    return {
        "optimal_impersonation": nogo.impersonation_probability,
        "impersonation_witness": [[z.real, z.imag] for z in witness.amplitudes.tolist()],
        "attack_operator_eigenvalues": eigenvalues.tolist(),
        "substitution_conclusive": list(nogo.substitution_conclusive),
        "condition13": cond13.holds,
        "condition13_per_message": list(cond13.per_message),
        "condition14_per_message": list(nogo.condition_14_per_message),
        "diagonal_overlaps": list(cond13.diagonal_overlaps),
        "honest_runs": honest,
        "no_go": {
            "impersonation_at_floor": nogo.impersonation_at_floor,
            "substitution_blocked": nogo.substitution_blocked,
            "simultaneously_secure": nogo.simultaneously_secure,
            "witness_message": nogo.witness_message,
            "witness_overlap": nogo.witness_overlap,
        },
    }


def _run_curty_santos(params: dict, config: ScenarioConfig) -> dict:
    if "random_sweep" in params:
        count = params["random_sweep"]["count"]
        verdicts = curty_santos.verdict_columns(haar_unitaries(count, (2, 2), np.random.default_rng(config.seed)))
        impersonation, secure = verdicts["impersonation_probability"], verdicts["simultaneously_secure"]
        rows = [
            {"index": index, "impersonation": p, "conclusive": c, "at_floor": f, "blocked": b, "secure": s}
            for index, (p, c, f, b, s) in enumerate(zip(
                impersonation,
                verdicts["substitution_conclusive"],
                verdicts["impersonation_at_floor"],
                verdicts["substitution_blocked"],
                secure,
            ))
        ]
        return {
            "instances": count,
            "simultaneously_secure_count": sum(secure),
            "min_impersonation": min(impersonation),
            "rows": rows,
        }

    if "unitary_name" in params:
        matrix = NAMED_UNITARIES[params["unitary_name"]]()
        instance = curty_santos.CurtySantosInstance(tag_unitary=UnitaryOperator(matrix, (2, 2)))
    elif "instance" in params:
        instance = curty_santos.instance_from_json_dict(params["instance"], "parameters.instance")
    else:  # read as the instance {"unitary": ...} at "parameters", so errors name parameters.unitary
        instance = curty_santos.instance_from_json_dict({"unitary": params["unitary"]}, "parameters")
    report = _cs_instance_report(instance)
    if "unitary_name" in params:
        report["unitary_name"] = params["unitary_name"]
    return report


def _run_symmetry_sweep(params: dict, config: ScenarioConfig) -> dict:
    t_values = params["t_values"] if "t_values" in params else range(params["t_min"], params["t_max"] + 1)
    delta_fracs, lambda_fracs = params["delta_fracs"], params["lambda_fracs"]
    points = len(t_values) * len(delta_fracs) * len(lambda_fracs)
    if not 1 <= points <= MAX_SWEEP_POINTS:
        raise ParameterError(
            f"the sweep grid holds {points} points; it must hold 1 to {MAX_SWEEP_POINTS} (is t_min > t_max?)"
        )
    bits = params["message_space_bits"]
    result = symmetry_test.sweep(t_values, delta_fracs, lambda_fracs, d=params["d"], message_space_size=2**bits)
    return {
        "grid": {
            "t_values": list(t_values),
            "delta_fracs": delta_fracs,
            "lambda_fracs": lambda_fracs,
            "d": params["d"],
            "message_space_bits": bits,
        },
        "rows": [r._asdict() for r in result.rows],
        "crossover": [c._asdict() for c in result.crossovers],
    }


RUNNERS = {
    "ClassicalMac": (CLASSICAL_MAC_SPEC, _run_classical_mac),
    "GenericQmac": (GENERIC_QMAC_SPEC, _run_generic_qmac),
    "CurtySantos": (CURTY_SANTOS_SPEC, _run_curty_santos),
    "SymmetryTestSweep": (SYMMETRY_SWEEP_SPEC, _run_symmetry_sweep),
}
SCENARIO_KINDS = tuple(RUNNERS)
_OUTPUT_SPEC = Spec({"format": Field(str, "json", choices=("json", "csv")), "path": Field(str, "")})
CONFIG_SPEC = Spec({
    "scenario": Field(str, choices=SCENARIO_KINDS),
    "parameters": Field(dict, {}),
    "seed": Field(int, 0, lo=0, hi=2**64 - 1),
    "output": Field(dict, {}, spec=_OUTPUT_SPEC),
})
_OVERRIDES = {  # ScenarioConfig attribute -> (its flag, the field of the config key it overrides)
    "seed": ("--seed", CONFIG_SPEC.fields["seed"]),
    "output_format": ("--format", _OUTPUT_SPEC.fields["format"]),
    "output_path": ("--output", _OUTPUT_SPEC.fields["path"]),
}


# ---------------------------------------------------------------------------
# orchestration


def _flatten(prefix: str, obj, out: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    elif isinstance(obj, (list, tuple)):
        out.append((prefix, json.dumps(obj, separators=(",", ":"))))
    elif isinstance(obj, float):
        out.append((prefix, format_float(obj)))
    else:
        out.append((prefix, obj))


def _write_artifact(config: ScenarioConfig, report: dict, path: Path) -> None:
    if config.output_format == "json":
        path.write_text(render_json(report), encoding="utf-8")
        return
    if config.scenario_kind == "SymmetryTestSweep":
        columns = symmetry_test.SweepRow._fields
        header = list(columns) + ["seed", "config_sha256"]
        stamp = [config.seed, config.sha256]
        csv_rows = [[row[c] for c in columns] + stamp for row in report["rows"]]
        path.write_text(render_csv(header, csv_rows), encoding="utf-8")
        return
    flat: list = []
    _flatten("", report, flat)
    path.write_text(render_csv(("key", "value"), flat), encoding="utf-8")


def _summarize(report: dict) -> list[str]:
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, float):
            lines.append(f"  {key}: {format_float(value)}")
        elif isinstance(value, (str, int)) or value is None:  # bool is an int
            lines.append(f"  {key}: {value}")
        elif isinstance(value, list):
            lines.append(f"  {key}: [{len(value)} entries]")
        elif isinstance(value, dict):
            inner = ", ".join(
                f"{k}={format_float(v) if isinstance(v, float) else v}"
                for k, v in sorted(value.items())
                if isinstance(v, (str, int, float)) or v is None
            )
            lines.append(f"  {key}: {{{inner}}}")
    return lines


def load_config(source: str) -> ScenarioConfig:
    """Resolve a config file path or a built-in scenario name."""
    path = Path(source)
    if path.is_file():
        doc, base_dir, name = _read_json(path, "config"), path.resolve().parent, path.stem
    elif source in BUILTIN_SCENARIOS:
        builtin = BUILTIN_SCENARIOS[source]
        doc, base_dir, name = {"scenario": builtin["scenario"], "parameters": builtin["parameters"]}, None, source
    else:
        raise ParameterError(f"{source!r} is neither a readable config file nor a built-in scenario")
    top = read_spec(CONFIG_SPEC, doc, "config")
    output = top["output"]
    # parameters stay as written, without defaults: config_sha256 hashes them
    return ScenarioConfig(
        top["scenario"], top["parameters"], top["seed"], output["format"], output["path"], base_dir, name
    )


def run(
    source: str,
    output: str | None = None,
    output_format: str | None = None,
    seed: int | None = None,
    stdout=None,
) -> int:
    """Execute one scenario; returns the process exit code."""
    stdout = stdout or sys.stdout
    given = {"seed": seed, "output_format": output_format, "output_path": output}
    try:
        overrides = {
            key: read_value(field, given[key], flag)
            for key, (flag, field) in _OVERRIDES.items()
            if given[key] is not None
        }
        config = load_config(source)._replace(**overrides)
        spec, runner = RUNNERS[config.scenario_kind]
        params = read_spec(spec, config.parameters, "parameters")
        path = Path(config.output_path or f"{config.name}.{config.output_format}")
        if path.is_dir() or not path.parent.is_dir():
            raise ParameterError(f"cannot write the report to {path}: not a file in an existing directory")

        report = runner(params, config)
        report["scenario"] = config.scenario_kind
        report["seed"] = config.seed
        report["config_sha256"] = config.sha256

        try:
            _write_artifact(config, report, path)
        except OSError as exc:
            raise ParameterError(f"cannot write the report to {path}: {exc}") from exc
        print(f"{config.scenario_kind} ({config.name}), seed {config.seed}", file=stdout)
        for line in _summarize(report):
            print(line, file=stdout)
        print(f"report written to {path}", file=stdout)
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=stdout)
        return 1
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=stdout)
        return 2


def main(argv=None) -> int:
    import argparse  # here, not at the top: ``run`` needs no parser, and importing one costs every caller

    parser = argparse.ArgumentParser(
        prog="authsim",
        description="Deception-probability analysis of classical and quantum authentication schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a scenario config file or built-in scenario")
    run_parser.add_argument("config", help="path to a scenario JSON file, or a built-in name")
    run_parser.add_argument("--output", help="artifact path (default: <scenario>.<format>)")
    run_parser.add_argument("--format", choices=("json", "csv"), help="artifact format")
    run_parser.add_argument("--seed", type=int, help="override the config seed")

    sub.add_parser("list", help="list built-in demonstration scenarios")

    args = parser.parse_args(argv)
    if args.command == "list":
        width = max(map(len, BUILTIN_SCENARIOS))
        for name, spec in BUILTIN_SCENARIOS.items():
            print(f"{name:<{width}}  [{spec['scenario']}] {spec['description']}")
        return 0
    return run(args.config, output=args.output, output_format=args.format, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
