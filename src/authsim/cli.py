"""Command-line front end: run scenario configs, emit JSON/CSV reports.

A scenario config is a JSON document:

    {
      "scenario": "ClassicalMac" | "GenericQmac" | "CurtySantos" | "SymmetryTestSweep",
      "parameters": { ... kind-specific ... },
      "seed": 0,
      "output": {"format": "json" | "csv", "path": "report.json"}
    }

``run`` also accepts the name of a built-in demonstration scenario (see
``list``). Reports embed the seed and a SHA-256 of the effective config;
identical configs produce byte-identical artifacts. Exit codes: 0 success,
1 usage/parameter errors, 2 invariant-failure diagnostics.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classical_mac, curty_santos, qmac_framework, symmetry_test
from .errors import InvariantViolation, ParameterError
from .quantum_core import UnitaryOperator, random_unitary
from .reporting import (
    complex_vector_jsonable,
    config_sha256,
    format_float,
    jsonable,
    render_csv,
    render_json,
)

SCENARIO_KINDS = ("ClassicalMac", "GenericQmac", "CurtySantos", "SymmetryTestSweep")

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)

NAMED_UNITARIES = {
    "identity": lambda: np.eye(4, dtype=complex),
    "xi": lambda: np.kron(_X, np.eye(2, dtype=complex)),
    "hh": lambda: np.kron(_H, _H),
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_kind: str
    parameters: dict
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None
    base_dir: Path | None = None  # for resolving referenced files
    name: str = "scenario"

    def __post_init__(self):
        if self.scenario_kind not in SCENARIO_KINDS:
            raise ParameterError(
                f"unknown scenario {self.scenario_kind!r}; expected one of {SCENARIO_KINDS}"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.output_format not in ("json", "csv"):
            raise ParameterError(f"output format must be json or csv, got {self.output_format!r}")

    @property
    def sha256(self) -> str:
        return config_sha256(self.scenario_kind, self.parameters, self.seed)


def _config_from_dict(doc: dict, base_dir: Path | None, name: str) -> ScenarioConfig:
    if not isinstance(doc, dict) or "scenario" not in doc:
        raise ParameterError("config document must be an object with a 'scenario' field")
    output = doc.get("output") or {}
    return ScenarioConfig(
        scenario_kind=doc["scenario"],
        parameters=doc.get("parameters") or {},
        seed=int(doc.get("seed", 0)),
        output_format=output.get("format", "json"),
        output_path=output.get("path"),
        base_dir=base_dir,
        name=name,
    )


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


def list_scenarios() -> dict:
    """Catalog of built-in scenarios: name -> {kind, description, parameters}."""
    return {
        name: {
            "kind": spec["scenario"],
            "description": spec["description"],
            "parameters": spec["parameters"],
        }
        for name, spec in BUILTIN_SCENARIOS.items()
    }


# ---------------------------------------------------------------------------
# scenario runners (each returns a JSON-ready report dict)


def _run_classical_mac(params: dict, seed: int) -> dict:
    family_kind = params.get("family", "affine")
    p = params.get("p")
    if family_kind == "affine":
        family = classical_mac.make_affine_family(p)
    elif family_kind == "poly":
        family = classical_mac.make_poly_family(p, params.get("blocks", 1))
    else:
        raise ParameterError(f"unknown family {family_kind!r}; expected 'affine' or 'poly'")
    report = classical_mac.deception_probabilities(family)
    tag_count = len(family.tag_space)
    bound_bits = classical_mac.key_length_lower_bound(1, classical_mac.Fraction(1, tag_count))
    return {
        "family": {
            "name": family.name,
            "kind": family.family_kind.value,
            "epsilon": family.epsilon,
            "key_space_size": family.key_space_size,
            "message_space_size": len(family.message_space),
            "tag_space_size": tag_count,
        },
        "deception": report.to_json_dict(),
        "theorem1": {
            "epsilon": f"1/{tag_count}",
            "bound_bits": bound_bits,
            "actual_key_bits": math.log2(family.key_space_size),
        },
    }


def _load_decision_rule(params: dict) -> qmac_framework.DecisionRule:
    rule = params.get("rule")
    if rule is None:
        return qmac_framework.DecisionRule.projective()
    kind = rule.get("kind", "projective")
    if kind == "projective":
        return qmac_framework.DecisionRule.projective()
    if kind == "symmetry-test":
        return qmac_framework.DecisionRule.symmetry_test(int(rule.get("copies", 2)))
    raise ParameterError(f"unknown decision rule {kind!r}")


def _theorem2_entry(report: qmac_framework.Theorem2Report) -> dict:
    attack = report.attack
    return {
        "p0": report.p0,
        "classical_floor": report.classical_floor,
        "margin": report.margin,
        "max_overlap": report.max_overlap,
        "classical_equivalent": report.classical_equivalent,
        "p0_average": attack.deception_probability_average,
        "witness_message": attack.witness_message,
        "witness_labels": list(attack.witness_labels) if attack.witness_labels else None,
        "witness_strategy": attack.witness_strategy,
    }


def _spec_int(spec: dict, name: str, default: int, minimum: int) -> int:
    """Integer field of a parameter object; bools and floats are rejected."""
    value = spec.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _run_generic_qmac(params: dict, seed: int, base_dir: Path | None) -> dict:
    random_spec = params.get("random_schemes")
    if random_spec is not None:
        if not isinstance(random_spec, dict):
            raise ParameterError(f"random_schemes must be an object, got {random_spec!r}")
        count = _spec_int(random_spec, "count", 100, 1)
        dim = _spec_int(random_spec, "dim", 2, 1)
        num_keys = _spec_int(random_spec, "num_keys", 2, 1)
        num_messages = _spec_int(random_spec, "num_messages", 2, 2)
        rng = np.random.default_rng(seed)
        rows = []
        all_positive = True
        min_margin = None
        for index in range(count):
            # No name holds the scheme, so it is freed before the next one is drawn.
            result = qmac_framework.verify_theorem2(
                qmac_framework.random_scheme(rng, dim=dim, num_keys=num_keys, num_messages=num_messages)
            )
            rows.append(
                {
                    "index": index,
                    "lambda_max": result.max_overlap,
                    "p0": result.p0,
                    "classical_floor": result.classical_floor,
                    "margin": result.margin,
                }
            )
            all_positive = all_positive and result.margin > 0.0
            min_margin = result.margin if min_margin is None else min(min_margin, result.margin)
        return {
            "random_schemes": {
                "count": count,
                "dim": dim,
                "num_keys": num_keys,
                "num_messages": num_messages,
            },
            "all_margins_positive": all_positive,
            "min_margin": min_margin,
            "rows": rows,
        }

    if "scheme" in params:
        scheme = qmac_framework.scheme_from_json_dict(params["scheme"])
    elif "scheme_path" in params:
        path = Path(params["scheme_path"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise ParameterError(f"scheme file not found: {path}")
        scheme = qmac_framework.scheme_from_json_dict(json.loads(path.read_text()))
    else:
        raise ParameterError("GenericQmac needs 'scheme', 'scheme_path', or 'random_schemes'")

    rule = _load_decision_rule(params)
    result = qmac_framework.verify_theorem2(scheme)
    attack = qmac_framework.impersonation_deception(scheme, rule)
    return {
        "scheme_name": scheme.name,
        "tags_per_message": scheme.tags_per_message,
        "rule": {"kind": rule.kind, "copies": rule.copies},
        "theorem2": _theorem2_entry(result),
        "impersonation": {
            "deception_probability": attack.deception_probability,
            "deception_probability_average": attack.deception_probability_average,
            "classical_floor": attack.classical_floor,
            "witness_message": attack.witness_message,
            "witness_labels": list(attack.witness_labels) if attack.witness_labels else None,
        },
    }


def _cs_instance_report(instance: curty_santos.CurtySantosInstance) -> dict:
    attack = curty_santos.optimal_impersonation(instance)
    cond13 = curty_santos.condition_13_holds(instance)
    nogo = curty_santos.incompatibility_report(instance)
    eigenvalues = np.linalg.eigvalsh(curty_santos.attack_operator(instance).matrix)
    honest = []
    for m in (0, 1):
        trace = curty_santos.honest_run(instance, m)
        honest.append(
            {
                "message": m,
                "outcome_distribution": trace.bob_outcome_distribution,
                "accepted_probability": trace.accepted_probability,
                "factorization_residual": trace.factorization_residual,
            }
        )
    return {
        "optimal_impersonation": attack.deception_probability,
        "impersonation_witness": complex_vector_jsonable(attack.witness_state.amplitudes),
        "attack_operator_eigenvalues": [float(v) for v in eigenvalues],
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


def _run_curty_santos(params: dict, seed: int) -> dict:
    sweep_spec = params.get("random_sweep")
    if sweep_spec is not None:
        count = int(sweep_spec.get("count", 200))
        rng = np.random.default_rng(seed)
        rows = []
        secure_count = 0
        min_impersonation = None
        for index in range(count):
            instance = curty_santos.CurtySantosInstance(tag_unitary=random_unitary((2, 2), rng))
            nogo = curty_santos.incompatibility_report(instance)
            secure_count += int(nogo.simultaneously_secure)
            p = nogo.impersonation_probability
            min_impersonation = p if min_impersonation is None else min(min_impersonation, p)
            rows.append(
                {
                    "index": index,
                    "impersonation": p,
                    "conclusive": list(nogo.substitution_conclusive),
                    "at_floor": nogo.impersonation_at_floor,
                    "blocked": nogo.substitution_blocked,
                    "secure": nogo.simultaneously_secure,
                }
            )
        return {
            "instances": count,
            "simultaneously_secure_count": secure_count,
            "min_impersonation": min_impersonation,
            "rows": rows,
        }

    if "unitary_name" in params:
        name = params["unitary_name"]
        if name not in NAMED_UNITARIES:
            raise ParameterError(f"unknown unitary {name!r}; expected one of {sorted(NAMED_UNITARIES)}")
        instance = curty_santos.CurtySantosInstance(
            tag_unitary=UnitaryOperator(NAMED_UNITARIES[name](), (2, 2))
        )
        report = _cs_instance_report(instance)
        report["unitary_name"] = name
        return report
    if "unitary" in params:
        instance = curty_santos.instance_from_json_dict({"unitary": params["unitary"]})
        return _cs_instance_report(instance)
    if "instance" in params:
        instance = curty_santos.instance_from_json_dict(params["instance"])
        return _cs_instance_report(instance)
    raise ParameterError("CurtySantos needs 'unitary_name', 'unitary', 'instance', or 'random_sweep'")


def _run_symmetry_sweep(params: dict, seed: int) -> tuple[dict, list]:
    if "t_values" in params:
        t_values = [int(t) for t in params["t_values"]]
    else:
        t_values = list(range(int(params.get("t_min", 2)), int(params.get("t_max", 16)) + 1))
    delta_fracs = tuple(float(f) for f in params.get("delta_fracs", (0.5, 1.0)))
    lambda_fracs = tuple(float(f) for f in params.get("lambda_fracs", (0.0, 0.5)))
    d = int(params.get("d", 2))
    bits = int(params.get("message_space_bits", 64))
    message_space_size = 2**bits

    rows = symmetry_test.sweep(
        t_values,
        delta_fracs=delta_fracs,
        lambda_fracs=lambda_fracs,
        d=d,
        message_space_size=message_space_size,
    )

    crossovers = []
    for dfrac in delta_fracs:
        for lfrac in lambda_fracs:
            series = symmetry_test.sweep(
                t_values, (dfrac,), (lfrac,), d=d, message_space_size=message_space_size
            )
            first = next(
                (r.t_size for r in series if r.key_bits_quantum > r.key_bits_classical_ref), None
            )
            crossovers.append(
                {"delta_frac": dfrac, "lambda_frac": lfrac, "first_quantum_exceeds_classical": first}
            )

    report = {
        "grid": {
            "t_values": t_values,
            "delta_fracs": list(delta_fracs),
            "lambda_fracs": list(lambda_fracs),
            "d": d,
            "message_space_bits": bits,
        },
        "rows": [
            {
                "T_size": r.t_size,
                "delta": r.delta,
                "lambda_max": r.lambda_max,
                "n_real": r.n_real,
                "n_ceil": r.n_ceil,
                "P0": r.p0,
                "key_bits_quantum": r.key_bits_quantum,
                "key_bits_classical_ref": r.key_bits_classical_ref,
            }
            for r in rows
        ],
        "crossover": crossovers,
    }
    return report, rows


# ---------------------------------------------------------------------------
# orchestration


def _flatten(prefix: str, obj, out: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    elif isinstance(obj, list):
        out.append((prefix, json.dumps(obj, separators=(",", ":"))))
    elif isinstance(obj, float):
        out.append((prefix, format_float(obj)))
    else:
        out.append((prefix, obj))


def _write_artifact(config: ScenarioConfig, report: dict, sweep_rows, path: Path) -> None:
    if config.output_format == "json":
        path.write_text(render_json(report), encoding="utf-8")
        return
    if sweep_rows is not None:
        header = list(symmetry_test.SWEEP_COLUMNS) + ["seed", "config_sha256"]
        csv_rows = [list(row) + [config.seed, config.sha256] for row in sweep_rows]
        path.write_text(render_csv(header, csv_rows), encoding="utf-8")
        return
    flat: list = []
    _flatten("", jsonable(report), flat)
    path.write_text(render_csv(("key", "value"), flat), encoding="utf-8")


def _summarize(report: dict) -> list[str]:
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, float):
            lines.append(f"  {key}: {format_float(value)}")
        elif isinstance(value, (str, int, bool)) or value is None:
            lines.append(f"  {key}: {value}")
        elif isinstance(value, list):
            lines.append(f"  {key}: [{len(value)} entries]")
        elif isinstance(value, dict):
            inner = ", ".join(
                f"{k}={format_float(v) if isinstance(v, float) else v}"
                for k, v in sorted(value.items())
                if isinstance(v, (str, int, float, bool)) or v is None
            )
            lines.append(f"  {key}: {{{inner}}}")
    return lines


def load_config(source: str) -> ScenarioConfig:
    """Resolve a config file path or a built-in scenario name."""
    path = Path(source)
    if path.is_file():
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config {path} is not valid JSON: {exc}") from exc
        return _config_from_dict(doc, path.resolve().parent, path.stem)
    if source in BUILTIN_SCENARIOS:
        spec = BUILTIN_SCENARIOS[source]
        return _config_from_dict(
            {"scenario": spec["scenario"], "parameters": spec["parameters"]}, None, source
        )
    raise ParameterError(f"{source!r} is neither a readable config file nor a built-in scenario")


def run(
    source: str,
    output: str | None = None,
    output_format: str | None = None,
    seed: int | None = None,
    stdout=None,
) -> int:
    """Execute one scenario; returns the process exit code."""
    stdout = stdout or sys.stdout
    try:
        config = load_config(source)
        if seed is not None or output_format is not None or output is not None:
            config = ScenarioConfig(
                scenario_kind=config.scenario_kind,
                parameters=config.parameters,
                seed=config.seed if seed is None else seed,
                output_format=config.output_format if output_format is None else output_format,
                output_path=config.output_path if output is None else output,
                base_dir=config.base_dir,
                name=config.name,
            )

        sweep_rows = None
        if config.scenario_kind == "ClassicalMac":
            report = _run_classical_mac(config.parameters, config.seed)
        elif config.scenario_kind == "GenericQmac":
            report = _run_generic_qmac(config.parameters, config.seed, config.base_dir)
        elif config.scenario_kind == "CurtySantos":
            report = _run_curty_santos(config.parameters, config.seed)
        else:
            report, sweep_rows = _run_symmetry_sweep(config.parameters, config.seed)

        report["scenario"] = config.scenario_kind
        report["seed"] = config.seed
        report["config_sha256"] = config.sha256

        path = Path(config.output_path or f"{config.name}.{config.output_format}")
        _write_artifact(config, report, sweep_rows, path)
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
        catalog = list_scenarios()
        width = max(len(name) for name in catalog)
        for name, entry in catalog.items():
            print(f"{name:<{width}}  [{entry['kind']}] {entry['description']}")
        return 0
    return run(args.config, output=args.output, output_format=args.format, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
