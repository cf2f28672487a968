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
(``CONFIG_SPEC``, one per kind in ``RUNNERS``), applied by ``read_spec``,
which rejects unknown keys. Inline ``scheme``, ``unitary`` and ``instance``
documents go to their own loaders.
The ``MAX_*`` work caps and the output directory are checked before any
computation. Reports embed the seed and a SHA-256 of the config as written;
identical configs produce byte-identical artifacts. Exit codes: 0 success,
1 usage/parameter errors, 2 invariant-failure diagnostics.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import classical_mac, curty_santos, qmac_framework, symmetry_test
from .errors import InvariantViolation, ParameterError
from .quantum_core import MAX_TOTAL_DIMENSION, UnitaryOperator, random_unitaries
from .reporting import config_sha256, format_float, jsonable, render_csv, render_json

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)

NAMED_UNITARIES = {
    "identity": lambda: np.eye(4, dtype=complex),
    "xi": lambda: np.kron(_X, np.eye(2, dtype=complex)),
    "hh": lambda: np.kron(_H, _H),
}

# Work caps, checked before any computation starts.
MAX_COUNT = 10_000  # draws of random_schemes and random_sweep
MAX_SCHEME_ENTRIES = 2**22  # num_keys * num_messages * dim**2 of one random scheme (64 MiB)
MAX_SWEEP_POINTS = 2**16  # |T values| * |delta_fracs| * |lambda_fracs|
MAX_MESSAGE_SPACE_BITS = 2**20  # message_space_bits, used as 2**bits
_EXACT_FLOAT_INT = 2**53  # integers the symmetry-test formulas turn into floats


@dataclass(frozen=True)
class Field:
    """One key of a config object: ``type`` is int (never bool), float (any
    number, read as a float), str, dict, list (items read by ``item``) or
    object (checked later); ``lo``/``hi`` are inclusive. A key without a
    default is required unless a one-of group governs it. ``only_with`` =
    (key, value) allows the key, and gives it its default, only where an
    earlier key of the object reads that value."""

    type: type
    default: object = None
    lo: float | None = None
    hi: float | None = None
    choices: tuple = ()
    spec: Spec | None = None
    item: Field | None = None
    only_with: tuple = ()


@dataclass(frozen=True)
class Spec:
    """The keys of one config object. A one-of group lists alternatives (a
    key, or keys joined by '/'): at most one may be given, and exactly one
    unless some alternative has defaults for all its keys."""

    fields: dict
    one_of: tuple = ()


_TYPE_NAMES = {
    int: "an integer", float: "a number", str: "a string", dict: "an object", list: "a list"
}


def _read_value(field: Field, value, where: str):
    if field.type is object:
        return value
    accepted = (int, float) if field.type is float else field.type
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ParameterError(f"{where} must be {_TYPE_NAMES[field.type]}, got {value!r}")
    if field.spec is not None:
        return read_spec(field.spec, value, where)
    if field.item is not None:
        return [_read_value(field.item, item, f"{where}[{i}]") for i, item in enumerate(value)]
    if field.lo is not None and not field.lo <= value:
        raise ParameterError(f"{where} must be >= {field.lo}, got {value!r}")
    if field.hi is not None and not value <= field.hi:
        raise ParameterError(f"{where} must be <= {field.hi}, got {value!r}")
    if field.choices and value not in field.choices:
        raise ParameterError(f"{where} must be one of {list(field.choices)}, got {value!r}")
    return float(value) if field.type is float else value


def read_spec(spec: Spec, doc, where: str) -> dict:
    """Checked copy of the config object ``doc``: unknown keys and broken
    one-of groups are rejected, each given value is read by its field, and
    each absent key with a default gets it, read the same way."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(spec.fields))
    if unknown:
        raise ParameterError(f"{where}: unknown key(s) {unknown}; allowed keys are {sorted(spec.fields)}")
    grouped = set()
    for group in spec.one_of:
        alternatives = [alt.split("/") for alt in group]
        grouped.update(*alternatives)
        given = [alt for alt in alternatives if any(key in doc for key in alt)]
        optional = any(all(spec.fields[key].default is not None for key in alt) for alt in alternatives)
        if len(given) > 1 or not (given or optional):
            many = "at most" if optional else "exactly"
            raise ParameterError(f"{where} takes {many} one of {' | '.join(group)}")
    out = {}
    for key, field in spec.fields.items():
        allowed = not field.only_with or out.get(field.only_with[0]) == field.only_with[1]
        if key in doc and not allowed:
            other, value = field.only_with
            raise ParameterError(f"{where}.{key} is allowed only when {other} is {value!r}")
        if key in doc or (field.default is not None and allowed):
            out[key] = _read_value(field, doc[key] if key in doc else field.default, f"{where}.{key}")
        elif field.default is None and key not in grouped:
            raise ParameterError(f"{where}.{key} is required")
    return out


# Kind, seed and format are checked by ScenarioConfig, which --seed/--format also reach.
_OUTPUT_SPEC = Spec({"format": Field(object, "json"), "path": Field(str, "")})
CONFIG_SPEC = Spec({
    "scenario": Field(object),
    "parameters": Field(dict, {}),
    "seed": Field(object, 0),
    "output": Field(dict, {}, spec=_OUTPUT_SPEC),
})
CLASSICAL_MAC_SPEC = Spec({
    "family": Field(str, "affine", choices=("affine", "poly")),
    "p": Field(int, lo=2, hi=classical_mac.PRIME_CAP),
    # p >= 2 and p**blocks <= MESSAGE_SPACE_CAP bound blocks before p**blocks is computed
    "blocks": Field(
        int, 1, lo=1, hi=classical_mac.MESSAGE_SPACE_CAP.bit_length() - 1, only_with=("family", "poly")
    ),
})
_RANDOM_SCHEMES_SPEC = Spec({
    "count": Field(int, 100, lo=1, hi=MAX_COUNT),
    "dim": Field(int, 2, lo=1, hi=MAX_TOTAL_DIMENSION),
    "num_keys": Field(int, 2, lo=1),
    "num_messages": Field(int, 2, lo=2),
})
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
    "t_min": replace(_TAG_COUNT, default=2),
    "t_max": replace(_TAG_COUNT, default=16),
    "delta_fracs": Field(list, [0.5, 1.0], item=Field(float, lo=0, hi=1)),
    "lambda_fracs": Field(list, [0.0, 0.5], item=Field(float, lo=0, hi=1)),
    "d": Field(int, 2, lo=1),
    "message_space_bits": Field(int, 64, lo=2, hi=MAX_MESSAGE_SPACE_BITS),
}, one_of=(("t_values", "t_min/t_max"),))


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
            raise ParameterError(f"unknown scenario {self.scenario_kind!r}; expected one of {SCENARIO_KINDS}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.output_format not in ("json", "csv"):
            raise ParameterError(f"output format must be json or csv, got {self.output_format!r}")

    @property
    def sha256(self) -> str:
        return config_sha256(self.scenario_kind, self.parameters, self.seed)


def _config_from_dict(doc: dict, base_dir: Path | None, name: str) -> ScenarioConfig:
    top = read_spec(CONFIG_SPEC, doc, "config")
    output = top["output"]
    # parameters stay as written, without defaults: config_sha256 hashes them
    return ScenarioConfig(
        top["scenario"], top["parameters"], top["seed"], output["format"], output["path"], base_dir, name
    )


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
# scenario runners: (checked parameters, config) -> JSON-ready report


def _run_classical_mac(params: dict, config: ScenarioConfig) -> dict:
    if params["family"] == "poly":
        family = classical_mac.make_poly_family(params["p"], params["blocks"])
    else:
        family = classical_mac.make_affine_family(params["p"])
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
        "deception": jsonable(asdict(report)),
        "theorem1": {
            "epsilon": f"1/{tag_count}",
            "bound_bits": bound_bits,
            "actual_key_bits": math.log2(family.key_space_size),
        },
    }


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


def _random_scheme_row(index: int, result: qmac_framework.Theorem2Report) -> dict:
    return {
        "index": index,
        "lambda_max": result.max_overlap,
        "p0": result.p0,
        "classical_floor": result.classical_floor,
        "margin": result.margin,
    }


def _run_generic_qmac(params: dict, config: ScenarioConfig) -> dict:
    if "random_schemes" in params:
        shape = params["random_schemes"]
        entries = shape["num_keys"] * shape["num_messages"] * shape["dim"] ** 2
        if entries > MAX_SCHEME_ENTRIES:
            raise ParameterError(
                f"a random scheme would hold num_keys * num_messages * dim**2 = {entries} "
                f"entries; the cap is {MAX_SCHEME_ENTRIES}"
            )
        schemes = qmac_framework.random_schemes(
            np.random.default_rng(config.seed),
            shape["count"],
            shape["dim"],
            shape["num_keys"],
            shape["num_messages"],
        )
        # No name holds a scheme or its report (enumerate would keep the last
        # one), so each is freed before the next stack of unitaries is drawn.
        rows = [
            _random_scheme_row(index, qmac_framework.verify_theorem2(next(schemes)))
            for index in range(shape["count"])
        ]
        return {
            "random_schemes": shape,
            "all_margins_positive": all(row["margin"] > 0.0 for row in rows),
            "min_margin": min(row["margin"] for row in rows),
            "rows": rows,
        }

    if "scheme" in params:
        doc = params["scheme"]
    else:
        path = Path(params["scheme_path"])
        if config.base_dir is not None and not path.is_absolute():
            path = config.base_dir / path
        doc = _read_json(path, "scheme file")
    scheme = qmac_framework.scheme_from_json_dict(doc)
    if params["rule"]["kind"] == "symmetry-test":
        rule = qmac_framework.DecisionRule.symmetry_test(params["rule"]["copies"])
    else:
        rule = qmac_framework.DecisionRule.projective()
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
    # the report of the verdicts holds no eigenvector: the witness comes from optimal_impersonation
    attack = curty_santos.optimal_impersonation(instance)
    nogo = curty_santos.incompatibility_report(instance)
    cond13 = nogo.condition_13
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
        "impersonation_witness": attack.witness_state.amplitudes.tolist(),
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


def _run_curty_santos(params: dict, config: ScenarioConfig) -> dict:
    if "random_sweep" in params:
        count = params["random_sweep"]["count"]
        unitaries = random_unitaries(count, (2, 2), np.random.default_rng(config.seed))
        rows = [
            {
                "index": index,
                "impersonation": nogo.impersonation_probability,
                "conclusive": list(nogo.substitution_conclusive),
                "at_floor": nogo.impersonation_at_floor,
                "blocked": nogo.substitution_blocked,
                "secure": nogo.simultaneously_secure,
            }
            for index, nogo in enumerate(curty_santos.incompatibility_reports(unitaries))
        ]
        return {
            "instances": count,
            "simultaneously_secure_count": sum(row["secure"] for row in rows),
            "min_impersonation": min(row["impersonation"] for row in rows),
            "rows": rows,
        }

    if "unitary_name" in params:
        matrix = NAMED_UNITARIES[params["unitary_name"]]()
        instance = curty_santos.CurtySantosInstance(tag_unitary=UnitaryOperator(matrix, (2, 2)))
    else:
        doc = params["instance"] if "instance" in params else {"unitary": params["unitary"]}
        instance = curty_santos.instance_from_json_dict(doc)
    report = _cs_instance_report(instance)
    if "unitary_name" in params:
        report["unitary_name"] = params["unitary_name"]
    return report


def _crossovers(rows, t_values, delta_fracs, lambda_fracs) -> list[dict]:
    """First |T| at which the quantum key budget exceeds the classical one, per
    (delta_frac, lambda_frac) pair, read off the rows of one sweep. Rows carry
    delta and lambda, not the fractions, so each pair's points are recomputed
    exactly as ``symmetry_test.sweep`` computes them; skipped points never count."""
    exceeds = {
        (r.t_size, r.delta, r.lambda_max) for r in rows if r.key_bits_quantum > r.key_bits_classical_ref
    }

    def first(dfrac, lfrac):
        points = ((t, dfrac / t, lfrac * symmetry_test.feasibility_threshold(t, dfrac / t)) for t in t_values)
        return next((point[0] for point in points if point in exceeds), None)

    return [
        {"delta_frac": dfrac, "lambda_frac": lfrac, "first_quantum_exceeds_classical": first(dfrac, lfrac)}
        for dfrac in delta_fracs
        for lfrac in lambda_fracs
    ]


def _run_symmetry_sweep(params: dict, config: ScenarioConfig) -> dict:
    t_values = params["t_values"] if "t_values" in params else range(params["t_min"], params["t_max"] + 1)
    delta_fracs, lambda_fracs = params["delta_fracs"], params["lambda_fracs"]
    points = len(t_values) * len(delta_fracs) * len(lambda_fracs)
    if not 1 <= points <= MAX_SWEEP_POINTS:
        raise ParameterError(
            f"the sweep grid holds {points} points; it must hold 1 to {MAX_SWEEP_POINTS} (is t_min > t_max?)"
        )
    bits = params["message_space_bits"]
    rows = symmetry_test.sweep(t_values, delta_fracs, lambda_fracs, d=params["d"], message_space_size=2**bits)
    return {
        "grid": {
            "t_values": list(t_values),
            "delta_fracs": delta_fracs,
            "lambda_fracs": lambda_fracs,
            "d": params["d"],
            "message_space_bits": bits,
        },
        "rows": [dict(zip(symmetry_test.SWEEP_COLUMNS, r)) for r in rows],
        "crossover": _crossovers(rows, t_values, delta_fracs, lambda_fracs),
    }


RUNNERS = {
    "ClassicalMac": (CLASSICAL_MAC_SPEC, _run_classical_mac),
    "GenericQmac": (GENERIC_QMAC_SPEC, _run_generic_qmac),
    "CurtySantos": (CURTY_SANTOS_SPEC, _run_curty_santos),
    "SymmetryTestSweep": (SYMMETRY_SWEEP_SPEC, _run_symmetry_sweep),
}
SCENARIO_KINDS = tuple(RUNNERS)


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


def _write_artifact(config: ScenarioConfig, report: dict, path: Path) -> None:
    if config.output_format == "json":
        path.write_text(render_json(report), encoding="utf-8")
        return
    if config.scenario_kind == "SymmetryTestSweep":
        columns = symmetry_test.SWEEP_COLUMNS
        header = list(columns) + ["seed", "config_sha256"]
        csv_rows = [[row[c] for c in columns] + [config.seed, config.sha256] for row in report["rows"]]
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
        return _config_from_dict(_read_json(path, "config"), path.resolve().parent, path.stem)
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
    overrides = {"output_path": output, "output_format": output_format, "seed": seed}
    try:
        config = replace(load_config(source), **{k: v for k, v in overrides.items() if v is not None})
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
