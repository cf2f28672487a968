import copy
import gc
import io
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from authsim import cli, curty_santos, qmac_framework, quantum_core, symmetry_test
from authsim.qmac_framework import random_scheme, scheme_to_json_dict


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(*argv, stdout=out)
    return code, out.getvalue()


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestCatalog:
    def test_catalog_contents(self):
        catalog = cli.list_scenarios()
        assert len(catalog) >= 6
        for required in ("affine-p5", "poly-p5-l2", "cs-swapless", "cs-hadamard",
                         "theorem2-random", "symtest-grid"):
            assert required in catalog
        for entry in catalog.values():
            assert entry["kind"] in cli.SCENARIO_KINDS
            assert entry["description"]

    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "affine-p5" in out and "symtest-grid" in out

    @pytest.mark.parametrize("name", sorted(cli.BUILTIN_SCENARIOS))
    def test_every_builtin_runs_clean(self, name, tmp_path):
        code, _ = run_cli(name, str(tmp_path / f"{name}.json"))
        assert code == 0


class TestClassicalMacScenario:
    def test_affine_p5_report(self, tmp_path):
        out_path = tmp_path / "affine.json"
        code, _ = run_cli("affine-p5", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["deception"]["p0"] == "1/5"
        assert report["deception"]["p1"] == "1/5"
        assert report["seed"] == 0
        assert len(report["config_sha256"]) == 64
        assert report["theorem1"]["bound_bits"] == pytest.approx(2 * math.log2(5), abs=1e-9)

    def test_poly_report(self, tmp_path):
        out_path = tmp_path / "poly.json"
        assert run_cli("poly-p5-l2", str(out_path))[0] == 0
        report = json.loads(out_path.read_text())
        assert report["deception"]["p0"] == "1/5"
        assert report["deception"]["p1"] == "2/5"
        assert report["family"]["epsilon"] == "2/5"

    def test_config_file(self, tmp_path):
        config = write_config(
            tmp_path, "p7.json",
            {"scenario": "ClassicalMac", "parameters": {"family": "affine", "p": 7}},
        )
        out_path = tmp_path / "p7-report.json"
        code, _ = run_cli(str(config), str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["deception"]["p0"] == "1/7"


class TestCurtySantosScenario:
    def test_swapless_report(self, tmp_path):
        out_path = tmp_path / "xi.json"
        assert run_cli("cs-swapless", str(out_path))[0] == 0
        report = json.loads(out_path.read_text())
        assert report["optimal_impersonation"] == pytest.approx(0.5, abs=1e-9)
        assert report["substitution_conclusive"] == pytest.approx([1.0, 1.0], abs=1e-9)
        assert report["condition13"] is True
        assert report["no_go"]["simultaneously_secure"] is False
        for run in report["honest_runs"]:
            assert run["accepted_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_report(self, tmp_path):
        out_path = tmp_path / "hh.json"
        assert run_cli("cs-hadamard", str(out_path))[0] == 0
        report = json.loads(out_path.read_text())
        assert abs(report["optimal_impersonation"] - 0.853553) < 1e-6
        assert report["condition13"] is False

    def test_nogo_sweep(self, tmp_path):
        out_path = tmp_path / "nogo.json"
        assert run_cli("cs-nogo-sweep", str(out_path))[0] == 0
        report = json.loads(out_path.read_text())
        assert report["instances"] == 200
        assert report["simultaneously_secure_count"] == 0

    def test_explicit_unitary_config(self, tmp_path):
        swap = np.eye(4)[[0, 2, 1, 3]]
        config = write_config(
            tmp_path, "swap.json",
            {
                "scenario": "CurtySantos",
                "parameters": {
                    "unitary": {
                        "dims": [2, 2],
                        "matrix": [[[float(x), 0.0] for x in row] for row in swap],
                    }
                },
            },
        )
        out_path = tmp_path / "swap-report.json"
        assert run_cli(str(config), str(out_path))[0] == 0
        report = json.loads(out_path.read_text())
        assert report["no_go"]["simultaneously_secure"] is False


class TestGenericQmacScenario:
    def test_theorem2_random(self, tmp_path):
        out_path = tmp_path / "t2.json"
        assert run_cli("theorem2-random", str(out_path))[0] == 0
        report = json.loads(out_path.read_text())
        assert report["all_margins_positive"] is True
        assert len(report["rows"]) == 100
        assert report["min_margin"] > 0

    def test_scheme_file(self, tmp_path):
        scheme = random_scheme(np.random.default_rng(5))
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(json.dumps(scheme_to_json_dict(scheme)))
        config = write_config(
            tmp_path, "generic.json",
            {"scenario": "GenericQmac", "parameters": {"scheme_path": "scheme.json"}},
        )
        out_path = tmp_path / "generic-report.json"
        code, _ = run_cli(str(config), str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["theorem2"]["margin"] > 0

    def test_broken_scheme_exits_two(self, tmp_path):
        scheme = random_scheme(np.random.default_rng(6))
        doc = scheme_to_json_dict(scheme)
        doc["label_table"][0][0] = doc["label_table"][1][0]  # collapse one block
        scheme_path = tmp_path / "broken.json"
        scheme_path.write_text(json.dumps(doc))
        config = write_config(
            tmp_path, "broken-config.json",
            {"scenario": "GenericQmac", "parameters": {"scheme_path": "broken.json"}},
        )
        code, out = run_cli(str(config), str(tmp_path / "broken-report.json"))
        assert code == 2
        assert "invariant failure" in out


    @pytest.mark.parametrize(
        "spec",
        [
            [1],
            {"count": "x"},
            {"count": 0},
            {"count": -3},
            {"count": 2.0},
            {"dim": True},
            {"dim": 2.7},
            {"dim": 0},
            {"dim": 100000},
            {"num_keys": 0},
            {"num_messages": 1},
        ],
        ids=[
            "spec-list", "count-str", "count-zero", "count-negative", "count-float", "dim-bool",
            "dim-float", "dim-zero", "dim-over-cap", "no-keys", "one-message",
        ],
    )
    def test_bad_random_schemes_exit_one(self, spec, tmp_path):
        config = write_config(
            tmp_path, "r.json", {"scenario": "GenericQmac", "parameters": {"random_schemes": spec}}
        )
        code, out = run_cli(str(config), str(tmp_path / "report.json"))
        assert code == 1
        assert out.startswith("error: ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("keys", [[0], [1]]),
            ("messages", [[0], {"m": 1}]),
            ("label_table", 5),
            ("label_table", [5, 6]),
            ("tag_unitaries", [1]),
            ("tag_unitaries", {"0,0": 5}),
            ("tag_unitaries", {"0,0": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "dims": 2}}),
            ("tag_unitaries", {"0,0": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "dims": ["a"]}}),
            ("initial_state", {"amplitudes": [[1, 0], [0, 0]], "dims": "2"}),
            ("multiplicity", 2.7),
            ("multiplicity", True),
        ],
        ids=["keys-lists", "messages-objects", "table-scalar", "table-rows-scalar",
             "unitaries-list", "unitary-scalar", "unitary-dims-scalar", "unitary-dims-str",
             "state-dims-str", "multiplicity-float", "multiplicity-bool"],
    )
    def test_malformed_inline_scheme_exits_one(self, field, value, tmp_path):
        doc = scheme_to_json_dict(random_scheme(np.random.default_rng(7)))
        if field == "tag_unitaries" and isinstance(value, dict):
            value = {**doc["tag_unitaries"], **value}
        doc[field] = value
        config = write_config(tmp_path, "s.json", {"scenario": "GenericQmac", "parameters": {"scheme": doc}})
        code, out = run_cli(str(config), str(tmp_path / "report.json"))
        assert code == 1
        assert out.startswith("error: ")
        assert not (tmp_path / "report.json").exists()


class TestSymmetrySweepScenario:
    def test_csv_artifact(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _ = run_cli("symtest-grid", str(out_path), "csv")
        assert code == 0
        lines = out_path.read_text().split("\n")
        header = lines[0].split(",")
        assert header[:8] == [
            "T_size", "delta", "lambda_max", "n_real", "n_ceil", "P0",
            "key_bits_quantum", "key_bits_classical_ref",
        ]
        assert header[8:] == ["seed", "config_sha256"]
        rows = [line.split(",") for line in lines[1:] if line]
        assert rows
        for row in rows:
            t_size, n_real = int(row[0]), float(row[3])
            assert n_real > t_size - 2

    def test_json_report_crossover(self, tmp_path):
        out_path = tmp_path / "grid.json"
        assert run_cli("symtest-grid", str(out_path))[0] == 0
        report = json.loads(out_path.read_text())
        assert report["rows"]
        series = {
            (entry["delta_frac"], entry["lambda_frac"]): entry["first_quantum_exceeds_classical"]
            for entry in report["crossover"]
        }
        assert series[(0.5, 0.0)] == 13  # quantum key budget overtakes the classical comparator
        assert series[(0.5, 0.5)] == 8


class TestDeterminismAndErrors:
    @pytest.mark.parametrize("name,fmt", [("symtest-grid", "csv"), ("theorem2-random", "json")])
    def test_byte_identical_reruns(self, name, fmt, tmp_path):
        first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert run_cli(name, str(first), fmt)[0] == 0
        assert run_cli(name, str(second), fmt)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_override_recorded(self, tmp_path):
        out_path = tmp_path / "seeded.json"
        assert run_cli("theorem2-random", str(out_path), None, 42)[0] == 0
        report = json.loads(out_path.read_text())
        assert report["seed"] == 42
        assert report["all_margins_positive"] is True

    def test_missing_config_exits_one(self, tmp_path):
        code, out = run_cli(str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in out

    def test_invalid_json_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(str(bad))[0] == 1

    def test_unknown_scenario_exits_one(self, tmp_path):
        config = write_config(tmp_path, "weird.json", {"scenario": "Nonsense", "parameters": {}})
        assert run_cli(str(config))[0] == 1

    def test_bad_parameters_exit_one(self, tmp_path):
        config = write_config(
            tmp_path, "bad-p.json",
            {"scenario": "ClassicalMac", "parameters": {"family": "affine", "p": 6}},
        )
        assert run_cli(str(config), str(tmp_path / "r.json"))[0] == 1

    @pytest.mark.parametrize(
        "params",
        [{"family": "poly", "p": 5, "blocks": True}, {"family": "affine", "p": 127}],
        ids=["bool-blocks", "over-work-cap"],
    )
    def test_rejected_classical_family_exits_one(self, tmp_path, params):
        config = write_config(tmp_path, "c.json", {"scenario": "ClassicalMac", "parameters": params})
        code, out = run_cli(str(config), str(tmp_path / "r.json"))
        assert code == 1
        assert "error" in out
        assert not (tmp_path / "r.json").exists()

    def test_main_run(self, tmp_path, capsys):
        out_path = tmp_path / "main.json"
        assert cli.main(["run", "affine-p5", "--output", str(out_path)]) == 0
        assert "report written" in capsys.readouterr().out
        assert out_path.exists()

    def test_flattened_csv_for_scalar_report(self, tmp_path):
        out_path = tmp_path / "affine.csv"
        assert run_cli("affine-p5", str(out_path), "csv")[0] == 0
        text = out_path.read_text()
        assert text.startswith("key,value\n")
        assert "deception.p0,1/5" in text


SWAP_UNITARY = {"dims": [2, 2], "matrix": [[[float(x), 0.0] for x in row] for row in np.eye(4)[[0, 2, 1, 3]]]}


def _cfg(kind, params, **top):
    return {"scenario": kind, "parameters": params, **top}


def _scheme_file_rule(**rule):
    return _cfg("GenericQmac", {"scheme_path": "scheme.json", "rule": rule})


def _swap_unitary(**changes):
    doc = copy.deepcopy(SWAP_UNITARY)
    doc.update(changes)
    return doc


def _inline_scheme(edit):
    """A valid inline scheme document after ``edit`` changes it in place."""
    doc = scheme_to_json_dict(random_scheme(np.random.default_rng(7)))
    edit(doc)
    return _cfg("GenericQmac", {"scheme": doc})


def _with_first_component(matrix, value):
    """A copy of a matrix document whose [0][0] entry is [value, 0.0]."""
    matrix = copy.deepcopy(matrix)
    matrix[0][0] = [value, 0.0]
    return matrix


def _set_first_tag_component(doc, value):
    label = next(iter(doc["tag_unitaries"]))
    doc["tag_unitaries"][label]["matrix"] = _with_first_component(doc["tag_unitaries"][label]["matrix"], value)


# Malformed configs that escaped as tracebacks or exited 0 before the config
# had one checked boundary: a config document, or the raw bytes of the file.
MALFORMED_CONFIGS = {
    "seed-str": _cfg("ClassicalMac", {"p": 5}, seed="abc"),
    "seed-bool": _cfg("ClassicalMac", {"p": 5}, seed=True),
    "seed-float": _cfg("ClassicalMac", {"p": 5}, seed=1.5),
    "parameters-list": _cfg("SymmetryTestSweep", [1]),
    "parameters-null": _cfg("SymmetryTestSweep", None),
    "output-list": _cfg("ClassicalMac", {"p": 5}, output=[1]),
    "output-path-int": _cfg("ClassicalMac", {"p": 5}, output={"path": 5}),
    "output-unknown-key": _cfg("ClassicalMac", {"p": 5}, output={"fmt": "csv"}),
    "config-unknown-key": _cfg("ClassicalMac", {"p": 5}, sed=3),
    "config-not-utf8": b'{"scenario": "ClassicalMac", "parameters": {"p": 5}, "seed": 0}\xff\xfe',
    "output-dir-missing": _cfg("ClassicalMac", {"p": 5}),
    "output-is-dir": _cfg("ClassicalMac", {"p": 5}),
    "cm-unknown-key": _cfg("ClassicalMac", {"p": 5, "q": 7}),
    "cm-blocks-with-affine": _cfg("ClassicalMac", {"family": "affine", "p": 5, "blocks": 7}),
    "cm-huge-blocks": _cfg("ClassicalMac", {"family": "poly", "p": 2, "blocks": 10**12}),
    "gq-scheme-path-int": _cfg("GenericQmac", {"scheme_path": 5}),
    "gq-scheme-path-not-utf8": _cfg("GenericQmac", {"scheme_path": "not-utf8.json"}),
    "gq-scheme-path-not-json": _cfg("GenericQmac", {"scheme_path": "not-json.json"}),
    "gq-scheme-path-and-random": _cfg(
        "GenericQmac", {"scheme_path": "scheme.json", "random_schemes": {"count": 1}}
    ),
    "gq-rule-with-random": _cfg(
        "GenericQmac", {"random_schemes": {"count": 1}, "rule": {"kind": "symmetry-test", "copies": "z"}}
    ),
    "gq-rule-int": _cfg("GenericQmac", {"scheme_path": "scheme.json", "rule": 5}),
    "gq-rule-copies-str": _scheme_file_rule(kind="symmetry-test", copies="z"),
    "gq-rule-copies-float": _scheme_file_rule(kind="symmetry-test", copies=2.5),
    "gq-rule-copies-huge": _scheme_file_rule(kind="symmetry-test", copies=10**400),
    "gq-rule-unknown-key": _scheme_file_rule(kind="projective", n=2),
    "gq-rule-copies-with-projective": _scheme_file_rule(kind="projective", copies=9),
    "gq-random-unknown-key": _cfg("GenericQmac", {"random_schemes": {"count": 1, "size": 3}}),
    "gq-random-count-over-cap": _cfg("GenericQmac", {"random_schemes": {"count": cli.MAX_COUNT + 1}}),
    "gq-random-entries-over-cap": _cfg(
        "GenericQmac", {"random_schemes": {"count": 1, "dim": 4096, "num_keys": 16, "num_messages": 16}}
    ),
    "cs-sweep-int": _cfg("CurtySantos", {"random_sweep": 5}),
    "cs-sweep-count-str": _cfg("CurtySantos", {"random_sweep": {"count": "x"}}),
    "cs-sweep-count-zero": _cfg("CurtySantos", {"random_sweep": {"count": 0}}),
    "cs-sweep-count-float": _cfg("CurtySantos", {"random_sweep": {"count": 2.5}}),
    "cs-sweep-count-over-cap": _cfg("CurtySantos", {"random_sweep": {"count": cli.MAX_COUNT + 1}}),
    "cs-sweep-and-name": _cfg("CurtySantos", {"random_sweep": {"count": 1}, "unitary_name": "xi"}),
    "cs-name-and-unitary": _cfg("CurtySantos", {"unitary_name": "xi", "unitary": SWAP_UNITARY}),
    "cs-name-list": _cfg("CurtySantos", {"unitary_name": [1]}),
    "cs-instance-int": _cfg("CurtySantos", {"instance": 5}),
    "cs-accept-set-int": _cfg("CurtySantos", {"instance": {"unitary": SWAP_UNITARY, "accept_set": 5}}),
    "cs-accept-set-floats": _cfg(
        "CurtySantos", {"instance": {"unitary": SWAP_UNITARY, "accept_set": [0.0, 1.0]}}
    ),
    "cs-basis-int": _cfg("CurtySantos", {"instance": {"unitary": SWAP_UNITARY, "basis": 5}}),
    "cs-instance-unknown-key": _cfg(
        "CurtySantos", {"instance": {"unitary": SWAP_UNITARY, "acept_set": [0, 1]}}
    ),
    "cs-unitary-unknown-key": _cfg("CurtySantos", {"unitary": _swap_unitary(bogus=1)}),
    "cs-unitary-dims-zero": _cfg("CurtySantos", {"unitary": _swap_unitary(dims=0)}),
    "cs-unitary-dims-false": _cfg("CurtySantos", {"unitary": _swap_unitary(dims=False)}),
    "cs-unitary-dims-empty": _cfg("CurtySantos", {"unitary": _swap_unitary(dims=[])}),
    "cs-unitary-component-true": _cfg(
        "CurtySantos", {"unitary": _swap_unitary(matrix=[[[bool(x), 0.0] for x in row] for row in np.eye(4)])}
    ),
    "cs-unitary-component-huge": _cfg(
        "CurtySantos", {"unitary": _swap_unitary(matrix=[[[10**400, 0.0]] * 4] * 4)}
    ),
    "cs-unitary-component-nan": _cfg(
        "CurtySantos", {"unitary": _swap_unitary(matrix=_with_first_component(SWAP_UNITARY["matrix"], math.nan))}
    ),
    "cs-unitary-component-infinity": _cfg(
        "CurtySantos", {"unitary": _swap_unitary(matrix=_with_first_component(SWAP_UNITARY["matrix"], math.inf))}
    ),
    "gq-scheme-unitary-component-nan": _inline_scheme(lambda doc: _set_first_tag_component(doc, math.nan)),
    "gq-scheme-unitary-component-infinity": _inline_scheme(
        lambda doc: _set_first_tag_component(doc, math.inf)
    ),
    "gq-initial-state-component-nan": _inline_scheme(
        lambda doc: doc["initial_state"].update(amplitudes=[[math.nan, 0.0], [0.0, 0.0]])
    ),
    "gq-initial-state-component-infinity": _inline_scheme(
        lambda doc: doc["initial_state"].update(amplitudes=[[math.inf, 0.0], [0.0, 0.0]])
    ),
    "gq-scheme-unknown-key": _inline_scheme(lambda doc: doc.update(comment="x")),
    "gq-initial-state-unknown-key": _inline_scheme(lambda doc: doc["initial_state"].update(norm=1)),
    "gq-initial-state-component-true": _inline_scheme(
        lambda doc: doc["initial_state"].update(amplitudes=[[True, 0.0], [0.0, 0.0]])
    ),
    "st-unknown-key": _cfg("SymmetryTestSweep", {"t_maximum": 5}),
    "st-t-values-str": _cfg("SymmetryTestSweep", {"t_values": "ab"}),
    "st-t-values-int": _cfg("SymmetryTestSweep", {"t_values": 5}),
    "st-t-values-float": _cfg("SymmetryTestSweep", {"t_values": [2.7]}),
    "st-t-values-empty": _cfg("SymmetryTestSweep", {"t_values": []}),
    "st-t-values-huge": _cfg("SymmetryTestSweep", {"t_values": [10**400]}),
    "st-t-values-and-t-min": _cfg("SymmetryTestSweep", {"t_values": [3], "t_min": 2}),
    "st-t-min-str": _cfg("SymmetryTestSweep", {"t_min": "x"}),
    "st-t-min-above-t-max": _cfg("SymmetryTestSweep", {"t_min": 9, "t_max": 3}),
    "st-grid-over-cap": _cfg("SymmetryTestSweep", {"t_max": 10**9}),
    "st-delta-fracs-str": _cfg("SymmetryTestSweep", {"delta_fracs": "x"}),
    "st-delta-fracs-empty": _cfg("SymmetryTestSweep", {"delta_fracs": []}),
    "st-d-bool": _cfg("SymmetryTestSweep", {"d": True}),
    "st-d-str": _cfg("SymmetryTestSweep", {"d": "x"}),
    "st-bits-float": _cfg("SymmetryTestSweep", {"message_space_bits": 3.5}),
    "st-bits-over-cap": _cfg("SymmetryTestSweep", {"message_space_bits": 10**9}),
}


# Report paths other than report.json, relative to the test directory.
MALFORMED_OUTPUTS = {"output-dir-missing": "missing/report.json", "output-is-dir": "outdir"}


def _write_side_files(tmp_path):
    """Files the malformed configs refer to: a valid scheme and two unreadable ones."""
    scheme = scheme_to_json_dict(random_scheme(np.random.default_rng(7)))
    (tmp_path / "scheme.json").write_text(json.dumps(scheme))
    (tmp_path / "not-utf8.json").write_bytes(b'{"name": "\xff"}')
    (tmp_path / "not-json.json").write_text("{not json")
    (tmp_path / "outdir").mkdir()


class TestConfigBoundary:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_exits_one(self, case, tmp_path):
        doc = MALFORMED_CONFIGS[case]
        _write_side_files(tmp_path)
        config = tmp_path / "config.json"
        if isinstance(doc, bytes):
            config.write_bytes(doc)
        else:
            config.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        code, out = run_cli(str(config), str(tmp_path / MALFORMED_OUTPUTS.get(case, "report.json")))
        assert code == 1, out
        assert out.startswith("error: ")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "case,check",
        [
            ("cs-unitary-component-nan", "not unitary"),
            ("cs-unitary-component-infinity", "not unitary"),
            ("gq-scheme-unitary-component-nan", "not unitary"),
            ("gq-scheme-unitary-component-infinity", "not unitary"),
            ("gq-initial-state-component-nan", "state norm"),
            ("gq-initial-state-component-infinity", "state norm"),
        ],
    )
    def test_non_finite_component_rejected_where_it_enters(self, case, check, tmp_path):
        # NaN fails every tolerance check, so the value stops at its entry
        # check rather than in an eigensolver or the renderer
        config = write_config(tmp_path, "config.json", MALFORMED_CONFIGS[case])
        code, out = run_cli(str(config), str(tmp_path / "report.json"))
        assert code == 1
        assert check in out, out

    @pytest.mark.parametrize("output", sorted(MALFORMED_OUTPUTS.values()))
    def test_output_path_checked_before_computation(self, output, monkeypatch, tmp_path):
        (tmp_path / "outdir").mkdir()

        def runner(params, config):
            raise AssertionError("the scenario ran before the output path was checked")

        monkeypatch.setitem(cli.RUNNERS, "ClassicalMac", (cli.CLASSICAL_MAC_SPEC, runner))
        code, out = run_cli("affine-p5", str(tmp_path / output))
        assert code == 1
        assert out.startswith("error: ")

    def test_sweep_runs_once(self, monkeypatch, tmp_path):
        calls = []
        real_sweep = symmetry_test.sweep
        monkeypatch.setattr(symmetry_test, "sweep", lambda *a, **k: calls.append(a) or real_sweep(*a, **k))
        assert run_cli("symtest-grid", str(tmp_path / "grid.json"))[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "shape",
        # a stack of 16 x 16 draws spans one key, one of 2 x 2 draws spans 128 schemes
        [{"count": 4, "dim": 16, "num_keys": 2, "num_messages": 16}, {"count": 300}],
    )
    def test_random_schemes_freed_before_next_stack(self, shape, monkeypatch, tmp_path):
        """Peak memory stays near one scheme: with the cycle collector off,
        every scheme the loop has taken is gone when the next stack is drawn."""
        taken, alive_at_draw = [], []
        real_schemes, real_stack = qmac_framework.random_schemes, quantum_core._haar_stack

        def watched_schemes(*args):
            for scheme in real_schemes(*args):
                taken.append(weakref.ref(scheme))
                yield scheme
                del scheme

        def watched_stack(*args):
            alive_at_draw.append(sum(ref() is not None for ref in taken))
            return real_stack(*args)

        monkeypatch.setattr(qmac_framework, "random_schemes", watched_schemes)
        monkeypatch.setattr(quantum_core, "_haar_stack", watched_stack)
        config = write_config(tmp_path, "c.json", _cfg("GenericQmac", {"random_schemes": shape}))
        gc.disable()
        try:
            assert run_cli(str(config), str(tmp_path / "r.json"))[0] == 0
        finally:
            gc.enable()
        assert len(taken) == shape["count"]
        assert len(alive_at_draw) > 1
        assert alive_at_draw == [0] * len(alive_at_draw)

    def test_nogo_sweep_is_batched(self, monkeypatch, tmp_path):
        """One stacked draw, one kernel call, no instance per unitary."""
        calls = {"random_unitaries": 0, "incompatibility_reports": 0, "instances": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "random_unitaries", counted("random_unitaries", cli.random_unitaries))
        monkeypatch.setattr(
            curty_santos, "incompatibility_reports",
            counted("incompatibility_reports", curty_santos.incompatibility_reports),
        )
        instance_check = curty_santos.CurtySantosInstance.__post_init__
        monkeypatch.setattr(
            curty_santos.CurtySantosInstance, "__post_init__", counted("instances", instance_check)
        )
        assert run_cli("cs-nogo-sweep", str(tmp_path / "nogo.json"))[0] == 0
        assert calls["random_unitaries"] == 1
        assert calls["incompatibility_reports"] == 1
        assert calls["instances"] <= 1


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.sampled_from([2**64, 10**400, 0.5, 1e308])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
    | st.sampled_from(["poly", "xi", "symmetry-test", "csv"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
CONFIG_KEYS = sorted(
    {key for spec, _ in cli.RUNNERS.values() for key in spec.fields}
    | set(cli.CONFIG_SPEC.fields)
    | {"count", "dim", "num_keys", "num_messages", "kind", "copies", "format", "path"}
)


def _mutate(draw, node):
    """Drop a key, replace a value with random JSON, add a key, or recurse."""
    op = draw(st.sampled_from(("drop", "replace", "add", "descend") if node else ("add",)))
    if op == "add":
        node[draw(st.sampled_from(CONFIG_KEYS) | st.text(max_size=4))] = draw(JSON_VALUES)
        return
    key = draw(st.sampled_from(sorted(node)))
    if op == "drop":
        del node[key]
    elif op == "descend" and isinstance(node[key], dict):
        _mutate(draw, node[key])
    elif op == "descend" and isinstance(node[key], list) and node[key]:
        node[key][draw(st.integers(0, len(node[key]) - 1))] = draw(JSON_VALUES)
    else:
        node[key] = draw(JSON_VALUES)


@st.composite
def mutated_builtin_configs(draw):
    spec = cli.BUILTIN_SCENARIOS[draw(st.sampled_from(sorted(cli.BUILTIN_SCENARIOS)))]
    doc = {"scenario": spec["scenario"], "parameters": copy.deepcopy(spec["parameters"]), "seed": 0}
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, doc)
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_builtin_configs())
def test_fuzzed_builtin_configs_exit_cleanly(doc, tmp_path):
    config = tmp_path / "fuzz.json"
    config.write_text(json.dumps(doc))
    code, out = run_cli(str(config), str(tmp_path / "fuzz-report.out"))
    assert code in (0, 1, 2), out


def reference_crossovers(t_values, delta_fracs, lambda_fracs, d, message_space_size):
    """The crossover loop of the original runner: one extra sweep per
    (delta_frac, lambda_frac) pair, first |T| whose quantum key budget
    exceeds the classical comparator."""
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
    return crossovers


DELTA_FRACS = st.sampled_from([0.05, 0.25, 0.5, 1.0]) | st.floats(1e-3, 1.0)
LAMBDA_FRACS = st.sampled_from([0.0, 0.5, 0.9]) | st.floats(0.0, 0.999)


@settings(max_examples=200, deadline=None)
@given(
    t_values=st.lists(st.integers(2, 40), min_size=1, max_size=8),
    delta_fracs=st.lists(DELTA_FRACS, min_size=1, max_size=4),
    lambda_fracs=st.lists(LAMBDA_FRACS, min_size=1, max_size=4),
    d=st.integers(1, 4),
    bits=st.integers(2, 80),
)
@example(t_values=[2, 2, 3, 16], delta_fracs=[1.0, 1.0, 0.5], lambda_fracs=[0.0, 0.5, 0.0], d=2, bits=4)
def test_crossovers_match_rerun_reference(t_values, delta_fracs, lambda_fracs, d, bits):
    rows = symmetry_test.sweep(t_values, delta_fracs, lambda_fracs, d=d, message_space_size=2**bits)
    derived = cli._crossovers(rows, t_values, delta_fracs, lambda_fracs)
    assert derived == reference_crossovers(t_values, delta_fracs, lambda_fracs, d, 2**bits)
