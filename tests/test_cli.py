import io
import json
import math

import numpy as np
import pytest

from authsim import cli
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
