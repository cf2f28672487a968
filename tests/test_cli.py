import copy
import gc
import importlib.util
import io
import json
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from authsim import classical_mac, cli, curty_santos, qmac_framework, quantum_core, symmetry_test
from authsim.errors import ParameterError
from authsim.qmac_framework import random_scheme
from testkit import CallCounter, scheme_to_json_dict, state_to_json_dict

ROOT = Path(__file__).resolve().parents[1]

def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(*argv, stdout=out)
    return code, out.getvalue()


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# the library calls that would draw a random_schemes shape, one scheme, or every label's unitary of the run
SHAPE_CALLS = {
    "random_scheme_reports": lambda rng, shape: next(qmac_framework.random_scheme_reports(rng, **shape)),
    "random_scheme": lambda rng, shape: random_scheme(rng, shape["dim"], shape["num_keys"], shape["num_messages"]),
    "haar_unitaries": lambda rng, shape: quantum_core.haar_unitaries(
        shape["count"] * shape["num_keys"] * shape["num_messages"], shape["dim"], rng
    ),
}


def run_shape(via, shape, tmp_path):
    """(exit code, output, tracemalloc peak) of the random_schemes ``shape`` run by ``cli.run``
    (``via`` "cli") or by ``SHAPE_CALLS[via]``, whose ParameterError is printed as ``cli.run`` prints it."""
    config = write_config(tmp_path, "r.json", _cfg("GenericQmac", {"random_schemes": shape}))
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        if via == "cli":
            code, out = run_cli(str(config), str(tmp_path / "report.json"))
        else:
            try:
                SHAPE_CALLS[via](rng, shape)
                code, out = 0, ""
            except ParameterError as exc:
                code, out = 1, f"error: {exc}\n"
        return code, out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_draws(monkeypatch):
    """A CallCounter on the Haar sampler, through either module that calls it, and on QmacScheme.__init__."""
    counter = CallCounter(monkeypatch)
    counter.count(qmac_framework, "_haar_columns")
    counter.count(quantum_core, "_haar_columns")
    counter.count(qmac_framework.QmacScheme, "__init__")
    return counter


class TestCatalog:
    def test_catalog_contents(self):
        catalog = cli.BUILTIN_SCENARIOS
        assert len(catalog) >= 6
        for required in ("affine-p5", "poly-p5-l2", "cs-swapless", "cs-hadamard",
                         "theorem2-random", "symtest-grid"):
            assert required in catalog
        for entry in catalog.values():
            assert entry["scenario"] in cli.SCENARIO_KINDS
            assert entry["description"]

    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "affine-p5        [ClassicalMac] " + cli.BUILTIN_SCENARIOS["affine-p5"]["description"]
        width = max(map(len, cli.BUILTIN_SCENARIOS))
        assert lines == [
            f"{name.ljust(width)}  [{entry['scenario']}] {entry['description']}"
            for name, entry in cli.BUILTIN_SCENARIOS.items()
        ]

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

    def test_poly_over_work_cap_exits_before_its_messages_exist(self, tmp_path, monkeypatch):
        # 2**20 messages of 20 blocks: the work cap rejects them before the library's family-table cap would
        def build(p, blocks):
            raise AssertionError("the message space was built")

        monkeypatch.setattr(classical_mac, "make_poly_family", build)
        config = write_config(
            tmp_path, "poly20.json", {"scenario": "ClassicalMac", "parameters": {"family": "poly", "p": 2, "blocks": 20}}
        )
        code, out = run_cli(str(config), str(tmp_path / "r.json"))
        assert code == 1
        assert out == "error: |M|*(|M|-1)*|T|^2 = 4398042316800 exceeds work cap 134217728\n"
        assert not (tmp_path / "r.json").exists()


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

    @pytest.mark.parametrize(
        "rule,calls", [({"kind": "projective"}, 1), ({"kind": "symmetry-test", "copies": 3}, 2)],
        ids=["projective", "symmetry-test"],
    )
    def test_inline_scheme_attack_scored_once(self, rule, calls, monkeypatch, tmp_path):
        # verify_theorem2 scores the projective attack, which the runner reuses; another rule is scored again
        doc = scheme_to_json_dict(random_scheme(np.random.default_rng(8), dim=3))
        config = write_config(tmp_path, "s.json", _cfg("GenericQmac", {"scheme": doc, "rule": rule}))
        counter = CallCounter(monkeypatch)
        counter.count(qmac_framework, "impersonation_deception")
        counter.count(qmac_framework.QmacScheme, "validate")
        assert run_cli(str(config), str(tmp_path / "r.json"))[0] == 0
        assert counter.calls == {"impersonation_deception": calls, "validate": calls}

    @pytest.mark.parametrize("rule", [{}, {"kind": "symmetry-test", "copies": 3}], ids=["projective", "symmetry-test"])
    def test_tags_sharing_a_scaled_identity_score_under_every_rule(self, rule, tmp_path):
        # labels a and b of message 0 share (1 + 4e-11) I, unitary within 1e-10, so both tag states pass
        # their norm check; their overlap, about 1 + 8e-11, is within (1 + 2 NORM_ATOL)**2
        def gate(entries):
            return {"matrix": [[[value, 0.0] for value in row] for row in entries]}

        scaled = gate([[1 + 4e-11, 0.0], [0.0, 1 + 4e-11]])
        doc = {
            "messages": [0, 1],
            "keys": [0, 1],
            "label_table": [["a", "c"], ["b", "d"]],
            "tag_unitaries": {"a": scaled, "b": scaled, "c": gate([[1, 0], [0, 1]]), "d": gate([[0, 1], [1, 0]])},
            "initial_state": {"amplitudes": [[1.0, 0.0], [0.0, 0.0]], "dims": [2]},
        }
        config = write_config(tmp_path, "s.json", _cfg("GenericQmac", {"scheme": doc, "rule": rule}))
        code, out = run_cli(str(config), str(tmp_path / "r.json"))
        assert code == 0, out
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["impersonation"]["deception_probability"] == pytest.approx(1.0, abs=1e-9)

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

    def test_pair_cap_admits_1024_keys_of_two_messages(self):
        assert 2 * math.comb(1024, 2) <= qmac_framework.MAX_SCHEME_PAIRS < 2 * math.comb(1025, 2)

    @pytest.mark.parametrize(
        "dim,keys,via",
        [(1025, 2, "cli"), (1025, 2, "random_scheme_reports"), (1025, 2, "random_scheme"), (1, 10**9, "cli")],
        ids=["dim-1025", "random_scheme_reports-dim-1025", "random_scheme-dim-1025", "keys-10**9"],
    )
    def test_random_scheme_entries_over_cap_exit_one_before_drawing(self, dim, keys, via, monkeypatch, tmp_path):
        # 1025 x 1025 normals for each label of 2 keys x 2 messages: just over the per-scheme entry cap
        shape = {"count": 1, "dim": dim, "num_keys": keys, "num_messages": 2}
        counter = count_draws(monkeypatch)
        code, out, peak = run_shape(via, shape, tmp_path)
        assert code == 1
        assert peak < 64 * 2**10
        assert out == (
            f"error: a random scheme would draw num_keys * num_messages * dim**2 = {keys * 2 * dim**2} "
            f"entries; the cap is {qmac_framework.MAX_SCHEME_ENTRIES}\n"
        )
        assert counter.calls == {"_haar_columns": 0, "__init__": 0}
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "keys,messages,via",
        [(1025, 2, "cli"), (16384, 2, "cli"), (5, 2**17 + 1, "cli"),
         (1025, 2, "random_scheme_reports"), (1025, 2, "random_scheme")],
        ids=["1025-2", "16384-2", "5-131073", "random_scheme_reports-1025-2", "random_scheme-1025-2"],
    )
    def test_random_scheme_pairs_over_cap_exit_one_before_drawing(self, keys, messages, via, monkeypatch, tmp_path):
        # each shape passes MAX_SCHEME_ENTRIES at dim 1; its label pairs alone are over the cap
        shape = {"count": 1, "dim": 1, "num_keys": keys, "num_messages": messages}
        assert keys * messages <= qmac_framework.MAX_SCHEME_ENTRIES
        counter = count_draws(monkeypatch)
        code, out, peak = run_shape(via, shape, tmp_path)
        assert code == 1
        assert peak < 64 * 2**10  # about 6 KiB; the 2050 labels of 1025 keys would take more to compile
        pairs = messages * math.comb(keys, 2)
        assert out.startswith(
            f"error: a random scheme would score num_messages * C(num_keys, 2) = {pairs} label pairs; "
            f"the cap is {qmac_framework.MAX_SCHEME_PAIRS}"
        ), out
        assert counter.calls == {"_haar_columns": 0, "__init__": 0}
        assert not (tmp_path / "report.json").exists()

    def test_run_entry_cap_admits_every_builtin_and_ladder_rung(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
        shapes = [(count, dim, keys, messages) for dim, keys, messages, count in workloads.QMAC_LADDER]
        for scenario in cli.BUILTIN_SCENARIOS.values():
            if "random_schemes" in scenario["parameters"]:
                shape = scenario["parameters"]["random_schemes"]
                shapes.append((shape["count"], shape["dim"], shape["num_keys"], shape["num_messages"]))
        assert len(shapes) == len(workloads.QMAC_LADDER) + 1
        assert all(
            count * keys * messages * dim**2 <= quantum_core.MAX_RUN_ENTRIES for count, dim, keys, messages in shapes
        )
        # 64 schemes at the per-scheme cap fill the run's cap
        assert 64 * qmac_framework.MAX_SCHEME_ENTRIES == quantum_core.MAX_RUN_ENTRIES

    @pytest.mark.parametrize(
        "count,dim,via",
        [(65, 1024, "cli"), (cli.MAX_COUNT, 128, "cli"), (65, 1024, "random_scheme_reports"),
         (65, 1024, "haar_unitaries"), (cli.MAX_COUNT, 128, "haar_unitaries")],
        ids=["65-1024", "10000-128", "random_scheme_reports-65-1024", "haar_unitaries-65-1024",
             "haar_unitaries-10000-128"],
    )
    def test_random_run_entries_over_cap_exit_one_before_drawing(self, count, dim, via, monkeypatch, tmp_path):
        # each scheme is within MAX_SCHEME_ENTRIES (65 of them at it) and MAX_SCHEME_PAIRS; the run is not.
        # haar_unitaries is asked for the unitaries of every label of every scheme: the same entries
        shape = {"count": count, "dim": dim, "num_keys": 2, "num_messages": 2}
        assert 4 * dim**2 <= qmac_framework.MAX_SCHEME_ENTRIES
        counter = count_draws(monkeypatch)
        code, out, peak = run_shape(via, shape, tmp_path)
        assert code == 1
        assert peak < 64 * 2**10
        work = "count * d**2" if via == "haar_unitaries" else "count * num_keys * num_messages * dim**2"
        what = "the draw would take" if via == "haar_unitaries" else "the run would draw"
        assert out == f"error: {what} {work} = {count * 4 * dim**2} entries; the cap is {quantum_core.MAX_RUN_ENTRIES}\n"
        assert counter.calls == {"_haar_columns": 0, "__init__": 0}
        assert not (tmp_path / "report.json").exists()

    def test_run_pair_cap_admits_every_builtin_and_ladder_rung(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
        shapes = [(count, keys, messages) for _, keys, messages, count in workloads.QMAC_LADDER]
        shapes += [
            (shape["count"], shape["num_keys"], shape["num_messages"])
            for shape in (s["parameters"].get("random_schemes") for s in cli.BUILTIN_SCENARIOS.values())
            if shape is not None
        ]
        assert len(shapes) == len(workloads.QMAC_LADDER) + 1
        assert all(
            count * messages * math.comb(keys, 2) <= qmac_framework.MAX_RUN_PAIRS for count, keys, messages in shapes
        )
        # 64 schemes at the per-scheme pair cap fill the run's cap
        assert 64 * qmac_framework.MAX_SCHEME_PAIRS == qmac_framework.MAX_RUN_PAIRS

    @pytest.mark.parametrize(
        "count,keys,via",
        [(65, 1024, "cli"), (cli.MAX_COUNT, 83, "cli"), (65, 1024, "random_scheme_reports")],
        ids=["65-1024", "10000-83", "random_scheme_reports-65-1024"],
    )
    def test_random_run_pairs_over_cap_exit_one_before_drawing(self, count, keys, via, monkeypatch, tmp_path):
        # each scheme is within MAX_SCHEME_PAIRS and the run within MAX_RUN_ENTRIES; one scheme
        # fewer, or one key fewer, and the run's pairs would be within MAX_RUN_PAIRS too
        shape = {"count": count, "dim": 1, "num_keys": keys, "num_messages": 2}
        pairs = 2 * math.comb(keys, 2)
        assert pairs <= qmac_framework.MAX_SCHEME_PAIRS and count * keys * 2 <= quantum_core.MAX_RUN_ENTRIES
        run_pairs = min((count - 1) * pairs, count * 2 * math.comb(keys - 1, 2))
        assert run_pairs <= qmac_framework.MAX_RUN_PAIRS < count * pairs
        counter = count_draws(monkeypatch)
        code, out, peak = run_shape(via, shape, tmp_path)
        assert code == 1
        assert peak < 64 * 2**10
        assert out == (
            f"error: the run would score count * num_messages * C(num_keys, 2) = {count * pairs} label pairs; "
            f"the cap is {qmac_framework.MAX_RUN_PAIRS}\n"
        )
        assert counter.calls == {"_haar_columns": 0, "__init__": 0}
        assert not (tmp_path / "report.json").exists()

    def test_inline_scheme_pairs_over_cap_exit_one_before_scoring(self, monkeypatch, tmp_path):
        counter = CallCounter(monkeypatch)
        counter.count(qmac_framework, "pair_overlaps")
        config = write_config(tmp_path, "s.json", _cfg("GenericQmac", {"scheme": OVER_CAP_SCHEME}))
        code, out = run_cli(str(config), str(tmp_path / "report.json"))
        assert code == 1
        pairs = 2 * math.comb(1025, 2)
        assert out == f"error: the scheme would score {pairs} label pairs; the cap is {qmac_framework.MAX_SCHEME_PAIRS}\n"
        assert counter.calls == {"pair_overlaps": 0}
        assert not (tmp_path / "report.json").exists()

    def test_scheme_overlaps_over_cap_raise_before_states(self, monkeypatch):
        scheme = qmac_framework.scheme_from_json_dict(OVER_CAP_SCHEME)
        counter = CallCounter(monkeypatch)
        counter.count(qmac_framework, "pair_overlaps")
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError) as raised:
                scheme.overlaps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = 2 * math.comb(1025, 2)
        assert str(raised.value) == f"the scheme would score {pairs} label pairs; the cap is {qmac_framework.MAX_SCHEME_PAIRS}"
        assert peak < 64 * 2**10
        assert counter.calls == {"pair_overlaps": 0}
        assert "states" not in vars(scheme)  # no tag state formed

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
    def test_delta_fraction_that_underflows_exits_one_naming_it(self, tmp_path):
        params = {"t_values": [4], "delta_fracs": [5e-324], "lambda_fracs": [0.0]}
        config = write_config(tmp_path, "st.json", _cfg("SymmetryTestSweep", params))
        code, out = run_cli(str(config), str(tmp_path / "report.json"))
        assert (code, out) == (1, "error: delta_fracs[0] / |T| = 5e-324 / 4 underflows to 0\n")
        assert not (tmp_path / "report.json").exists()

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


# 1025 keys of 2 messages at dim 1: every label has a unitary, and its pairs are over the cap
OVER_CAP_SCHEME = {
    "messages": [0, 1],
    "keys": list(range(1025)),
    "label_table": [[f"{k},0", f"{k},1"] for k in range(1025)],
    "tag_unitaries": {f"{k},{m}": {"matrix": [[[1.0, 0.0]]]} for k in range(1025) for m in (0, 1)},
    "initial_state": {"amplitudes": [[1.0, 0.0]], "dims": [1]},
}


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


def _list_labels(doc):
    """Labels [0] and [1] in the label table, with unitaries keyed by their str forms."""
    unitaries = list(doc["tag_unitaries"].values())
    doc.update(label_table=[[[0], [1]], [[1], [0]]], tag_unitaries={"[0]": unitaries[0], "[1]": unitaries[1]})


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
    "cs-unitary-component-overflows": _cfg(
        "CurtySantos", {"unitary": _swap_unitary(matrix=_with_first_component(SWAP_UNITARY["matrix"], 1e308))}
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
    "gq-initial-state-component-overflows": _inline_scheme(
        lambda doc: doc["initial_state"].update(amplitudes=[[1e200, 0.0], [0.0, 0.0]])
    ),
    "gq-initial-state-over-cap": _inline_scheme(
        lambda doc: doc["initial_state"].update(amplitudes=[[1.0, 0.0]] + [[0.0, 0.0]] * 4096, dims=[4097])
    ),
    "gq-scheme-unknown-key": _inline_scheme(lambda doc: doc.update(comment="x")),
    "gq-initial-state-unknown-key": _inline_scheme(lambda doc: doc["initial_state"].update(norm=1)),
    "gq-initial-state-component-true": _inline_scheme(
        lambda doc: doc["initial_state"].update(amplitudes=[[True, 0.0], [0.0, 0.0]])
    ),
    "gq-scheme-messages-string": _inline_scheme(lambda doc: doc.update(messages="ab")),
    "gq-scheme-keys-string": _inline_scheme(lambda doc: doc.update(keys="ab")),
    "gq-scheme-name-object": _inline_scheme(lambda doc: doc.update(name={"x": [1]})),
    "gq-scheme-label-list": _inline_scheme(_list_labels),
    "cs-unitary-matrix-ragged": _cfg(
        "CurtySantos", {"unitary": _swap_unitary(matrix=SWAP_UNITARY["matrix"][:1] + [[[1.0, 0.0]]] * 3)}
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
    "st-grid-past-maxsize": _cfg("SymmetryTestSweep", {"t_max": 2**70}),
    "st-delta-fracs-str": _cfg("SymmetryTestSweep", {"delta_fracs": "x"}),
    "st-delta-fracs-empty": _cfg("SymmetryTestSweep", {"delta_fracs": []}),
    # positive and in range, but its copy count overflows to inf
    "st-delta-fracs-tiny": _cfg(
        "SymmetryTestSweep", {"t_values": [2, 3], "delta_fracs": [1e-320], "lambda_fracs": [0.0]}
    ),
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

    def test_state_norm_printed_as_python_float(self, tmp_path):
        basis = copy.deepcopy(INSTANCE_WITH_BASIS["basis"])
        basis[0]["amplitudes"][0] = [2.0, 0.0]
        doc = _cfg("CurtySantos", {"instance": dict(INSTANCE_WITH_BASIS, basis=basis)})
        config = write_config(tmp_path, "config.json", doc)
        assert run_cli(str(config), str(tmp_path / "report.json")) == (
            1, "error: state norm 2.0 is not 1 within 1e-10\n"
        )

    def test_initial_state_over_dimension_cap_named(self, tmp_path):
        # the state is held to the dimension cap where it is read, before the scheme is checked
        config = write_config(tmp_path, "config.json", MALFORMED_CONFIGS["gq-initial-state-over-cap"])
        assert run_cli(str(config), str(tmp_path / "report.json")) == (
            1, "error: total dimension 4097 exceeds cap 4096\n"
        )

    def test_list_label_named(self, tmp_path):
        config = write_config(tmp_path, "s.json", MALFORMED_CONFIGS["gq-scheme-label-list"])
        code, out = run_cli(str(config), str(tmp_path / "report.json"))
        assert code == 1
        assert out.startswith("error: parameters.scheme.label_table[0][0] must be a scalar"), out

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
        # batches of 2 schemes of 32 labels at d = 16, and of 128 schemes of 4 labels at d = 2
        [{"count": 4, "dim": 16, "num_keys": 2, "num_messages": 16}, {"count": 300}],
    )
    def test_random_schemes_freed_before_next_stack(self, shape, monkeypatch, tmp_path):
        """Peak memory stays near one batch: with the cycle collector off,
        every batch of Haar columns drawn before is gone when the next one is drawn."""
        drawn, alive_at_draw = [], []
        real_columns = qmac_framework._haar_columns

        def watched_columns(*args):
            alive_at_draw.append(sum(ref() is not None for ref in drawn))
            rows = real_columns(*args)
            # the buffer, not the view: another view of it would keep the batch alive
            drawn.append(weakref.ref(rows if rows.base is None else rows.base))
            return rows

        monkeypatch.setattr(qmac_framework, "_haar_columns", watched_columns)
        config = write_config(tmp_path, "c.json", _cfg("GenericQmac", {"random_schemes": shape}))
        gc.disable()
        try:
            assert run_cli(str(config), str(tmp_path / "r.json"))[0] == 0
        finally:
            gc.enable()
        assert len(alive_at_draw) > 1
        assert alive_at_draw == [0] * len(alive_at_draw)

    @pytest.mark.parametrize(
        "shape",
        [{"count": 4, "dim": 16, "num_keys": 2, "num_messages": 16}, {"count": 300}, {"count": 7, "dim": 5}],
    )
    def test_random_schemes_are_batched(self, shape, monkeypatch, tmp_path):
        """No compiled scheme for the ensemble, and one batch of Haar columns
        per COLUMN_ENTRIES column entries of whole schemes (at least one
        scheme), not one per scheme."""
        calls = {"schemes": 0, "stacks": 0}
        real_columns, real_compile = qmac_framework._haar_columns, qmac_framework.QmacScheme.__init__

        def counted_columns(*args):
            calls["stacks"] += 1
            return real_columns(*args)

        def counted_compile(scheme, *args, **kwargs):
            calls["schemes"] += 1
            real_compile(scheme, *args, **kwargs)

        monkeypatch.setattr(qmac_framework, "_haar_columns", counted_columns)
        monkeypatch.setattr(qmac_framework.QmacScheme, "__init__", counted_compile)
        config = write_config(tmp_path, "c.json", _cfg("GenericQmac", {"random_schemes": shape}))
        assert run_cli(str(config), str(tmp_path / "r.json"))[0] == 0
        dim = shape.get("dim", 2)
        labels = shape.get("num_keys", 2) * shape.get("num_messages", 2)
        per_batch = max(1, qmac_framework.COLUMN_ENTRIES // (labels * dim))  # whole schemes
        assert per_batch == {16: 2, 2: 128, 5: 51}[dim]
        assert calls == {"schemes": 0, "stacks": math.ceil(shape["count"] / per_batch)}

    def test_nogo_sweep_is_batched(self, monkeypatch, tmp_path):
        """One draw of the whole array, one kernel call, no instance per unitary."""
        calls = {"haar_unitaries": 0, "verdict_columns": 0, "_decide": 0, "instances": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "haar_unitaries", counted("haar_unitaries", cli.haar_unitaries))
        monkeypatch.setattr(
            curty_santos, "verdict_columns", counted("verdict_columns", curty_santos.verdict_columns)
        )
        monkeypatch.setattr(curty_santos, "_decide", counted("_decide", curty_santos._decide))
        instance_check = curty_santos.CurtySantosInstance.__init__
        monkeypatch.setattr(curty_santos.CurtySantosInstance, "__init__", counted("instances", instance_check))
        assert run_cli("cs-nogo-sweep", str(tmp_path / "nogo.json"))[0] == 0
        assert calls["haar_unitaries"] == 1
        assert calls["verdict_columns"] == 1
        assert calls["_decide"] == 1
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
DOCUMENT_SPECS = (
    quantum_core.STATE_SPEC, quantum_core.OPERATOR_SPEC, qmac_framework.SCHEME_SPEC, curty_santos.INSTANCE_SPEC
)
CONFIG_KEYS = sorted(
    {key for spec, _ in cli.RUNNERS.values() for key in spec.fields}
    | set(cli.CONFIG_SPEC.fields)
    | {"count", "dim", "num_keys", "num_messages", "kind", "copies", "format", "path"}
    | {key for spec in DOCUMENT_SPECS for key in spec.fields}
)


def _mutate(draw, node):
    """Drop a key or item, replace a value with random JSON, add a key or
    item, or recurse into a nested object or list."""
    slots = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    op = draw(st.sampled_from(("drop", "replace", "add", "descend") if slots else ("add",)))
    if op == "add":
        if isinstance(node, dict):
            node[draw(st.sampled_from(CONFIG_KEYS) | st.text(max_size=4))] = draw(JSON_VALUES)
        else:
            node.append(draw(JSON_VALUES))
        return
    slot = draw(st.sampled_from(slots))
    if op == "drop":
        del node[slot]
    elif op == "descend" and isinstance(node[slot], (dict, list)):
        _mutate(draw, node[slot])
    else:
        node[slot] = draw(JSON_VALUES)


@st.composite
def mutated_builtin_configs(draw):
    spec = cli.BUILTIN_SCENARIOS[draw(st.sampled_from(sorted(cli.BUILTIN_SCENARIOS)))]
    doc = {"scenario": spec["scenario"], "parameters": copy.deepcopy(spec["parameters"]), "seed": 0}
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, doc)
    return doc


def assert_exits_cleanly(doc, tmp_path):
    # every example reuses one tmp_path; unlinking the last example's files first makes each write
    # a new file, where overwriting a just-written one can cost tens of milliseconds
    config, report = tmp_path / "fuzz.json", tmp_path / "fuzz-report.out"
    config.unlink(missing_ok=True)
    report.unlink(missing_ok=True)
    config.write_text(json.dumps(doc))
    code, out = run_cli(str(config), str(report))
    assert code in (0, 1, 2), out


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_builtin_configs())
def test_fuzzed_builtin_configs_exit_cleanly(doc, tmp_path):
    assert_exits_cleanly(doc, tmp_path)


def _containers(node):
    """Every object and list of a JSON document, the document first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


INSTANCE_WITH_BASIS = {
    "unitary": SWAP_UNITARY,
    "basis": [state_to_json_dict(state) for state in curty_santos.computational_basis()],
    "accept_set": [1, 2],
}
INLINE_DOCUMENT_CONFIGS = (
    _cfg("GenericQmac", {"scheme": scheme_to_json_dict(random_scheme(np.random.default_rng(11), dim=4))}),
    _cfg("CurtySantos", {"unitary": SWAP_UNITARY}),
    _cfg("CurtySantos", {"instance": INSTANCE_WITH_BASIS}),
)


@st.composite
def mutated_inline_documents(draw):
    """A dim-4 inline scheme, unitary or instance config with one to three
    mutations, each at an object or list drawn from the whole document."""
    doc = copy.deepcopy(draw(st.sampled_from(INLINE_DOCUMENT_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, draw(st.sampled_from(list(_containers(doc)))))
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_inline_documents())
def test_fuzzed_inline_documents_exit_cleanly(doc, tmp_path):
    assert_exits_cleanly(doc, tmp_path)


def reference_crossovers(t_values, delta_fracs, lambda_fracs, d, message_space_size):
    """The crossover loop of the original runner: one extra sweep per
    (delta_frac, lambda_frac) pair, first |T| whose quantum key budget
    exceeds the classical comparator."""
    crossovers = []
    for dfrac in delta_fracs:
        for lfrac in lambda_fracs:
            series = symmetry_test.sweep(
                t_values, (dfrac,), (lfrac,), d=d, message_space_size=message_space_size
            ).rows
            first = next(
                (r.T_size for r in series if r.key_bits_quantum > r.key_bits_classical_ref), None
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
    result = symmetry_test.sweep(t_values, delta_fracs, lambda_fracs, d=d, message_space_size=2**bits)
    derived = [crossover._asdict() for crossover in result.crossovers]
    assert derived == reference_crossovers(t_values, delta_fracs, lambda_fracs, d, 2**bits)


class TestLibraryBounds:
    """The config keys that a library argument also reads take the library's own field."""

    def test_specs_reuse_the_library_fields(self):
        sweep_fields = cli.SYMMETRY_SWEEP_SPEC.fields
        assert sweep_fields["t_values"].item is symmetry_test.TAG_COUNT
        assert sweep_fields["t_min"] == symmetry_test.TAG_COUNT._replace(default=2)
        assert sweep_fields["t_max"] == symmetry_test.TAG_COUNT._replace(default=16)
        expected = qmac_framework.COPIES._replace(default=2, only_with=("kind", "symmetry-test"))
        assert cli.GENERIC_QMAC_SPEC.fields["rule"].spec.fields["copies"] == expected

    def test_counts_past_2_53_run(self, tmp_path):
        # tag counts and copy counts past 2**53 run: the CLI reads them with the library fields, up to the largest float
        doc = scheme_to_json_dict(random_scheme(np.random.default_rng(8)))
        rule = {"kind": "symmetry-test", "copies": 2**53 + 1}
        config = write_config(tmp_path, "s.json", _cfg("GenericQmac", {"scheme": doc, "rule": rule}))
        code, out = run_cli(str(config), str(tmp_path / "r.json"))
        assert code == 0, out
        assert json.loads((tmp_path / "r.json").read_text())["rule"]["copies"] == 2**53 + 1
        config = write_config(tmp_path, "t.json", _cfg("SymmetryTestSweep", {"t_values": [4, 2**53 + 1]}))
        code, out = run_cli(str(config), str(tmp_path / "t.json.out"))
        assert code == 0, out
        assert json.loads((tmp_path / "t.json.out").read_text())["grid"]["t_values"] == [4, 2**53 + 1]

    def test_grid_cap_is_the_library_check(self, tmp_path):
        config = write_config(tmp_path, "c.json", _cfg("SymmetryTestSweep", {"t_min": 9, "t_max": 3}))
        code, out = run_cli(str(config), str(tmp_path / "r.json"))
        assert (code, out) == (1, "error: the sweep grid holds 0 points; it must hold 1 to 65536\n")
