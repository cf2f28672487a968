"""What the library's value types promise, pinned where a change of how they
are built could move it silently.

Results are ``typing.NamedTuple``s: tuples, compared by value, with
``_replace`` and ``_asdict``, in the field order their positional
constructors rely on. Checked types are plain classes that check once per
construction: the three ``quantum_core`` types in a ``__post_init__`` that
their ``__init__`` calls (the benchmark tracer wraps it) and
``quantum_core._trusted`` skips, the others in ``__init__`` itself. Neither
kind is plain JSON, so the renderers reject both, as they always have.
"""

from fractions import Fraction

import numpy as np
import pytest

from authsim import cli, curty_santos, qmac_framework, quantum_core, spec, symmetry_test
from authsim.classical_mac import DeceptionReport, HashFamily, deception_probabilities, make_affine_family
from authsim.curty_santos import CurtySantosInstance, honest_run, incompatibility_report
from authsim.errors import ParameterError
from authsim.qmac_framework import AttackReport, DecisionRule, QmacScheme, random_scheme, verify_theorem2
from authsim.quantum_core import HermitianOperator, PureState, UnitaryOperator, _trusted, basis_state
from authsim.reporting import config_sha256, jsonable, render_csv, render_json
from testkit import CallCounter

EYE4 = np.eye(4, dtype=complex)


def records():
    """One instance of every NamedTuple result, by name."""
    instance = CurtySantosInstance(UnitaryOperator(EYE4, (2, 2)))
    incompatibility = incompatibility_report(instance)
    return {
        "Theorem2Report": verify_theorem2(random_scheme(np.random.default_rng(3))),
        "HonestRunTrace": honest_run(instance, 0),
        "Condition13Report": incompatibility.condition_13,
        "IncompatibilityReport": incompatibility,
        "SweepRow": symmetry_test.sweep([4]).rows[0],
        "ScenarioConfig": cli.load_config("affine-p5"),
        "Spec": cli.CLASSICAL_MAC_SPEC,
        "Field": cli.CLASSICAL_MAC_SPEC.fields["p"],
    }


FIELDS = {
    "Theorem2Report": ("p0", "classical_floor", "margin", "max_overlap", "classical_equivalent", "attack"),
    "HonestRunTrace": (
        "message", "joint_state_after_encode", "bob_outcome_distribution", "accepted_probability",
        "factorization_residual",
    ),
    "Condition13Report": ("diagonal_overlaps", "per_message", "holds"),
    "IncompatibilityReport": (
        "condition_13", "condition_14_per_message", "impersonation_probability", "substitution_conclusive",
        "impersonation_at_floor", "substitution_blocked", "simultaneously_secure", "witness_message",
        "witness_overlap",
    ),
    "SweepRow": (
        "T_size", "delta", "lambda_max", "n_real", "n_ceil", "P0", "key_bits_quantum", "key_bits_classical_ref",
    ),
    "ScenarioConfig": ("scenario_kind", "parameters", "seed", "output_format", "output_path", "base_dir", "name"),
    "Spec": ("fields", "one_of", "optional"),
    "Field": ("type", "default", "lo", "hi", "choices", "spec", "item", "only_with"),
}


class TestNamedTupleRecords:
    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_in_order(self, name):
        record = records()[name]
        assert type(record).__name__ == name and isinstance(record, tuple)
        assert type(record)._fields == FIELDS[name]
        assert list(record._asdict()) == list(FIELDS[name])

    @pytest.mark.parametrize("name", FIELDS)
    def test_compared_by_value(self, name):
        record = records()[name]
        assert record._replace() == record and record._replace() is not record

    def test_scenario_config_replace_keeps_sha256(self):
        config = cli.load_config("affine-p5")
        reseeded = config._replace(seed=9)
        assert type(reseeded) is cli.ScenarioConfig
        assert reseeded.sha256 == config_sha256("ClassicalMac", config.parameters, 9) != config.sha256
        assert reseeded._replace(seed=config.seed).sha256 == config.sha256

    def test_field_replace_keeps_the_rest(self):
        count = cli.SYMMETRY_SWEEP_SPEC.fields["t_max"]
        assert count == spec.Field(int, 16, lo=2, hi=2**53)
        assert spec.read_value(count, 5, "t_max") == 5


def checked_values():
    """One instance of every plain checked type, by name."""
    state = basis_state(0, (2,))
    return {
        "PureState": state,
        "UnitaryOperator": UnitaryOperator(EYE4),
        "HermitianOperator": HermitianOperator(EYE4),
        "QmacScheme": random_scheme(np.random.default_rng(3)),
        "CurtySantosInstance": CurtySantosInstance(UnitaryOperator(EYE4)),
        "HashFamily": make_affine_family(3),
        "DecisionRule": DecisionRule("projective"),
        "AttackReport": AttackReport(0.5, 0.5),
        "DeceptionReport": deception_probabilities(make_affine_family(3)),
    }


@pytest.mark.parametrize("value", [*records().values(), *checked_values().values()], ids=[*FIELDS, *checked_values()])
def test_renderers_reject_records_and_checked_types(value):
    message = f"^cannot render value of type {type(value).__name__}$"
    assert jsonable(value) is value
    with pytest.raises(ParameterError, match=message):
        render_json(value)
    with pytest.raises(ParameterError, match=message):
        render_json({"k": [value]})
    with pytest.raises(ParameterError, match=message):
        render_csv(["v"], [[value]])


def test_deception_report_fields_render():
    report = deception_probabilities(make_affine_family(5))
    assert render_json(jsonable(vars(report))) == (
        '{\n  "argmax_impersonation": [\n    0,\n    0\n  ],\n  "argmax_substitution": [\n    [\n      0,\n'
        '      0\n    ],\n    [\n      1,\n      0\n    ]\n  ],\n  "p0": "1/5",\n  "p1": "1/5"\n}\n'
    )


class TestValueEquality:
    def test_deception_report_by_value(self):
        report = deception_probabilities(make_affine_family(5))
        assert list(vars(report)) == ["p0", "p1", "argmax_impersonation", "argmax_substitution"]
        again = DeceptionReport(**vars(report))
        assert again == report and again is not report and hash(again) == hash(report)
        assert DeceptionReport(**dict(vars(report), p1=Fraction(2, 5))) != report
        assert report != tuple(vars(report).values())

    def test_decision_rule_by_value(self):
        assert DecisionRule("symmetry-test", 3) == DecisionRule("symmetry-test", 3)
        assert hash(DecisionRule("symmetry-test", 3)) == hash(DecisionRule("symmetry-test", 3))
        assert DecisionRule("symmetry-test", 3) != DecisionRule("symmetry-test", 4)
        assert DecisionRule("projective") != DecisionRule("symmetry-test", 2)

    def test_other_checked_types_by_identity(self):
        values, again = checked_values(), checked_values()
        for name in ("PureState", "UnitaryOperator", "HermitianOperator", "QmacScheme", "HashFamily", "AttackReport"):
            assert values[name] != again[name]


def post_init_builds():
    """For each checked type: the class, the method that runs its check and a
    constructor of one instance. The ``quantum_core`` types check in
    ``__post_init__``, which ``_trusted`` skips; the others check in ``__init__``."""
    gate = UnitaryOperator(EYE4, (2, 2))
    state, flip = basis_state(0, (2,)), UnitaryOperator(np.array([[0, 1], [1, 0]]))
    return {
        "PureState": (PureState, "__post_init__", lambda: PureState(np.array([0.6, 0.8j]), (2,))),
        "UnitaryOperator": (UnitaryOperator, "__post_init__", lambda: UnitaryOperator(EYE4, (2, 2))),
        "HermitianOperator": (HermitianOperator, "__post_init__", lambda: HermitianOperator(np.diag([0.5, 0.5]))),
        "QmacScheme": (
            QmacScheme,
            "__init__",
            lambda: QmacScheme((0, 1), (0,), lambda k, m: m, {0: UnitaryOperator(np.eye(2)), 1: flip}, state),
        ),
        "CurtySantosInstance": (CurtySantosInstance, "__init__", lambda: CurtySantosInstance(gate, accept_set=(1, 2))),
    }


@pytest.mark.parametrize("name", post_init_builds())
def test_post_init_runs_once_per_construction(name, monkeypatch):
    cls, check, build = post_init_builds()[name]
    assert check in vars(cls)
    assert ("__post_init__" in vars(cls)) == (check == "__post_init__")
    counter = CallCounter(monkeypatch)
    counter.count(cls, check)
    built = [build(), build()]
    assert counter.calls == {check: 2}
    assert type(built[0]) is cls


@pytest.mark.parametrize("cls", [PureState, UnitaryOperator, HermitianOperator], ids=lambda cls: cls.__name__)
def test_trusted_skips_post_init(cls, monkeypatch):
    values = np.eye(2, dtype=complex)[0] if cls is PureState else np.eye(2, dtype=complex)
    counter = CallCounter(monkeypatch)
    counter.count(cls, "__post_init__")
    obj = _trusted(cls, values, (2,))
    assert counter.calls == {"__post_init__": 0}
    assert type(obj) is cls and obj.dims == (2,) and obj.d == 2


class TestArrayFlags:
    def test_checked_arrays_are_read_only_copies(self):
        amplitudes, matrix = np.array([0.6, 0.8], dtype=complex), np.eye(2, dtype=complex)
        state, gate, herm = PureState(amplitudes), UnitaryOperator(matrix), HermitianOperator(matrix)
        assert amplitudes.flags.writeable and matrix.flags.writeable
        for array, given in ((state.amplitudes, amplitudes), (gate.matrix, matrix), (herm.matrix, matrix)):
            assert not array.flags.writeable and array is not given

    @pytest.mark.parametrize("cls", [PureState, UnitaryOperator, HermitianOperator], ids=lambda cls: cls.__name__)
    def test_trusted_freezes_in_place(self, cls):
        values = np.eye(2, dtype=complex)[1] if cls is PureState else np.eye(2, dtype=complex)
        obj = _trusted(cls, values, 2)
        assert (obj.amplitudes if cls is PureState else obj.matrix) is values and not values.flags.writeable

    def test_derived_arrays(self):
        scheme = random_scheme(np.random.default_rng(3))
        assert not scheme.states.flags.writeable
        assert not quantum_core.random_unitary(2, np.random.default_rng(0)).matrix.flags.writeable
        assert not quantum_core.tensor([basis_state(0, 2)] * 2).amplitudes.flags.writeable
        assert not quantum_core.max_eigenpair(HermitianOperator(EYE4))[1].amplitudes.flags.writeable
        instance = CurtySantosInstance(UnitaryOperator(EYE4))
        assert all(op.flags.writeable for op in instance.coding_operators)
        assert honest_run(instance, 1).bob_outcome_distribution.flags.writeable

    def test_stored_as_given(self):
        family = make_affine_family(3)
        fields = {key: value for key, value in vars(family).items() if key != "g"}
        copy = HashFamily(**fields)
        assert all(getattr(copy, key) is value for key, value in fields.items())
        assert copy.g is None
        gate = UnitaryOperator(EYE4)
        assert CurtySantosInstance(gate).tag_unitary is gate


def test_modules_share_one_record_style():
    """The result records are NamedTuples; the checked types are not."""
    for module, names in (
        (qmac_framework, ["Theorem2Report"]),
        (curty_santos, ["HonestRunTrace", "Condition13Report", "IncompatibilityReport"]),
        (symmetry_test, ["SweepRow"]),
        (cli, ["ScenarioConfig"]),
        (spec, ["Field", "Spec"]),
    ):
        for name in names:
            assert issubclass(getattr(module, name), tuple), name
    for cls in (PureState, UnitaryOperator, HermitianOperator, QmacScheme, CurtySantosInstance, HashFamily,
                DecisionRule, AttackReport, DeceptionReport):
        assert not issubclass(cls, tuple) and "__init__" in vars(cls), cls.__name__
