import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from authsim import cli, curty_santos, quantum_core
from authsim.cli import NAMED_UNITARIES
from authsim.curty_santos import (
    CONDITION_TOL,
    VERDICT_TOL,
    Condition13Report,
    CurtySantosInstance,
    IncompatibilityReport,
    _check_message,
    analyze_instance,
    attack_operator,
    honest_run,
    impersonation_acceptance,
    incompatibility_report,
    instance_from_json_dict,
    optimal_impersonation,
    simulate_impersonation_acceptance,
    singlet,
)
from authsim.errors import ParameterError
from authsim.qmac_framework import (
    impersonation_deception,
    overlap_matrix,
    scheme_from_json_dict,
    validate_scheme,
)
from authsim.quantum_core import (
    PureState,
    UnitaryOperator,
    _trusted,
    basis_state,
    partial_trace,
    random_state,
    random_unitaries,
    random_unitary,
)
from testkit import CallCounter, as_qmac_scheme, operator_to_json_dict, scheme_to_json_dict, state_to_json_dict

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def make_instance(matrix) -> CurtySantosInstance:
    return CurtySantosInstance(tag_unitary=UnitaryOperator(matrix, (2, 2)))


@pytest.fixture(scope="module")
def identity_instance():
    return make_instance(np.eye(4, dtype=complex))


@pytest.fixture(scope="module")
def xi_instance():
    return make_instance(np.kron(X, np.eye(2, dtype=complex)))


@pytest.fixture(scope="module")
def hh_instance():
    return make_instance(np.kron(H, H))


class TestHonestRun:
    def test_identity_unitary(self, identity_instance):
        trace = honest_run(identity_instance, 0)
        assert np.allclose(trace.bob_outcome_distribution, [1, 0, 0, 0], atol=1e-12)
        assert trace.accepted_probability == pytest.approx(1.0, abs=1e-12)

    def test_flip_unitary_message_one(self, xi_instance):
        trace = honest_run(xi_instance, 1)
        assert trace.accepted_probability == pytest.approx(1.0, abs=1e-12)
        assert trace.bob_outcome_distribution[1] == pytest.approx(1.0, abs=1e-12)

    def test_transmitted_density_even_mixture(self, xi_instance):
        # half |00><00| + half |10><10|: direct construction vs partial trace of the encoded state
        trace = honest_run(xi_instance, 0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[2, 2] = 0.5
        reduced = partial_trace(trace.joint_state_after_encode, keep=(2,))
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_decoding_undoes_encoding(self, hh_instance):
        for m in (0, 1):
            trace = honest_run(hh_instance, m)
            assert trace.factorization_residual <= 1e-12

    def test_random_unitaries_always_accept(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            instance = make_instance(random_unitary((2, 2), rng).matrix)
            for m in (0, 1):
                trace = honest_run(instance, m)
                assert trace.accepted_probability == pytest.approx(1.0, abs=1e-12)
                assert trace.bob_outcome_distribution[m] == pytest.approx(1.0, abs=1e-12)

    def test_bad_message(self, identity_instance):
        with pytest.raises(ParameterError):
            honest_run(identity_instance, 2)

    @pytest.mark.parametrize("m", [True, False, 1.0, "1"])
    def test_message_must_be_an_integer(self, identity_instance, m):
        with pytest.raises(ParameterError, match="^message must be an integer"):
            honest_run(identity_instance, m)

    def test_numpy_integer_message_accepted(self, identity_instance):
        trace = honest_run(identity_instance, np.int64(1))
        assert trace.message == 1 and type(trace.message) is int

    def test_matches_checked_measurement(self):
        """The operators built once and the unchecked measurement give the bits
        of the per-run kron construction measured by ``measure_projective``."""
        P0, P1, EYE2, EYE4 = curty_santos.P0, curty_santos.P1, curty_santos.EYE2, curty_santos.EYE4
        instances = seeded_instances(12, 17) + [make_instance(NAMED_UNITARIES[name]()) for name in NAMED_UNITARIES]
        for instance in instances:
            u = instance.tag_unitary.matrix
            encode = np.kron(P0, np.kron(EYE2, EYE4)) + np.kron(P1, np.kron(EYE2, u))
            decode = np.kron(EYE2, np.kron(P0, u.conj().T) + np.kron(P1, EYE4))
            assert [op.tolist() for op in instance.coding_operators] == [encode.tolist(), decode.tolist()]
            for m in (0, 1):
                trace = honest_run(instance, m)
                start = quantum_core.tensor([singlet(), instance.basis[instance.accept_set[m]]])
                decoded = PureState(decode @ (encode @ start.amplitudes), (2, 2, 4))
                checked = quantum_core.measure_projective(partial_trace(decoded, keep=(2,)), instance.basis)
                assert trace.bob_outcome_distribution.tolist() == checked.tolist()


class TestImpersonationAcceptance:
    def test_flip_unitary_floor(self, xi_instance):
        assert impersonation_acceptance(xi_instance, basis_state(0, (2, 2))) == pytest.approx(0.5)

    def test_identity_certain(self, identity_instance):
        assert impersonation_acceptance(identity_instance, basis_state(0, (2, 2))) == pytest.approx(1.0)

    def test_hadamard_value(self, hh_instance):
        value = impersonation_acceptance(hh_instance, basis_state(0, (2, 2)))
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_formula_matches_simulation(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            instance = make_instance(random_unitary((2, 2), rng).matrix)
            psi = random_state((2, 2), rng)
            closed = impersonation_acceptance(instance, psi)
            simulated = simulate_impersonation_acceptance(instance, psi)
            assert abs(closed - simulated) <= 1e-12

    def test_dimension_check(self, identity_instance):
        with pytest.raises(ParameterError):
            impersonation_acceptance(identity_instance, basis_state(0, (2,)))


class TestOptimalImpersonation:
    def test_flip_unitary_reaches_floor(self, xi_instance):
        report = optimal_impersonation(xi_instance)
        assert report.deception_probability == pytest.approx(0.5, abs=1e-9)

    def test_hadamard_value(self, hh_instance):
        report = optimal_impersonation(hh_instance)
        assert report.deception_probability == pytest.approx((2 + math.sqrt(2)) / 4, abs=1e-9)

    def test_hadamard_against_independent_solver_and_search(self, hh_instance):
        operator = attack_operator(hh_instance)
        general = np.linalg.eig(operator.matrix)[0].real.max()
        report = optimal_impersonation(hh_instance)
        assert report.deception_probability == pytest.approx(general, abs=1e-9)
        # seeded random search never beats the eigenvalue and gets close
        rng = np.random.default_rng(33)
        best = max(
            impersonation_acceptance(hh_instance, random_state((2, 2), rng)) for _ in range(3000)
        )
        assert best <= report.deception_probability + 1e-9
        assert best > report.deception_probability - 0.05

    def test_identity_certain(self, identity_instance):
        assert optimal_impersonation(identity_instance).deception_probability == pytest.approx(1.0)

    def test_never_below_half(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            instance = make_instance(random_unitary((2, 2), rng).matrix)
            report = optimal_impersonation(instance)
            basis_best = max(
                impersonation_acceptance(instance, basis_state(j, (2, 2))) for j in (0, 1)
            )
            assert report.deception_probability >= basis_best - 1e-12
            assert report.deception_probability >= 0.5 - 1e-12

    def test_witness_achieves_value(self, hh_instance):
        report = optimal_impersonation(hh_instance)
        achieved = impersonation_acceptance(hh_instance, report.witness_state)
        assert achieved == pytest.approx(report.deception_probability, abs=1e-10)


class TestConditionsAndSubstitution:
    def test_condition_13(self, xi_instance, identity_instance, hh_instance):
        assert condition_13_holds(xi_instance).holds
        assert not condition_13_holds(identity_instance).holds
        report = condition_13_holds(hh_instance)
        assert not report.holds
        assert report.diagonal_overlaps == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_substitution_conclusive(self, xi_instance, identity_instance, hh_instance):
        assert substitution_conclusive_probability(xi_instance, 0) == pytest.approx(1.0)
        assert substitution_conclusive_probability(identity_instance, 0) == pytest.approx(0.0)
        assert substitution_conclusive_probability(hh_instance, 0) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ParameterError):
            substitution_conclusive_probability(xi_instance, 3)

    def test_conclusive_one_iff_condition13_per_message(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            instance = make_instance(random_unitary((2, 2), rng).matrix)
            cond = condition_13_holds(instance)
            for m in (0, 1):
                conclusive = substitution_conclusive_probability(instance, m)
                assert (conclusive >= 1.0 - 1e-9) == cond.per_message[m]


class TestNoGoDichotomy:
    def test_flip_unitary_side(self, xi_instance):
        report = incompatibility_report(xi_instance)
        assert report.impersonation_at_floor
        assert not report.substitution_blocked  # conclusive discrimination is certain
        assert not report.simultaneously_secure

    def test_hadamard_side(self, hh_instance):
        report = incompatibility_report(hh_instance)
        assert report.substitution_blocked
        assert not report.impersonation_at_floor
        assert not report.simultaneously_secure
        assert report.witness_overlap == pytest.approx(0.5, abs=1e-12)

    def test_floor_implies_condition13(self):
        # one true direction of the dichotomy, over random instances
        rng = np.random.default_rng(36)
        for _ in range(100):
            instance = make_instance(random_unitary((2, 2), rng).matrix)
            report = incompatibility_report(instance)
            if report.impersonation_probability <= 0.5 + 1e-9:
                assert report.condition_13.holds
                assert all(c >= 1.0 - 1e-9 for c in report.substitution_conclusive)

    def test_sweep_never_simultaneously_secure(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            instance = make_instance(random_unitary((2, 2), rng).matrix)
            assert not incompatibility_report(instance).simultaneously_secure


def diagonal_overlap(instance: CurtySantosInstance, m: int) -> complex:
    """<phi_m|U|phi_m> for the message's accepted basis index."""
    j = instance.accept_set[m]
    return complex(np.vdot(instance.basis[j].amplitudes, instance.tag_unitary.matrix @ instance.basis[j].amplitudes))


def condition_13_holds(instance: CurtySantosInstance) -> Condition13Report:
    """Whether <phi_m|U|phi_m> vanishes for each message (the floor condition)."""
    overlaps = tuple(abs(diagonal_overlap(instance, m)) for m in (0, 1))
    per_message = tuple(o <= CONDITION_TOL for o in overlaps)
    return Condition13Report(diagonal_overlaps=overlaps, per_message=per_message, holds=all(per_message))


def substitution_conclusive_probability(instance: CurtySantosInstance, m: int) -> float:
    """Rate of conclusive unambiguous discrimination between |phi_m> and
    U|phi_m> at equal priors: 1 - |<phi_m|U|phi_m>|. A conclusive outcome
    lets the adversary forge the flipped message with certainty; no success
    rate is assigned to the inconclusive branch."""
    m = _check_message(m)
    return 1.0 - min(1.0, abs(diagonal_overlap(instance, m)))


def reference_incompatibility_report(instance: CurtySantosInstance, tol: float = VERDICT_TOL) -> IncompatibilityReport:
    """The per-instance report as it was before the batched kernel: one
    eigenpair and two diagonal overlaps per instance."""
    cond13 = condition_13_holds(instance)
    conclusive = tuple(substitution_conclusive_probability(instance, m) for m in (0, 1))
    cond14 = tuple(o > CONDITION_TOL for o in cond13.diagonal_overlaps)
    impersonation = optimal_impersonation(instance).deception_probability
    at_floor = impersonation <= 0.5 + tol
    blocked = all(c < 1.0 - tol for c in conclusive)
    overlaps = cond13.diagonal_overlaps
    witness = int(np.argmax(overlaps)) if max(overlaps) > CONDITION_TOL else 0
    return IncompatibilityReport(
        condition_13=cond13,
        condition_14_per_message=cond14,
        impersonation_probability=impersonation,
        substitution_conclusive=conclusive,
        impersonation_at_floor=at_floor,
        substitution_blocked=blocked,
        simultaneously_secure=at_floor and blocked,
        witness_message=witness,
        witness_overlap=overlaps[witness],
    )


ACCEPT_SETS = list(itertools.permutations(range(4), 2))


def error_message(call) -> str:
    with pytest.raises(ParameterError) as info:
        call()
    return str(info.value)


def decided_reports(unitaries, frame: CurtySantosInstance) -> list[IncompatibilityReport]:
    """The reports ``_decide`` gives for a stack of tagging unitaries on the checked frame of ``frame``."""
    stack = np.array([gate.matrix for gate in unitaries])
    return curty_santos._reports(curty_santos._decide(stack, frame.basis, frame.accept_set)[3])


class TestBatchedReports:
    """The stacked kernel ``_decide`` and its doors against the per-instance reference, compared with ==."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 8),
        computational=st.booleans(),
        accept=st.sampled_from(ACCEPT_SETS),
    )
    def test_matches_reference(self, seed, count, computational, accept):
        rng = np.random.default_rng(seed)
        unitaries = random_unitaries(count, (2, 2), rng)
        basis = None if computational else [PureState(row) for row in random_unitary(4, rng).matrix]
        instances = [CurtySantosInstance(tag_unitary=u, basis=basis, accept_set=accept) for u in unitaries]
        expected = [reference_incompatibility_report(instance) for instance in instances]
        assert decided_reports(unitaries, instances[0]) == expected
        assert incompatibility_report(instances[0]) == expected[0]

    @pytest.mark.parametrize("accept", ACCEPT_SETS)
    def test_named_unitaries_on_the_thresholds(self, accept):
        unitaries = [UnitaryOperator(NAMED_UNITARIES[name](), (2, 2)) for name in ("identity", "xi", "hh")]
        instances = [CurtySantosInstance(tag_unitary=u, accept_set=accept) for u in unitaries]
        expected = [reference_incompatibility_report(instance) for instance in instances]
        assert decided_reports(unitaries, instances[0]) == expected
        assert not any(report.simultaneously_secure for report in expected)

    def test_verdict_columns_on_the_default_frame(self):
        # named unitaries on the thresholds, then Haar ones, in one stack
        unitaries = [UnitaryOperator(NAMED_UNITARIES[name](), (2, 2)) for name in ("identity", "xi", "hh")]
        unitaries += random_unitaries(13, (2, 2), np.random.default_rng(5))
        columns = curty_santos.verdict_columns(np.array([gate.matrix for gate in unitaries]))
        expected = [reference_incompatibility_report(CurtySantosInstance(tag_unitary=u)) for u in unitaries]
        assert curty_santos._reports(columns) == expected

    def test_wrong_dimension_in_stack(self):
        small = UnitaryOperator(np.eye(2, dtype=complex))
        assert error_message(lambda: CurtySantosInstance(tag_unitary=small)) == "tagging unitary must be 4x4, got 2"

    def test_nan_attack_operator_fails_hermiticity_check(self):
        # a gate that skipped its unitarity check must stop at the stacked
        # hermiticity check, not in the eigensolver
        broken = _trusted(UnitaryOperator, np.full((4, 4), math.nan, dtype=complex), (2, 2))
        instance = CurtySantosInstance(tag_unitary=broken)
        assert "not Hermitian" in error_message(lambda: incompatibility_report(instance))

    @pytest.mark.parametrize(
        "basis,accept,message",
        [
            ("skew", (0, 1), "basis is not orthonormal"),
            ("short", (0, 1), "basis must contain four states"),
            (None, (0, 0), "accept set must be two distinct basis indices"),
            (None, (0, 4), "accept set must be two distinct basis indices"),
            (None, (1,), "accept set must be two distinct basis indices"),
            (None, (0, 1, 2), "accept set must be two distinct basis indices"),
        ],
        ids=["skew-basis", "short-basis", "accept-repeated", "accept-out-of-range", "accept-one", "accept-three"],
    )
    def test_bad_frame_rejected_as_the_instance_rejects_it(self, basis, accept, message):
        # the instance is the one door to a frame: verdict_columns fixes the default one
        states = [basis_state(j, (2, 2)) for j in range(4)]
        if basis == "skew":
            states[1] = PureState((states[0].amplitudes + states[1].amplitudes) / math.sqrt(2))
            basis = states
        elif basis == "short":
            basis = states[:3]
        identity = UnitaryOperator(np.eye(4, dtype=complex), (2, 2))
        rejection = error_message(lambda: CurtySantosInstance(tag_unitary=identity, basis=basis, accept_set=accept))
        assert rejection.startswith(message)


class TestSweepColumns:
    """``verdict_columns`` on Haar unitaries and the ``cs-nogo-sweep`` rows against
    ``incompatibility_report`` of ``random_unitaries``, and those against the
    per-instance reference, compared with ==."""

    # 256 unitaries of 4 x 4 fill one draw of normals, so 257 and 600 cross draw boundaries
    @pytest.mark.parametrize("count", [1, 256, 257, 600])
    def test_matches_reports_of_drawn_unitaries(self, count):
        stack_rng, reference_rng = np.random.default_rng(count), np.random.default_rng(count)
        columns = curty_santos.verdict_columns(quantum_core.haar_unitaries(count, (2, 2), stack_rng))
        instances = [CurtySantosInstance(tag_unitary=u) for u in random_unitaries(count, (2, 2), reference_rng)]
        expected = [incompatibility_report(instance) for instance in instances]
        assert curty_santos._reports(columns) == expected
        assert stack_rng.bit_generator.state == reference_rng.bit_generator.state
        assert expected == [reference_incompatibility_report(instance) for instance in instances]
        config = cli.ScenarioConfig("CurtySantos", {}, seed=count)  # the runner draws from seed count too
        report = cli._run_curty_santos({"random_sweep": {"count": count}}, config)
        assert report["rows"] == [
            {
                "index": index,
                "impersonation": nogo.impersonation_probability,
                "conclusive": list(nogo.substitution_conclusive),
                "at_floor": nogo.impersonation_at_floor,
                "blocked": nogo.substitution_blocked,
                "secure": nogo.simultaneously_secure,
            }
            for index, nogo in enumerate(expected)
        ]
        assert report["simultaneously_secure_count"] == sum(nogo.simultaneously_secure for nogo in expected)
        assert report["min_impersonation"] == min(nogo.impersonation_probability for nogo in expected)

    def test_wrong_matrix_shape_rejected(self):
        assert "4x4" in error_message(lambda: curty_santos.verdict_columns(np.zeros((2, 2, 2), dtype=complex)))


# The unitaries of the cs-unitary and cs-instance report inputs: the swap of
# the two qubits, and H on the first qubit over a permuted basis accepting (2, 0).
SWAP_INSTANCE = make_instance(np.eye(4)[[0, 2, 1, 3]])
PERMUTED_BASIS_INSTANCE = CurtySantosInstance(
    tag_unitary=UnitaryOperator(np.kron(H, np.eye(2)), (2, 2)),
    basis=[PureState(row, (4,)) for row in np.eye(4)[[3, 1, 2, 0]]],
    accept_set=(2, 0),
)


def seeded_instances(count: int, seed: int) -> list[CurtySantosInstance]:
    """Haar tagging unitaries, every other one over a Haar basis, with accept sets in turn."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(count):
        gate = random_unitary((2, 2), rng)
        basis = [PureState(row) for row in random_unitary(4, rng).matrix] if i % 2 else None
        instances.append(CurtySantosInstance(tag_unitary=gate, basis=basis, accept_set=ACCEPT_SETS[i % len(ACCEPT_SETS)]))
    return instances


def count_instance_work(monkeypatch) -> CallCounter:
    counter = CallCounter(monkeypatch)
    for name in ("_attack_operators", "check_hermitian", "_checked_basis", "_checked_accept_set",
                 "measure_projective", "attack_operator", "optimal_impersonation"):
        counter.count(curty_santos, name)
    counter.count(np.linalg, "eigh")
    counter.count(np.linalg, "eigvalsh")
    return counter


INSTANCE_WORK = {
    "_attack_operators": 1,
    "check_hermitian": 1,
    "eigh": 1,
    "eigvalsh": 1,
    "_checked_basis": 0,
    "_checked_accept_set": 0,
    "measure_projective": 0,
    "attack_operator": 0,
    "optimal_impersonation": 0,
}


class TestInstanceAnalysis:
    """``analyze_instance`` against the per-instance reference path, compared with ==."""

    @staticmethod
    def assert_matches_reference(instance):
        witness, report, spectrum = analyze_instance(instance)
        reference = optimal_impersonation(instance)
        assert report.impersonation_probability == reference.deception_probability
        assert witness.amplitudes.tolist() == reference.witness_state.amplitudes.tolist()
        assert witness.dims == reference.witness_state.dims
        assert spectrum.tolist() == np.linalg.eigvalsh(attack_operator(instance).matrix).tolist()
        assert report == incompatibility_report(instance)

    @pytest.mark.parametrize("name", ["identity", "xi", "hh"])
    def test_named_unitaries(self, name):
        self.assert_matches_reference(make_instance(NAMED_UNITARIES[name]()))

    @pytest.mark.parametrize("instance", [SWAP_INSTANCE, PERMUTED_BASIS_INSTANCE], ids=["cs-unitary", "cs-instance"])
    def test_report_inputs(self, instance):
        self.assert_matches_reference(instance)

    def test_seeded_instances(self):
        for instance in seeded_instances(240, 41):
            self.assert_matches_reference(instance)

    @pytest.mark.parametrize("instance", [SWAP_INSTANCE, PERMUTED_BASIS_INSTANCE], ids=["cs-unitary", "cs-instance"])
    def test_one_build_one_check_one_eigensolve(self, instance, monkeypatch):
        counter = count_instance_work(monkeypatch)
        counter.count(quantum_core, "check_hermitian")  # HermitianOperator's check too
        analyze_instance(instance)
        assert counter.calls == INSTANCE_WORK

    @pytest.mark.parametrize("name", ["xi", "hh"])
    def test_cli_report_builds_and_diagonalises_once(self, name, monkeypatch):
        instance = make_instance(NAMED_UNITARIES[name]())
        counter = count_instance_work(monkeypatch)
        counter.count(curty_santos, "_born_probabilities")
        counter.count(quantum_core, "_kron")
        counter.count(curty_santos, "_kron")
        counter.count(np, "kron")
        cli._cs_instance_report(instance)
        # the two honest runs measure without measure_projective's checks (no eigvalsh),
        # build the coding operators once (4 products) and one start state each (1 product),
        # every product through quantum_core._kron and none through np.kron
        expected = dict(INSTANCE_WORK, _born_probabilities=2, _kron=6, kron=0)
        assert counter.calls == expected

    def test_random_sweep_decides_with_one_eigh(self, tmp_path, monkeypatch):
        counter = CallCounter(monkeypatch)
        counter.count(np.linalg, "eigh")
        counter.count(UnitaryOperator, "__post_init__")
        trusted = []
        real_trusted = quantum_core._trusted
        monkeypatch.setattr(
            quantum_core, "_trusted", lambda kind, *args: trusted.append(kind) or real_trusted(kind, *args)
        )
        assert cli.run("cs-nogo-sweep", output=str(tmp_path / "sweep.json"), stdout=io.StringIO()) == 0
        assert counter.calls == {"eigh": 1, "__post_init__": 0}
        assert UnitaryOperator not in trusted


class TestEmbedding:
    def test_embedding_is_valid_scheme(self, hh_instance):
        scheme = as_qmac_scheme(hh_instance)
        validate_scheme(scheme)
        assert scheme.tags_per_message == 2
        blocks = scheme.blocks[0]
        assert sorted(scheme.labels[p] for p in blocks) == [(0, 0), (1, 0)]
        assert all(size == 1 for size in blocks.values())

    def test_embedding_tag_states(self, xi_instance):
        scheme = as_qmac_scheme(xi_instance)
        state = scheme.states[scheme.index[0][1]]  # key 1 applies U to |00>
        assert np.allclose(state, basis_state(2, (2, 2)).amplitudes)

    def test_embedding_overlaps_match_diagonals(self, hh_instance):
        scheme = as_qmac_scheme(hh_instance)
        for m in (0, 1):
            _, lam = overlap_matrix(scheme, m)
            expected = abs(diagonal_overlap(hh_instance, m))
            assert lam[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_embedding_impersonation_value(self, hh_instance):
        # framework evaluation with tag states as forgeries: 1/2 + 1/2 * lambda^2
        scheme = as_qmac_scheme(hh_instance)
        report = impersonation_deception(scheme)
        assert report.deception_probability == pytest.approx(0.625, abs=1e-12)

    def test_embedding_json_loads(self, hh_instance):
        doc = scheme_to_json_dict(as_qmac_scheme(hh_instance))
        back = scheme_from_json_dict(doc)
        validate_scheme(back)
        report = impersonation_deception(back)
        assert report.deception_probability == pytest.approx(0.625, abs=1e-12)


class TestInstanceValidation:
    def test_singlet_is_normalized(self):
        s = singlet()
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0)
        assert s.dims == (2, 2)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ParameterError):
            CurtySantosInstance(tag_unitary=UnitaryOperator(np.eye(2, dtype=complex)))

    def test_bad_basis_rejected(self):
        skew = [
            basis_state(0, (2, 2)),
            PureState((basis_state(0, (2, 2)).amplitudes + basis_state(1, (2, 2)).amplitudes) / math.sqrt(2)),
            basis_state(2, (2, 2)),
            basis_state(3, (2, 2)),
        ]
        with pytest.raises(ParameterError):
            CurtySantosInstance(
                tag_unitary=UnitaryOperator(np.eye(4, dtype=complex)), basis=skew
            )

    def test_bad_accept_set(self):
        with pytest.raises(ParameterError):
            CurtySantosInstance(
                tag_unitary=UnitaryOperator(np.eye(4, dtype=complex)), accept_set=(0, 0)
            )

    @pytest.mark.parametrize(
        "accept", [(0.0, 1.0), (False, 1), (0, True), ("0", "1")], ids=["floats", "false", "true", "str"]
    )
    def test_accept_set_indices_must_be_integers(self, accept):
        with pytest.raises(ParameterError, match="^accept set index must be an integer"):
            CurtySantosInstance(tag_unitary=UnitaryOperator(np.eye(4, dtype=complex)), accept_set=accept)

    def test_numpy_integer_accept_set_accepted(self):
        identity = UnitaryOperator(np.eye(4, dtype=complex))
        instance = CurtySantosInstance(tag_unitary=identity, accept_set=np.array([2, 0]))
        assert instance.accept_set == (2, 0) and all(type(j) is int for j in instance.accept_set)

    def test_json_round_trip(self, hh_instance):
        doc = {
            "unitary": operator_to_json_dict(hh_instance.tag_unitary),
            "basis": [state_to_json_dict(s) for s in hh_instance.basis],
            "accept_set": list(hh_instance.accept_set),
        }
        back = instance_from_json_dict(doc)
        assert np.allclose(back.tag_unitary.matrix, hh_instance.tag_unitary.matrix)
        assert optimal_impersonation(back).deception_probability == pytest.approx(
            (2 + math.sqrt(2)) / 4, abs=1e-9
        )
        with pytest.raises(ParameterError):
            instance_from_json_dict({})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("accept_set", 5),
            ("accept_set", [0.0, 1.0]),
            ("accept_set", [[0], [1]]),
            ("basis", 5),
            ("basis", [5]),
        ],
        ids=["accept-int", "accept-floats", "accept-lists", "basis-int", "basis-item-int"],
    )
    def test_malformed_instance_document(self, field, value):
        identity = UnitaryOperator(np.eye(4, dtype=complex), (2, 2))
        doc = {"unitary": operator_to_json_dict(identity), field: value}
        with pytest.raises(ParameterError):
            instance_from_json_dict(doc)
        with pytest.raises(ParameterError):
            instance_from_json_dict([doc])
