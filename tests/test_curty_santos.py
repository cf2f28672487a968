import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from authsim.cli import NAMED_UNITARIES
from authsim.curty_santos import (
    CONDITION_TOL,
    VERDICT_TOL,
    Condition13Report,
    CurtySantosInstance,
    IncompatibilityReport,
    _check_message,
    as_qmac_scheme,
    attack_operator,
    honest_run,
    impersonation_acceptance,
    incompatibility_report,
    incompatibility_reports,
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
    scheme_to_json_dict,
    validate_scheme,
)
from authsim.quantum_core import (
    PureState,
    UnitaryOperator,
    _trusted,
    basis_state,
    operator_to_json_dict,
    partial_trace,
    random_state,
    random_unitaries,
    random_unitary,
    state_to_json_dict,
)

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
        # half |00><00| + half |10><10|: direct construction vs partial trace
        trace = honest_run(xi_instance, 0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[2, 2] = 0.5
        assert np.allclose(trace.transmitted_density.matrix, expected, atol=1e-12)
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


class TestBatchedReports:
    """``incompatibility_reports`` against the per-instance reference, compared with ==."""

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
        assert incompatibility_reports(unitaries, basis, accept) == expected
        assert incompatibility_report(instances[0]) == expected[0]

    @pytest.mark.parametrize("accept", ACCEPT_SETS)
    def test_named_unitaries_on_the_thresholds(self, accept):
        unitaries = [UnitaryOperator(NAMED_UNITARIES[name](), (2, 2)) for name in ("identity", "xi", "hh")]
        expected = [
            reference_incompatibility_report(CurtySantosInstance(tag_unitary=u, accept_set=accept))
            for u in unitaries
        ]
        assert incompatibility_reports(unitaries, accept_set=accept) == expected
        assert not any(report.simultaneously_secure for report in expected)

    def test_empty_stack_rejected(self):
        assert "empty" in error_message(lambda: incompatibility_reports([]))

    def test_wrong_dimension_in_stack(self):
        small = UnitaryOperator(np.eye(2, dtype=complex))
        stack = [UnitaryOperator(np.eye(4, dtype=complex), (2, 2)), small]
        assert error_message(lambda: incompatibility_reports(stack)) == error_message(
            lambda: CurtySantosInstance(tag_unitary=small)
        )

    def test_nan_attack_operator_fails_hermiticity_check(self):
        # a gate that skipped its unitarity check must stop at the stacked
        # hermiticity check, not in the eigensolver
        broken = _trusted(UnitaryOperator, np.full((4, 4), math.nan, dtype=complex), (2, 2))
        assert "not Hermitian" in error_message(lambda: incompatibility_reports([broken]))

    @pytest.mark.parametrize(
        "basis,accept",
        [
            ("skew", (0, 1)),
            ("short", (0, 1)),
            (None, (0, 0)),
            (None, (0, 4)),
            (None, (1,)),
            (None, (0, 1, 2)),
        ],
        ids=["skew-basis", "short-basis", "accept-repeated", "accept-out-of-range", "accept-one", "accept-three"],
    )
    def test_bad_frame_rejected_as_the_instance_rejects_it(self, basis, accept):
        states = [basis_state(j, (2, 2)) for j in range(4)]
        if basis == "skew":
            states[1] = PureState((states[0].amplitudes + states[1].amplitudes) / math.sqrt(2))
            basis = states
        elif basis == "short":
            basis = states[:3]
        identity = UnitaryOperator(np.eye(4, dtype=complex), (2, 2))
        assert error_message(lambda: incompatibility_reports([identity], basis, accept)) == error_message(
            lambda: CurtySantosInstance(tag_unitary=identity, basis=basis, accept_set=accept)
        )


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
