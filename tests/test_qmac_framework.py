import gc
import io
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from authsim.errors import InvariantViolation, ParameterError
from authsim.qmac_framework import (
    OVERLAP_TOL,
    AttackReport,
    DecisionRule,
    QmacScheme,
    Theorem2Report,
    impersonation_deception,
    max_offdiagonal_overlap,
    overlap_matrix,
    pair_overlaps,
    random_scheme,
    random_scheme_reports,
    scheme_from_json_dict,
    validate_scheme,
    verify_theorem2,
)
from authsim import cli, qmac_framework, quantum_core, symmetry_test
from authsim.quantum_core import (
    STACK_ENTRIES,
    PureState,
    UnitaryOperator,
    basis_state,
    overlap,
    random_unitaries,
)
from authsim.symmetry_test import acceptance_error_formula
from testkit import CallCounter, scheme_to_json_dict

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return UnitaryOperator(np.array([[c, -s], [s, c]], dtype=complex))


def two_key_qubit_scheme(theta):
    """Keys 0/1 tag with identity / rotation by theta; labels carry (k, m)."""
    return QmacScheme(
        message_set=(0, 1),
        key_set=(0, 1),
        label_fn=lambda k, m: (k, m),
        tag_unitaries={
            (0, 0): rotation(0.0),
            (1, 0): rotation(theta),
            (0, 1): rotation(math.pi / 2),
            (1, 1): rotation(math.pi / 2 + theta),
        },
        initial_state=basis_state(0, (2,)),
    )


def orthogonal_tag_scheme(num_keys=3):
    """Classical-equivalent: tags are distinct basis states of a num_keys-level system."""
    shift = np.roll(np.eye(num_keys, dtype=complex), 1, axis=0)
    powers = {k: np.linalg.matrix_power(shift, k) for k in range(num_keys)}
    return QmacScheme(
        message_set=(0, 1),
        key_set=tuple(range(num_keys)),
        label_fn=lambda k, m: (k, m),
        tag_unitaries={
            (k, m): UnitaryOperator(powers[k]) for k in range(num_keys) for m in (0, 1)
        },
        initial_state=basis_state(0, (num_keys,)),
    )


def realized_labels(scheme: QmacScheme, message) -> tuple:
    """Labels reached for a message, read off the compiled blocks."""
    mi = scheme.message_set.index(message)
    return tuple(scheme.labels[p] for p in scheme.blocks[mi])


def partition_keys(scheme: QmacScheme, message) -> dict:
    """Key blocks per realized label, read off the compiled index."""
    mi = scheme.message_set.index(message)
    blocks: dict = {p: [] for p in scheme.blocks[mi]}
    for key, p in zip(scheme.key_set, scheme.index[mi]):
        blocks[p].append(key)
    return {scheme.labels[p]: tuple(keys) for p, keys in blocks.items()}


def brute_force_impersonation(scheme, rule):
    """Independent evaluation: enumerate the forged label, weight the exact
    guess by 1/|T|, and compute Bob's mismatch acceptance by simulation."""
    tag_count = scheme.tags_per_message
    floor = 1.0 / tag_count
    best = floor  # no pair at all means pure guessing
    for message in scheme.message_set:
        blocks = reference_partition_keys(scheme, message)
        states = {
            label: tag_state(scheme, keys[0], message) for label, keys in blocks.items()
        }
        for forged_label, forged in states.items():
            for true_label, expected in states.items():
                if true_label == forged_label:
                    continue
                if rule.kind == "projective":
                    accept = abs(overlap(expected, forged)) ** 2
                else:
                    from authsim.symmetry_test import acceptance_error_oracle

                    accept = acceptance_error_oracle(rule.copies, expected, forged)
                best = max(best, floor + (1.0 - floor) * accept)
    return best


# ---------------------------------------------------------------------------
# Reference: the two-pass path that walks label_fn again in every function and
# builds each overlap matrix twice per verify_theorem2, kept verbatim as the
# oracle of the compiled table.


def apply(gate: UnitaryOperator, state: PureState) -> PureState:
    return PureState(gate.matrix @ state.amplitudes, state.dims)


def tag_state(scheme: QmacScheme, key, message) -> PureState:
    """Quantum tag E_f(k,m) |psi_in> for one key/message pair."""
    label = scheme.label_fn(key, message)
    gate = scheme.tag_unitaries.get(label)
    if gate is None:
        raise ParameterError(f"label {label!r} has no tagging unitary")
    return apply(gate, scheme.initial_state)


def reference_realized_labels(scheme: QmacScheme, message) -> tuple:
    """Labels reached for a message, in first-appearance order over the keys."""
    if message not in scheme.message_set:
        raise ParameterError(f"unknown message {message!r}")
    seen = []
    for key in scheme.key_set:
        label = scheme.label_fn(key, message)
        if label not in seen:
            seen.append(label)
    return tuple(seen)


def reference_partition_keys(scheme: QmacScheme, message) -> dict:
    """Key blocks per realized label; raises if the partition is not uniform.

    Blocks must be disjoint (automatic), cover the key set, all have size
    ``multiplicity``, and number |K|/multiplicity.
    """
    if message not in scheme.message_set:
        raise ParameterError(f"unknown message {message!r}")
    blocks: dict = {}
    for key in scheme.key_set:
        blocks.setdefault(scheme.label_fn(key, message), []).append(key)
    n_keys = len(scheme.key_set)
    if n_keys % scheme.multiplicity != 0:
        raise InvariantViolation(
            f"key count {n_keys} is not a multiple of multiplicity {scheme.multiplicity}"
        )
    for label, keys in blocks.items():
        if len(keys) != scheme.multiplicity:
            raise InvariantViolation(
                f"symmetry violation at message {message!r}, label {label!r}: "
                f"block size {len(keys)} != multiplicity {scheme.multiplicity}"
            )
    expected_blocks = n_keys // scheme.multiplicity
    if len(blocks) != expected_blocks:
        raise InvariantViolation(
            f"symmetry violation at message {message!r}: {len(blocks)} labels realized, "
            f"expected |K|/L = {expected_blocks}"
        )
    return {label: tuple(keys) for label, keys in blocks.items()}


def reference_validate_scheme(scheme: QmacScheme) -> None:
    """Uniform partition for every message + label injectivity per key."""
    for message in scheme.message_set:
        reference_partition_keys(scheme, message)
    for key in scheme.key_set:
        seen: dict = {}
        for message in scheme.message_set:
            label = scheme.label_fn(key, message)
            if label in seen:
                raise InvariantViolation(
                    f"key {key!r} maps messages {seen[label]!r} and {message!r} "
                    f"to the same label {label!r}"
                )
            seen[label] = message


def reference_overlap_matrix(scheme: QmacScheme, message) -> tuple[tuple, np.ndarray]:
    """Pairwise tag-state overlaps |<Psi_tau'|Psi_tau>| for one message.

    Returns (labels, matrix) with labels in realization order; the matrix is
    symmetric with unit diagonal.
    """
    labels = reference_realized_labels(scheme, message)
    blocks = {label: None for label in labels}
    for key in scheme.key_set:
        label = scheme.label_fn(key, message)
        if blocks.get(label) is None:
            blocks[label] = tag_state(scheme, key, message)
    states = [blocks[label] for label in labels]
    size = len(states)
    lam = np.eye(size)
    for i in range(size):
        for j in range(i + 1, size):
            lam[i, j] = lam[j, i] = abs(overlap(states[i], states[j]))
    return labels, lam


def reference_max_offdiagonal_overlap(scheme: QmacScheme) -> float:
    """Largest tag overlap across all messages and distinct label pairs."""
    best = 0.0
    for message in scheme.message_set:
        _, lam = reference_overlap_matrix(scheme, message)
        if lam.shape[0] > 1:
            off = lam - np.diag(np.diag(lam))
            best = max(best, float(off.max()))
    return best


def reference_wrong_tag_acceptance(rule: DecisionRule, lam) -> float:
    """Bob's acceptance of a wrong tag at overlap lam, one closed form per call."""
    if rule.kind == "projective":
        lam = float(lam)
        return lam * lam
    return acceptance_error_formula(rule.copies, lam)


def reference_impersonation_deception(
    scheme: QmacScheme, rule: DecisionRule | None = None
) -> AttackReport:
    """Best impersonation success against the scheme under Bob's rule.

    The forger guesses the right tag with probability 1/|T|; otherwise Bob
    accepts the mismatched tag with probability Q given by the rule and the
    pair's overlap, maximized exhaustively over messages and distinct label
    pairs (first maximizer in scan order wins ties). The mean-Q variant is
    reported alongside.
    """
    rule = rule or DecisionRule("projective")
    reference_validate_scheme(scheme)
    tag_count = scheme.tags_per_message
    floor = 1.0 / tag_count

    best_q = 0.0
    witness = None
    q_values = []
    for message in scheme.message_set:
        labels, lam = reference_overlap_matrix(scheme, message)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                q = reference_wrong_tag_acceptance(rule, lam[i, j])
                q_values.append(q)
                q_values.append(q)  # both orderings of the pair
                if q > best_q:
                    best_q = q
                    witness = (message, (labels[j], labels[i]))
    mean_q = sum(q_values) / len(q_values) if q_values else 0.0

    witness_state = None
    witness_message = None
    witness_labels = None
    strategy = "guess a tag uniformly (single-label scheme)"
    if witness is not None:
        witness_message, (forged, expected) = witness
        witness_labels = (expected, forged)
        witness_state = apply(scheme.tag_unitaries[forged], scheme.initial_state)
        strategy = (
            f"send message {witness_message!r} with the tag state of label {forged!r}; "
            f"worst confusion against expected label {expected!r}"
        )
    return AttackReport(
        deception_probability=floor + (1.0 - floor) * best_q,
        classical_floor=floor,
        witness_message=witness_message,
        witness_labels=witness_labels,
        witness_state=witness_state,
        witness_strategy=strategy,
        deception_probability_average=floor + (1.0 - floor) * mean_q,
    )


def reference_verify_theorem2(scheme: QmacScheme) -> Theorem2Report:
    """Margin of the impersonation probability over 1/|T| (projective rule).

    Overlaps at or below the 1e-9 tolerance are treated as orthogonal, so the
    margin is exactly zero for classical-equivalent schemes and strictly
    positive otherwise.
    """
    attack = reference_impersonation_deception(scheme, DecisionRule("projective"))
    lam_max = reference_max_offdiagonal_overlap(scheme)
    classical = lam_max <= OVERLAP_TOL
    p0 = attack.classical_floor if classical else attack.deception_probability
    return Theorem2Report(
        p0=p0,
        classical_floor=attack.classical_floor,
        margin=p0 - attack.classical_floor,
        max_overlap=lam_max,
        classical_equivalent=classical,
        attack=attack,
    )


# ---------------------------------------------------------------------------


class TestTagState:
    def test_identity_tagging(self):
        scheme = two_key_qubit_scheme(0.0)
        for p in scheme.index[0]:
            assert np.allclose(scheme.states[p], basis_state(0, (2,)).amplitudes)

    def test_same_label_same_state(self):
        scheme = QmacScheme(
            message_set=(0, 1),
            key_set=(0, 1, 2, 3),
            label_fn=lambda k, m: (k % 2, m),  # two keys per label: L = 2
            tag_unitaries={
                (b, m): rotation(b * 0.7 + m) for b in (0, 1) for m in (0, 1)
            },
            initial_state=basis_state(0, (2,)),
            multiplicity=2,
        )
        assert len(scheme.labels) == 4
        assert scheme.index[0][0] == scheme.index[0][2]
        assert np.allclose(scheme.states[scheme.index[0][0]], tag_state(scheme, 2, 0).amplitudes)

    def test_missing_unitary(self):
        scheme = QmacScheme(
            message_set=(0, 1),
            key_set=(0, 1),
            label_fn=lambda k, m: (k, m),
            tag_unitaries={(0, 0): rotation(0.0)},
            initial_state=basis_state(0, (2,)),
        )
        # labels in first-appearance order: (0, 0), (1, 0), (0, 1), (1, 1)
        with pytest.raises(ParameterError, match=r"^label \(1, 0\) has no tagging unitary$"):
            scheme.states


class TestOverlapMatrix:
    def test_orthogonal_tags_identity_matrix(self):
        scheme = orthogonal_tag_scheme()
        for m in (0, 1):
            _, lam = overlap_matrix(scheme, m)
            assert np.allclose(lam, np.eye(3), atol=1e-12)

    def test_rotation_overlap(self):
        theta = 0.4
        scheme = two_key_qubit_scheme(theta)
        labels, lam = overlap_matrix(scheme, 0)
        assert labels == ((0, 0), (1, 0))
        assert lam[0, 1] == pytest.approx(abs(math.cos(theta)), abs=1e-12)
        assert lam[0, 0] == lam[1, 1] == 1.0

    def test_single_label_scheme(self):
        scheme = QmacScheme(
            message_set=(0, 1),
            key_set=(0,),
            label_fn=lambda k, m: m,
            tag_unitaries={0: rotation(0.0), 1: rotation(1.0)},
            initial_state=basis_state(0, (2,)),
        )
        _, lam = overlap_matrix(scheme, 0)
        assert lam.shape == (1, 1) and lam[0, 0] == 1.0


class TestPartitionKeys:
    def test_uniform_blocks(self):
        scheme = QmacScheme(
            message_set=(0, 1),
            key_set=(0, 1, 2, 3),
            label_fn=lambda k, m: (k % 2, m),
            tag_unitaries={(b, m): rotation(b + m) for b in (0, 1) for m in (0, 1)},
            initial_state=basis_state(0, (2,)),
            multiplicity=2,
        )
        validate_scheme(scheme)
        blocks = partition_keys(scheme, 0)
        assert len(blocks) == 2
        assert all(len(keys) == 2 for keys in blocks.values())
        assert sorted(k for keys in blocks.values() for k in keys) == [0, 1, 2, 3]

    def test_non_symmetric_label_fn_diagnosed(self):
        scheme = QmacScheme(
            message_set=(0, 1),
            key_set=(0, 1, 2),
            label_fn=lambda k, m: (min(k, 1), m),  # block sizes 2 and 1
            tag_unitaries={(b, m): rotation(b + m) for b in (0, 1) for m in (0, 1)},
            initial_state=basis_state(0, (2,)),
        )
        with pytest.raises(InvariantViolation) as err:
            validate_scheme(scheme)
        assert "message 0" in str(err.value)

    def test_injectivity_across_messages(self):
        scheme = QmacScheme(
            message_set=(0, 1),
            key_set=(0, 1),
            label_fn=lambda k, m: k,  # same label for both messages
            tag_unitaries={0: rotation(0.0), 1: rotation(1.0)},
            initial_state=basis_state(0, (2,)),
        )
        with pytest.raises(InvariantViolation):
            validate_scheme(scheme)

    def test_partition_property_random_schemes(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            scheme = random_scheme(rng, dim=3, num_keys=4, num_messages=3)
            validate_scheme(scheme)
            for m in scheme.message_set:
                blocks = partition_keys(scheme, m)
                all_keys = [k for keys in blocks.values() for k in keys]
                assert sorted(all_keys) == sorted(scheme.key_set)
                assert all(len(keys) == scheme.multiplicity for keys in blocks.values())


class TestImpersonationDeception:
    def test_orthogonal_tags_hit_floor_exactly(self):
        scheme = orthogonal_tag_scheme()
        report = impersonation_deception(scheme)
        assert report.deception_probability == report.classical_floor == 1.0 / 3.0

    def test_half_overlap_value(self):
        theta = math.acos(0.5)  # overlap 1/2 between the two tags
        scheme = two_key_qubit_scheme(theta)
        report = impersonation_deception(scheme)
        assert report.deception_probability == pytest.approx(0.5 + 0.5 * 0.25, abs=1e-12)

    def test_any_overlap_beats_floor(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            scheme = random_scheme(rng)
            report = impersonation_deception(scheme)
            assert report.deception_probability > report.classical_floor

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        rule = DecisionRule("projective")
        for _ in range(20):
            scheme = random_scheme(rng, dim=2, num_keys=3, num_messages=2)
            expected = brute_force_impersonation(scheme, rule)
            report = impersonation_deception(scheme, rule)
            assert report.deception_probability == pytest.approx(expected, abs=1e-12)

    def test_symmetry_test_rule_matches_brute_force(self):
        rng = np.random.default_rng(24)
        rule = DecisionRule("symmetry-test", 3)
        for _ in range(5):
            scheme = random_scheme(rng)
            expected = brute_force_impersonation(scheme, rule)
            report = impersonation_deception(scheme, rule)
            assert report.deception_probability == pytest.approx(expected, abs=1e-9)

    def test_symmetry_test_rule_formula(self):
        theta = 0.8
        scheme = two_key_qubit_scheme(theta)
        lam = abs(math.cos(theta))
        report = impersonation_deception(scheme, DecisionRule("symmetry-test", 4))
        assert report.deception_probability == pytest.approx(
            0.5 + 0.5 * acceptance_error_formula(4, lam), abs=1e-12
        )

    def test_honest_acceptance_is_one(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            scheme = random_scheme(rng)
            for k in scheme.key_set:
                for m in scheme.message_set:
                    state = tag_state(scheme, k, m)
                    accept = abs(overlap(state, state)) ** 2
                    assert accept == pytest.approx(1.0, abs=1e-12)

    def test_average_between_floor_and_max(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            scheme = random_scheme(rng, num_keys=3)
            report = impersonation_deception(scheme)
            assert (
                report.classical_floor
                <= report.deception_probability_average
                <= report.deception_probability + 1e-12
            )

    def test_witness_describes_maximizer(self):
        scheme = two_key_qubit_scheme(0.4)
        report = impersonation_deception(scheme)
        assert report.witness_message in scheme.message_set
        expected_label, forged_label = report.witness_labels
        assert expected_label != forged_label
        forged = apply(scheme.tag_unitaries[forged_label], scheme.initial_state)
        assert np.allclose(forged.amplitudes, report.witness_state.amplitudes)

    def test_invalid_scheme_rejected(self):
        scheme = QmacScheme(
            message_set=(0, 1),
            key_set=(0, 1),
            label_fn=lambda k, m: k,
            tag_unitaries={0: rotation(0.0), 1: rotation(1.0)},
            initial_state=basis_state(0, (2,)),
        )
        with pytest.raises(InvariantViolation):
            impersonation_deception(scheme)

    def test_attack_report_bounds(self):
        with pytest.raises(ParameterError):
            AttackReport(deception_probability=0.2, classical_floor=0.5)


class TestTheorem2:
    def test_classical_equivalent_margin_zero(self):
        scheme = orthogonal_tag_scheme()
        report = verify_theorem2(scheme)
        assert report.classical_equivalent
        assert report.margin == 0.0
        assert report.p0 == report.classical_floor
        assert max_offdiagonal_overlap(scheme) <= OVERLAP_TOL

    def test_random_schemes_strict_margin(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            scheme = random_scheme(rng)
            report = verify_theorem2(scheme)
            assert report.margin > 0.0
            assert not report.classical_equivalent
            assert report.margin == pytest.approx(
                (1 - report.classical_floor) * report.max_overlap**2, abs=1e-9
            )

    def test_dichotomy(self):
        # floor <=> every overlap matrix is the identity
        assert verify_theorem2(orthogonal_tag_scheme()).margin == 0.0
        quantum = two_key_qubit_scheme(0.3)
        assert verify_theorem2(quantum).margin > 0.0
        assert max_offdiagonal_overlap(quantum) > 1e-9

    def test_decision_rule_validation(self):
        with pytest.raises(ParameterError):
            DecisionRule("symmetry-test", 1)
        with pytest.raises(ParameterError):
            DecisionRule(kind="projective", copies=3)
        with pytest.raises(ParameterError):
            DecisionRule(kind="other")

    def test_copy_count_beyond_the_largest_float_rejected_at_construction(self):
        # the closed form reads the count as a float, so a larger one could never be scored
        with pytest.raises(ParameterError, match=r"^copy count must be <= 1\.7976931348623157e\+308, got 1000"):
            DecisionRule("symmetry-test", 10**400)
        assert DecisionRule("symmetry-test", 2**1023).copies == 2**1023


class TestSchemeJson:
    def test_round_trip_preserves_analysis(self):
        scheme = random_scheme(np.random.default_rng(28), dim=2, num_keys=2)
        doc = scheme_to_json_dict(scheme)
        back = scheme_from_json_dict(doc)
        validate_scheme(back)
        for m in scheme.message_set:
            _, lam_orig = overlap_matrix(scheme, m)
            _, lam_back = overlap_matrix(back, m)
            assert np.allclose(lam_orig, lam_back, atol=1e-12)
        orig = impersonation_deception(scheme).deception_probability
        again = impersonation_deception(back).deception_probability
        assert orig == pytest.approx(again, abs=1e-12)

    def test_malformed_documents(self):
        with pytest.raises(ParameterError):
            scheme_from_json_dict({"messages": [0, 1]})
        scheme = random_scheme(np.random.default_rng(29))
        doc = scheme_to_json_dict(scheme)
        doc["label_table"] = doc["label_table"][:1]
        with pytest.raises(ParameterError):
            scheme_from_json_dict(doc)
        doc2 = scheme_to_json_dict(scheme)
        del doc2["tag_unitaries"][doc2["label_table"][0][0]]
        with pytest.raises(ParameterError):
            scheme_from_json_dict(doc2)

    def test_scheme_validation_rules(self):
        with pytest.raises(ParameterError):
            QmacScheme(
                message_set=(0,),
                key_set=(0, 1),
                label_fn=lambda k, m: (k, m),
                tag_unitaries={},
                initial_state=basis_state(0, (2,)),
            )
        with pytest.raises(ParameterError):
            QmacScheme(
                message_set=(0, 1),
                key_set=(0, 1),
                label_fn=lambda k, m: (k, m),
                tag_unitaries={(k, m): rotation(0.0) for k in (0, 1) for m in (0, 1)},
                initial_state=basis_state(0, (2,)),
                multiplicity=0,
            )


@st.composite
def symmetric_schemes(draw):
    """Valid symmetric schemes with shuffled key blocks and label orders.

    Tag unitaries come from a small pool that mixes Haar-random gates with
    exact basis permutations, so equal overlaps (ties for the witness),
    overlaps of exactly 0 and exactly 1 all occur.
    """
    tags = draw(st.integers(1, 4))
    multiplicity = draw(st.sampled_from((1, 2)))
    num_messages = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 16))
    string_labels = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    pool = random_unitaries(draw(st.integers(1, 4)), dim, rng)
    pool += [UnitaryOperator(np.linalg.matrix_power(shift, j)) for j in range(dim)]
    keys = tuple(range(tags * multiplicity))
    table = {}
    for m in range(num_messages):
        block_of_key = rng.permutation(len(keys)) // multiplicity
        block_label = rng.permutation(tags)
        for k in keys:
            b = int(block_label[block_of_key[k]])
            table[(k, m)] = f"{b}/{m}" if string_labels else (b, m)
    labels = dict.fromkeys(table.values())
    return QmacScheme(
        message_set=tuple(range(num_messages)),
        key_set=keys,
        label_fn=lambda k, m: table[(k, m)],
        tag_unitaries={label: pool[int(rng.integers(len(pool)))] for label in labels},
        initial_state=basis_state(0, (dim,)),
        multiplicity=multiplicity,
    )


decision_rules = st.one_of(
    st.just(DecisionRule("projective")),
    st.integers(2, 5).map(lambda copies: DecisionRule("symmetry-test", copies)),
)


def assert_same_attack(new: AttackReport, ref: AttackReport):
    assert new.deception_probability == ref.deception_probability
    assert new.deception_probability_average == ref.deception_probability_average
    assert new.classical_floor == ref.classical_floor
    assert new.witness_message == ref.witness_message
    assert new.witness_labels == ref.witness_labels
    assert new.witness_strategy == ref.witness_strategy
    if ref.witness_state is None:
        assert new.witness_state is None
    else:
        assert np.array_equal(new.witness_state.amplitudes, ref.witness_state.amplitudes)
        assert new.witness_state.dims == ref.witness_state.dims


class TestCompiledTableMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(scheme=symmetric_schemes(), rule=decision_rules)
    def test_random_schemes(self, scheme, rule):
        assert_same_attack(
            impersonation_deception(scheme, rule), reference_impersonation_deception(scheme, rule)
        )
        new, ref = verify_theorem2(scheme), reference_verify_theorem2(scheme)
        assert new.p0 == ref.p0
        assert new.margin == ref.margin
        assert new.max_overlap == ref.max_overlap
        assert new.classical_equivalent == ref.classical_equivalent
        assert_same_attack(new.attack, ref.attack)
        for m in scheme.message_set:
            assert realized_labels(scheme, m) == reference_realized_labels(scheme, m)
            assert partition_keys(scheme, m) == reference_partition_keys(scheme, m)
            labels, lam = overlap_matrix(scheme, m)
            ref_labels, ref_lam = reference_overlap_matrix(scheme, m)
            assert labels == ref_labels
            assert np.array_equal(lam, ref_lam)

    @pytest.mark.parametrize("dim,num_keys,num_messages", [(2, 2, 2), (4, 8, 8), (16, 16, 16)])
    def test_benchmark_shapes(self, dim, num_keys, num_messages):
        rng = np.random.default_rng(dim)
        for _ in range(2):
            scheme = random_scheme(rng, dim=dim, num_keys=num_keys, num_messages=num_messages)
            new, ref = verify_theorem2(scheme), reference_verify_theorem2(scheme)
            assert (new.p0, new.margin, new.max_overlap) == (ref.p0, ref.margin, ref.max_overlap)
            assert_same_attack(new.attack, ref.attack)

    def test_label_fn_walked_once(self):
        # once at construction, then never again: not by any analysis and not
        # by scheme_to_json_dict
        calls = []
        base = random_scheme(np.random.default_rng(31), dim=2, num_keys=3, num_messages=4)

        def label_fn(k, m):
            calls.append((k, m))
            return (k, m)

        scheme = QmacScheme(
            message_set=base.message_set,
            key_set=base.key_set,
            label_fn=label_fn,
            tag_unitaries=base.tag_unitaries,
            initial_state=base.initial_state,
            name=base.name,
        )
        every_pair = sorted((k, m) for k in scheme.key_set for m in scheme.message_set)
        assert sorted(calls) == every_pair
        verify_theorem2(scheme)
        impersonation_deception(scheme, DecisionRule("symmetry-test", 3))
        validate_scheme(scheme)
        for m in scheme.message_set:
            overlap_matrix(scheme, m)
        doc = scheme_to_json_dict(scheme)
        assert sorted(calls) == every_pair
        assert doc == scheme_to_json_dict(base)

    def test_scheme_freed_without_cycle_collector(self):
        # the compiled tables and cached tag states live on the scheme and must
        # not point back to it, or every dead scheme would wait for the cyclic
        # collector
        scheme = random_scheme(np.random.default_rng(30), dim=3, num_keys=3, num_messages=3)
        verify_theorem2(scheme)
        ref = weakref.ref(scheme)
        gc.disable()
        try:
            del scheme
            assert ref() is None
        finally:
            gc.enable()


def rotation_table(labels):
    return {label: rotation(0.3 * i) for i, label in enumerate(labels)}


MALFORMED_SCHEMES = {
    "non-uniform-partition": dict(
        key_set=(0, 1, 2),
        label_fn=lambda k, m: (min(k, 1), m),  # block sizes 2 and 1
        tag_unitaries=rotation_table([(b, m) for b in (0, 1) for m in (0, 1)]),
    ),
    "non-uniform-partition-of-second-message": dict(
        key_set=(0, 1, 2),
        label_fn=lambda k, m: (min(k, 1) if m else k, m),  # message 0 uniform, message 1 not
        tag_unitaries=rotation_table([(k, 0) for k in (0, 1, 2)] + [(b, 1) for b in (0, 1)]),
    ),
    "multiplicity-not-dividing-keys": dict(
        key_set=(0, 1, 2),
        label_fn=lambda k, m: (k, m),
        tag_unitaries=rotation_table([(k, m) for k in (0, 1, 2) for m in (0, 1)]),
        multiplicity=2,
    ),
    "injectivity-clash": dict(
        key_set=(0, 1),
        label_fn=lambda k, m: k,  # same label for both messages
        tag_unitaries=rotation_table([0, 1]),
    ),
    "missing-unitary": dict(
        key_set=(0, 1),
        label_fn=lambda k, m: (k, m),
        tag_unitaries=rotation_table([(0, 0), (1, 0), (0, 1)]),
    ),
    "partition-violation-before-missing-unitary": dict(
        key_set=(0, 1, 2),
        label_fn=lambda k, m: (min(k, 1), m),
        tag_unitaries=rotation_table([(0, 0)]),
    ),
}


def outcome(fn, *args):
    """(exception type, message) of a call, or None when it returns."""
    try:
        fn(*args)
    except (ParameterError, InvariantViolation) as exc:
        return type(exc), str(exc)
    return None


class TestMalformedSchemesMatchReference:
    @pytest.mark.parametrize("name", sorted(MALFORMED_SCHEMES))
    def test_same_exception_and_message(self, name):
        scheme = QmacScheme(
            message_set=(0, 1), initial_state=basis_state(0, (2,)), **MALFORMED_SCHEMES[name]
        )
        assert outcome(validate_scheme, scheme) == outcome(reference_validate_scheme, scheme)
        for rule in (DecisionRule("projective"), DecisionRule("symmetry-test", 3)):
            expected = outcome(reference_impersonation_deception, scheme, rule)
            assert expected is not None
            assert outcome(impersonation_deception, scheme, rule) == expected
        assert outcome(verify_theorem2, scheme) == outcome(reference_verify_theorem2, scheme)


class TestRandomSchemesStream:
    """Consecutive ``random_scheme`` calls against one stream of their
    unitaries, drawn as one array whose draws of normals span schemes."""

    @pytest.mark.parametrize(
        "dim,num_keys,num_messages,count",
        # unitaries per draw of normals: 4096, 1024, 455 (boundaries inside schemes), 16
        [(1, 2, 2, 1100), (2, 2, 2, 300), (3, 4, 3, 80), (16, 16, 16, 3)],
    )
    def test_stream_equals_sequential_schemes(self, dim, num_keys, num_messages, count):
        seed = 100 * dim + count
        stream_rng, sequential_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        key_major = [(k, m) for k in range(num_keys) for m in range(num_messages)]
        labels = len(key_major)
        stream = random_unitaries(count * labels, dim, stream_rng)
        sequential = [random_scheme(sequential_rng, dim, num_keys, num_messages) for _ in range(count)]
        for s, scheme in enumerate(sequential):
            assert list(scheme.tag_unitaries) == key_major
            for gate, drawn in zip(scheme.tag_unitaries.values(), stream[s * labels : (s + 1) * labels]):
                assert np.array_equal(gate.matrix, drawn.matrix)
                assert gate.dims == drawn.dims == (dim,)
                assert not gate.matrix.flags.writeable
        assert stream_rng.bit_generator.state == sequential_rng.bit_generator.state


def theorem2_row(report: Theorem2Report) -> tuple:
    attack = report.attack
    return (
        report.p0, report.classical_floor, report.margin, report.max_overlap, report.classical_equivalent,
        attack.deception_probability, attack.classical_floor,
    )


def gemv_vdot_overlaps(scheme: QmacScheme) -> list[float]:
    """Pair overlaps from one gemv per tag state and one vdot per pair."""
    psi = scheme.initial_state.amplitudes
    rows = [scheme.tag_unitaries[label].matrix @ psi for label in scheme.labels]
    return [abs(np.vdot(rows[i], rows[j])) for blocks in scheme.blocks for i, j in itertools.combinations(blocks, 2)]


class TestRandomSchemeReports:
    """The stacked ensemble against ``verify_theorem2`` of each reference
    scheme, compared with ==, and the overlaps against gemv and vdot."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 16),
        num_keys=st.integers(1, 6),
        num_messages=st.integers(2, 6),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    # whole schemes per batch of COLUMN_ENTRIES = 1024 column entries: 1 (576 entries per
    # scheme), 34 of 40, 4 of 17, 170 (dim 1, every overlap 1), 34 of 100, 4 of 40, 1 (516);
    # then one scheme per call where one scheme alone holds more than a batch (1280 entries),
    # a count that is not a multiple of the batch (28 of 40), and num_keys = 1 (85 of 100;
    # no label pairs, so every scheme sits on the floor)
    @example(dim=16, num_keys=6, num_messages=6, count=3, seed=1)
    @example(dim=2, num_keys=3, num_messages=5, count=40, seed=2)
    @example(dim=11, num_keys=4, num_messages=5, count=17, seed=3)
    @example(dim=1, num_keys=2, num_messages=3, count=5, seed=4)
    @example(dim=2, num_keys=3, num_messages=5, count=100, seed=5)
    @example(dim=4, num_keys=8, num_messages=8, count=40, seed=6)
    @example(dim=129, num_keys=2, num_messages=2, count=3, seed=7)
    @example(dim=64, num_keys=5, num_messages=4, count=3, seed=8)
    @example(dim=3, num_keys=3, num_messages=4, count=40, seed=9)
    @example(dim=4, num_keys=1, num_messages=3, count=100, seed=10)
    def test_reports_equal_reference(self, dim, num_keys, num_messages, count, seed):
        ensemble_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        reports = list(random_scheme_reports(ensemble_rng, count, dim, num_keys, num_messages))
        schemes = [random_scheme(reference_rng, dim, num_keys, num_messages) for _ in range(count)]
        assert [theorem2_row(r) for r in reports] == [theorem2_row(verify_theorem2(s)) for s in schemes]
        assert ensemble_rng.bit_generator.state == reference_rng.bit_generator.state
        for report, scheme in zip(reports, schemes):
            oracle = gemv_vdot_overlaps(scheme)
            assert scheme.overlaps.tolist() == oracle
            assert report.max_overlap == max(oracle, default=0.0)

    @pytest.mark.parametrize(
        "name,value",
        [(name, value) for name in ("count", "dim", "num_keys") for value in (True, 2.0, 0)]
        + [("num_messages", value) for value in (True, 2.0, 1)]
        + [("dim", 4097)],
    )
    def test_shape_rejected_before_drawing(self, name, value):
        # a bool or float is not read as a count, and the error names the argument, not count * labels;
        # the dimension cap is checked before drawing too
        message = rf"{name} must be (an integer|>= [12]|<= 4096), got {value!r}$"
        shape = {"count": 2, "dim": 2, "num_keys": 2, "num_messages": 2, name: value}
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ParameterError, match=f"^{message}"):
            next(random_scheme_reports(rng, **shape))
        if name != "count":
            del shape["count"]
            with pytest.raises(ParameterError, match=f"^{message}"):
                random_scheme(rng, **shape)
        assert rng.bit_generator.state == before

    def test_builtin_ensemble_scored_in_one_pass(self, monkeypatch, tmp_path):
        # the 100 schemes of theorem2-random fit one batch of 128 four-label qubit schemes
        counter = CallCounter(monkeypatch)
        counter.count(qmac_framework, "pair_overlaps")
        counter.count(qmac_framework, "_check_norms")
        assert cli.run("theorem2-random", output=str(tmp_path / "t2.json"), stdout=io.StringIO()) == 0
        assert counter.calls == {"pair_overlaps": 1, "_check_norms": 1}

    def test_tag_rows_factor_column_zero_only(self, monkeypatch, tmp_path):
        # the ensemble never forms a whole unitary; the Curty-Santos sweep still needs them
        real_columns, kept = quantum_core._haar_columns, []

        def recorded(size, total, rng, columns):
            kept.append(columns)
            return real_columns(size, total, rng, columns)

        monkeypatch.setattr(quantum_core, "_haar_columns", recorded)
        monkeypatch.setattr(qmac_framework, "_haar_columns", recorded)
        list(random_scheme_reports(np.random.default_rng(0), 40, dim=3, num_keys=3, num_messages=4))
        assert kept == [1, 1]  # 40 schemes, 28 per batch
        list(random_scheme_reports(np.random.default_rng(0), 10, dim=16, num_keys=3, num_messages=4))
        assert kept == [1] * 4  # 2 more: 10 schemes, 5 per batch
        assert cli.run("cs-nogo-sweep", output=str(tmp_path / "nogo.json"), stdout=io.StringIO()) == 0
        assert kept == [1] * 4 + [4]  # the sweep's whole 4 x 4 unitaries, in one call

    def test_one_scoring_pass_per_stack(self, monkeypatch):
        # 12 labels of dim 3 per scheme: a batch of 28 whole schemes, then one of the last 12
        counter = CallCounter(monkeypatch)
        counter.count(qmac_framework, "_theorem2_reports")
        counter.count(qmac_framework, "_haar_columns")
        reports = list(random_scheme_reports(np.random.default_rng(0), 40, dim=3, num_keys=3, num_messages=4))
        assert len(reports) == 40
        assert counter.calls == {"_theorem2_reports": 2, "_haar_columns": 2}

    def test_tag_rows_norm_checked_per_scheme(self, monkeypatch):
        # the column kernel checks no unitarity, so a bad column must still not yield a tag state
        real_columns = qmac_framework._haar_columns

        def scaled_columns(size, total, rng, columns):
            rows = real_columns(size, total, rng, columns).copy()
            rows[-1] *= 2.0
            return rows

        monkeypatch.setattr(qmac_framework, "_haar_columns", scaled_columns)
        reports = random_scheme_reports(np.random.default_rng(0), 2, dim=16, num_keys=2, num_messages=4)
        assert next(reports).p0 > 0.5  # a batch of 8 schemes holds both; the bad row is the second's
        with pytest.raises(ParameterError, match="state norm"):
            next(reports)


def full_scan_maxima(table: np.ndarray, schemes: int, num_keys: int, num_messages: int) -> list[float]:
    """Each scheme's largest ``pair_overlaps`` value over every label pair of its key-major rows,
    the pairs listed by itertools.combinations: the scan the screen stands in for. It calls the
    kernel imported at the top, so a test that patches ``qmac_framework.pair_overlaps`` sees only
    the screen's calls."""
    rows = table.reshape(schemes, num_keys, num_messages, -1).swapaxes(1, 2).reshape(-1, table.shape[1])
    per_scheme = num_keys * num_messages
    maxima = []
    for s in range(schemes):
        starts = range(s * per_scheme, (s + 1) * per_scheme, num_keys)
        blocks = (range(start, start + num_keys) for start in starts)
        index = np.array([pair for block in blocks for pair in itertools.combinations(block, 2)], dtype=np.intp)
        maxima.append(max(pair_overlaps(rows, index.reshape(-1, 2)), default=0.0))
    return maxima


def tilted_pair(u: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows U e0 and U (c e0 + sqrt(1 - c^2) e1): overlap c before rounding, and rounded the way
    generic tag states are."""
    return u[:, 0].copy(), c * u[:, 0] + math.sqrt(1.0 - c * c) * u[:, 1]


def ulps_above(x: float, k: int) -> float:
    for _ in range(k):
        x = float(np.nextafter(x, 2.0))
    return x


class TestOverlapScreen:
    """The screened maxima of ``random_scheme_reports`` against the full ``pair_overlaps``
    scan of the same rows, compared with ==, and the pairs the screen recomputes."""

    @staticmethod
    def drawn_tables(monkeypatch, edit=None) -> list[np.ndarray]:
        """Route the ensemble's draws through ``edit`` (key-major rows, rng) and keep each table."""
        real_columns, tables = qmac_framework._haar_columns, []

        def columns(size, total, rng, columns):
            table = real_columns(size, total, rng, columns)[..., 0]
            table = edit(table.copy(), rng) if edit else table
            tables.append(table)
            return table[..., None]

        monkeypatch.setattr(qmac_framework, "_haar_columns", columns)
        return tables

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 16),
        num_keys=st.integers(1, 7),
        num_messages=st.integers(2, 5),
        count=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        ties=st.sampled_from(["none", "copies", "nudged"]),
    )
    @example(dim=16, num_keys=16, num_messages=4, count=2, seed=1, ties="none")
    @example(dim=3, num_keys=6, num_messages=3, count=20, seed=2, ties="copies")
    @example(dim=8, num_keys=5, num_messages=2, count=9, seed=3, ties="nudged")
    def test_screened_maxima_equal_full_scan(self, dim, num_keys, num_messages, count, seed, ties):
        # "copies" repeats a row within its message block (overlaps at 1 up to rounding), "nudged" also
        # moves one entry of the copy by 1-4 ulps: the near-ties of the top pairs a screen must keep
        def edit(table, rng):
            if ties != "none" and num_keys > 1:
                view = table.reshape(-1, num_keys, num_messages, dim)
                for s in range(len(view)):
                    src, dst = rng.choice(num_keys, 2, replace=False)
                    m = rng.integers(num_messages)
                    view[s, dst, m] = view[s, src, m]
                    if ties == "nudged":
                        z = view[s, dst, m, 0]
                        view[s, dst, m, 0] = complex(ulps_above(z.real, int(rng.integers(1, 5))), z.imag)
            return table

        with pytest.MonkeyPatch.context() as monkeypatch:
            tables = self.drawn_tables(monkeypatch, edit)
            reports = list(random_scheme_reports(np.random.default_rng(seed), count, dim, num_keys, num_messages))
        per_table = [len(t) // (num_keys * num_messages) for t in tables]
        expected = [lam for t, n in zip(tables, per_table) for lam in full_scan_maxima(t, n, num_keys, num_messages)]
        assert [r.max_overlap for r in reports] == expected
        assert [r.p0 for r in reports] == [
            1.0 / num_keys + (1.0 - 1.0 / num_keys) * lam**2 if lam > OVERLAP_TOL else 1.0 / num_keys
            for lam in expected
        ]

    @pytest.mark.parametrize("gap", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "layout,schemes,num_keys,num_messages",
        [("one block", 1, 3, 2), ("two blocks", 1, 2, 3), ("two schemes", 2, 2, 2)],
    )
    def test_near_ties_select_the_zdot_maximum(self, monkeypatch, layout, schemes, num_keys, num_messages, gap):
        # the two top pairs are `gap` ulps apart before rounding: in one message block, in two blocks of
        # one scheme, or one pair in each of two schemes (each scheme's own tie, reversed in the second);
        # the rounding of the Gram and zdot moduli differs from case to case, and whichever pair zdot puts
        # on top, the report carries its bits
        dim, rng = 16, np.random.default_rng(100 * gap + len(layout))
        recomputed: list = []
        real_pair_overlaps = qmac_framework.pair_overlaps

        def recording(rows, index):
            recomputed.extend(map(tuple, index.tolist()))
            return real_pair_overlaps(rows, index)

        monkeypatch.setattr(qmac_framework, "pair_overlaps", recording)
        for _ in range(25):
            c = float(rng.uniform(0.2, 0.95))
            top = (c, ulps_above(c, gap))
            blocks = np.zeros((schemes, num_messages, num_keys, dim), dtype=complex)
            for s in range(schemes):
                if layout == "one block":
                    u = random_unitaries(1, dim, rng)[0].matrix
                    x, y = tilted_pair(u, top[0])
                    blocks[s, 0] = [x, y, top[1] * u[:, 0] + math.sqrt(1.0 - top[1] ** 2) * u[:, 2]]
                    blocks[s, 1] = [u[:, 3], u[:, 4], u[:, 5]]
                else:
                    for m in range(num_messages):
                        lam = (top[::-1] if s else top)[m] if m < 2 else 0.1
                        blocks[s, m] = tilted_pair(random_unitaries(1, dim, rng)[0].matrix, lam)
            table = blocks.swapaxes(1, 2).reshape(-1, dim)  # key-major, as drawn
            monkeypatch.setattr(qmac_framework, "_haar_columns", lambda size, total, rng, k, t=table: t[..., None])
            recomputed.clear()
            reports = list(random_scheme_reports(rng, schemes, dim, num_keys, num_messages))
            assert [r.max_overlap for r in reports] == full_scan_maxima(table, schemes, num_keys, num_messages)
            size = num_keys * num_messages
            tied = [(0, 1), (0, 2)] if layout == "one block" else [(0, 1), (num_keys, num_keys + 1)]
            assert {(s * size + i, s * size + j) for s in range(schemes) for i, j in tied} <= set(recomputed)

    def test_dim_one_recomputes_every_pair(self, monkeypatch):
        # every overlap of two unit complex numbers is 1 up to rounding, so every pair is a candidate
        tables, recomputed = self.drawn_tables(monkeypatch), []
        real_pair_overlaps = qmac_framework.pair_overlaps

        def recording(rows, index):
            recomputed.append(len(index))
            return real_pair_overlaps(rows, index)

        monkeypatch.setattr(qmac_framework, "pair_overlaps", recording)
        reports = list(random_scheme_reports(np.random.default_rng(12), 6, dim=1, num_keys=5, num_messages=3))
        assert [r.max_overlap for r in reports] == full_scan_maxima(tables[0], 6, 5, 3)
        assert sum(recomputed) == 6 * 3 * 10
        assert all(abs(r.max_overlap - 1.0) < 1e-15 for r in reports)

    def test_one_key_has_no_pairs(self, monkeypatch):
        counter = CallCounter(monkeypatch)
        counter.count(qmac_framework, "pair_overlaps")
        reports = list(random_scheme_reports(np.random.default_rng(13), 7, dim=3, num_keys=1, num_messages=4))
        assert [(r.max_overlap, r.p0, r.margin, r.classical_equivalent) for r in reports] == [(0.0, 1.0, 0.0, True)] * 7
        assert counter.calls == {"pair_overlaps": 0}

    def test_bad_norm_reported_after_the_schemes_before_it(self, monkeypatch):
        # one batch of 5 two-key qubit schemes; the third scheme's last row is doubled
        def edit(table, rng):
            table[3 * 4 - 1] *= 2.0
            return table

        self.drawn_tables(monkeypatch, edit)
        reports = random_scheme_reports(np.random.default_rng(14), 5, dim=2, num_keys=2, num_messages=2)
        reference_rng = np.random.default_rng(14)
        for _ in range(2):
            assert theorem2_row(next(reports)) == theorem2_row(verify_theorem2(random_scheme(reference_rng, 2, 2, 2)))
        with pytest.raises(ParameterError, match=r"^state norm [12]\.\d+ is not 1 within 1e-10$"):
            next(reports)

    def test_pair_memory_is_one_gram_block_not_a_list_of_pairs(self):
        # 256 keys of 2 messages at dim 1: 65,280 pairs, every one a candidate; the screen holds one
        # 256 x 256 Gram block and recomputes in bounded chunks (about 2.6 MB traced), where a list of
        # every pair's overlap and its index took about 7 MB
        list(random_scheme_reports(np.random.default_rng(0), 1, dim=1, num_keys=4, num_messages=2))
        tracemalloc.start()
        try:
            list(random_scheme_reports(np.random.default_rng(15), 1, dim=1, num_keys=256, num_messages=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def list_path_scores(scheme: QmacScheme, rule: DecisionRule) -> tuple[float, int | None, float]:
    """Best Q, its position and mean Q as the list scoring path computed them from one Python float
    per pair, with squares as x * x: max, list.index (the first maximizer) and a sequential sum of
    each pair's Q twice, in scan order."""
    lams = scheme.overlaps.tolist()
    if rule.kind == "projective":
        q = [lam * lam for lam in lams]
    else:
        n = float(rule.copies)
        q = [(1.0 + (n - 1.0) * (lam * lam)) / n for lam in lams]
    total = 0.0
    for value in itertools.chain.from_iterable(zip(q, q)):
        total += value
    best = max(q, default=0.0)
    return best, q.index(best) if best > 0.0 else None, total / (2 * len(q)) if q else 0.0


@st.composite
def scored_overlaps(draw):
    """A random scheme's shape and overlaps to score in place of its own: independent values in
    [0, 1], or values around a few centres, with exact ties, neighbours 1 ulp apart and, near 0,
    neighbours whose squares tie."""
    num_keys, num_messages = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    size = num_messages * math.comb(num_keys, 2)
    if draw(st.booleans()):
        return num_keys, num_messages, draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    centre = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-200, 2.0**-537, 2**-0.5, 1.0)))
    centres, values = draw(st.lists(centre, min_size=1, max_size=3)), []
    for _ in range(size):
        c, step = draw(st.sampled_from(centres)), draw(st.sampled_from((-1, 0, 1)))
        values.append(max(0.0, float(np.nextafter(c, step * math.inf))) if step else c)
    return num_keys, num_messages, values


class TestOverlapKernel:
    """The stacked overlap kernel and the array scoring against their
    one-value-at-a-time definitions, compared with ==. A numpy or BLAS
    change that breaks the bit identity fails here by name."""

    @pytest.mark.parametrize(
        "dim,num_keys,num_messages",
        # the last shape has 1920 pairs of 16 entries, in 8 batches of 256
        [(dim, 4, 3) for dim in range(1, 65)] + [(16, 16, 16)],
    )
    def test_stacked_matmul_hypot_is_abs_vdot(self, dim, num_keys, num_messages):
        scheme = random_scheme(np.random.default_rng(dim), dim, num_keys, num_messages)
        rows = scheme.states
        expected = [
            abs(np.vdot(rows[i], rows[j]))
            for blocks in scheme.blocks
            for i, j in itertools.combinations(blocks, 2)
        ]
        for values in (scheme.overlaps, pair_overlaps(rows, scheme.pair_index)):
            assert type(values) is np.ndarray and values.dtype == np.float64 and not values.flags.writeable
            assert values.tolist() == expected
        per_message = num_keys * (num_keys - 1) // 2
        assert scheme.pair_starts == [mi * per_message for mi in range(num_messages + 1)]

    def test_pair_index_matches_itertools_on_ragged_blocks(self):
        # message 0 reaches 4 labels, message 1 one label, message 2 three labels shared with message 0
        # out of order, so the blocks are ragged, one has no pair, and one's rows are not contiguous
        table = {0: "abcd", 1: "eeee", 2: "bffa"}
        scheme = QmacScheme((0, 1, 2), (0, 1, 2, 3), lambda k, m: table[m][k], {}, basis_state(0, (2,)))
        expected = [pair for blocks in scheme.blocks for pair in itertools.combinations(blocks, 2)]
        assert scheme.pair_index.dtype == np.intp and scheme.pair_index.shape == (len(expected), 2)
        assert scheme.pair_index.tolist() == [list(pair) for pair in expected]
        assert expected[-3:] == [(1, 5), (1, 0), (5, 0)]
        single = QmacScheme((0, 1), (0, 1), lambda k, m: m, {}, basis_state(0, (2,)))
        assert single.pair_index.shape == (0, 2) and single.pair_index.dtype == np.intp

    def test_symmetry_rule_reads_no_argument_while_scoring(self, monkeypatch):
        # the copy count is read at construction and the overlaps are internal products, range checked
        # once: no read_value call per overlap (scoring through acceptance_error_formula made two each,
        # 224 for these 112 overlaps)
        scheme = random_scheme(np.random.default_rng(40), dim=4, num_keys=8, num_messages=4)
        rule = DecisionRule("symmetry-test", np.int64(3))
        assert rule == DecisionRule("symmetry-test", 3) and type(rule.copies) is int
        counter = CallCounter(monkeypatch)
        counter.count(qmac_framework, "read_value")
        counter.count(symmetry_test, "read_value")
        impersonation_deception(scheme, rule)
        assert counter.calls == {"read_value": 0}
        q = rule.wrong_tag_acceptances(scheme.overlaps)
        assert q.shape == (112,)
        assert q.tolist() == [acceptance_error_formula(3, lam) for lam in scheme.overlaps.tolist()]

    def test_scored_q_is_ieee_square(self):
        # one correctly rounded multiply per overlap: libm pow (Python float ** 2) is not correctly
        # rounded and differs from lam * lam in the last bit of about 0.08% of values
        lams = np.concatenate([np.random.default_rng(1).random(20000), [0.0, 1.0, 1.0 + 1e-12]])
        q = DecisionRule("projective").wrong_tag_acceptances(lams)
        assert type(q) is np.ndarray and q.dtype == np.float64
        assert q.tolist() == [lam * lam for lam in lams.tolist()]
        for copies in (2, 3, 7):
            q = DecisionRule("symmetry-test", copies).wrong_tag_acceptances(lams).tolist()
            assert q == [(1.0 + (copies - 1.0) * (lam * lam)) / copies for lam in lams.tolist()]
            assert q == [acceptance_error_formula(copies, lam) for lam in lams.tolist()]

    def test_square_of_max_is_max_of_squares(self):
        # the ensemble squares each scheme's largest overlap once instead of taking the
        # largest square; the IEEE multiply x * x, correctly rounded, is monotone, so that is exact
        def adjacent(centre, steps=200):
            below, above = [centre], [centre]
            for _ in range(steps):
                below.append(float(np.nextafter(below[-1], -np.inf)))
                above.append(float(np.nextafter(above[-1], np.inf)))
            return [x for x in below[:0:-1] + above if x >= 0.0]

        # near 0, 2**-0.5, 1 and the overlap whose square is the least normal float
        ladders = [adjacent(c) for c in (0.0, 2**-0.5, 1.0, math.sqrt(2.0**-1022))]
        for ladder in ladders:
            squares = [x * x for x in ladder]
            assert squares == sorted(squares)
        rng = np.random.default_rng(3)
        for run in [rng.random(5000).tolist(), *ladders]:
            for window in (rng.permutation(run[i : i + 7]).tolist() for i in range(0, len(run), 3)):
                top = max(window)
                assert top * top == max(x * x for x in window)
        # a scheme without pairs (one key) reports 0.0 both ways
        top = np.empty(0).max(initial=0.0)
        assert top * top == top == 0.0

    def test_symmetry_rule_keeps_range_check(self):
        # one check over the whole array, naming the first bad overlap in scan order
        with pytest.raises(ParameterError, match=r"^overlap 1\.000000001 outside \[0, 1\]$"):
            DecisionRule("symmetry-test", 3).wrong_tag_acceptances(np.array([0.5, 1.0 + 1e-9, -2.0, math.nan]))
        empty = DecisionRule("projective").wrong_tag_acceptances(np.empty(0))
        assert empty.shape == (0,) and empty.dtype == np.float64

    @pytest.mark.parametrize("lam", [1.0 + 1e-9, math.nan, -5e-324], ids=["above-slack", "nan", "negative"])
    def test_symmetry_rule_rejects_overlap_out_of_range(self, lam):
        with pytest.raises(ParameterError, match=rf"^overlap {lam!r} outside \[0, 1\]$"):
            DecisionRule("symmetry-test", 3).wrong_tag_acceptances(np.array([0.5, lam]))

    def test_symmetry_rule_accepts_overlap_within_slack(self):
        lam = 1.0 + 1e-13
        q = DecisionRule("symmetry-test", 3).wrong_tag_acceptances(np.array([lam]))
        assert q.tolist() == [(1.0 + 2.0 * (lam * lam)) / 3.0]

    def test_symmetry_rule_takes_every_overlap_of_normed_states(self):
        # two tag states that pass their 1e-10 norm check can overlap by up to (1 + 2e-10)**2, rounding included
        top = qmac_framework.NORMED_OVERLAP_MAX
        assert top == (1 + 2 * quantum_core.NORM_ATOL) ** 2
        rule = DecisionRule("symmetry-test", 3)
        assert rule.wrong_tag_acceptances(np.array([1.0 + 8e-11, top])).tolist() == [
            (1.0 + 2.0 * (lam * lam)) / 3.0 for lam in (1.0 + 8e-11, top)
        ]
        above = float(np.nextafter(top, 2.0))
        with pytest.raises(ParameterError, match=rf"^overlap {above!r} outside \[0, 1\]$"):
            rule.wrong_tag_acceptances(np.array([above]))

    def test_projective_rule_checks_no_range(self):
        lams = [1.0 + 1e-11, -0.5, 2.0]
        assert DecisionRule("projective").wrong_tag_acceptances(np.array(lams)).tolist() == [lam * lam for lam in lams]
        assert math.isnan(DecisionRule("projective").wrong_tag_acceptances(np.array([math.nan]))[0])

    @settings(max_examples=300, deadline=None)
    @given(case=scored_overlaps(), rule=decision_rules)
    # exact ties; 1-ulp neighbours whose squares tie at 2**-1074, so the first pair of largest Q, not
    # of largest overlap, is the witness; squares that underflow to 0 (no witness when projective)
    @example(case=(3, 2, [0.5] * 6), rule=DecisionRule("projective"))
    @example(case=(2, 2, [2.0**-537, float(np.nextafter(2.0**-537, 1.0))]), rule=DecisionRule("projective"))
    @example(case=(3, 2, [1e-200, 2e-200, 0.0, 3e-200, 1e-200, 0.0]), rule=DecisionRule("projective"))
    @example(case=(3, 2, [1e-200, 2e-200, 0.0, 3e-200, 1e-200, 0.0]), rule=DecisionRule("symmetry-test", 3))
    def test_array_scores_equal_list_path(self, case, rule):
        num_keys, num_messages, values = case
        scheme = random_scheme(np.random.default_rng(num_keys), 2, num_keys, num_messages)
        overlaps = np.array(values, dtype=np.float64)
        overlaps.setflags(write=False)
        scheme.__dict__["overlaps"] = overlaps  # the cached property, scored in place of the scheme's own
        best, position, mean = list_path_scores(scheme, rule)
        scored = []
        with pytest.MonkeyPatch.context() as patch:
            real = qmac_framework._deception_probability
            patch.setattr(qmac_framework, "_deception_probability", lambda f, q: scored.append(q) or real(f, q))
            report = impersonation_deception(scheme, rule)
        assert scored == [best, mean] and all(type(q) is float for q in scored)
        if position is None:
            assert report.witness_labels is None and report.witness_message is None
        else:
            i, j = scheme.pair_index[position].tolist()
            assert report.witness_labels == (scheme.labels[i], scheme.labels[j])
            assert report.witness_message == next(
                m for m in range(num_messages) if scheme.pair_starts[m] <= position < scheme.pair_starts[m + 1]
            )

    def test_scoring_at_the_pair_cap_traces_no_float_per_pair(self):
        # 1024 keys of 2 messages, 1,047,552 pairs: both attacks, scored as arrays, peak at 17.0 MiB
        # traced (the overlaps and their Q, 8 MiB each; the mean adds in chunks of STACK_ENTRIES pairs);
        # the pin leaves 3 MiB of margin. With the doubled Q and its running sum whole they peaked at
        # 48 MiB, and scored as lists of Python floats at 72 MiB
        scheme = random_scheme(np.random.default_rng(16), dim=2, num_keys=1024, num_messages=2)
        assert scheme.states.shape == (2048, 2) and scheme.pair_index.shape == (2 * math.comb(1024, 2), 2)
        tracemalloc.start()
        try:
            verify_theorem2(scheme)
            impersonation_deception(scheme, DecisionRule("symmetry-test", 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize(
        "rule", [DecisionRule("projective"), DecisionRule("symmetry-test", 3)], ids=["projective", "symmetry-test"]
    )
    @pytest.mark.parametrize("pairs", [STACK_ENTRIES - 1, STACK_ENTRIES, STACK_ENTRIES + 1, 3 * STACK_ENTRIES + 5])
    def test_mean_across_chunks_equals_list_path(self, pairs, rule):
        # 2 keys give one pair per message, so the mean adds 1 to 4 chunks of STACK_ENTRIES pairs,
        # each after the first led by the sum so far; overlaps over six decades make every add round
        scheme = random_scheme(np.random.default_rng(pairs), 1, 2, pairs)
        rng = np.random.default_rng(0)
        overlaps = rng.random(pairs) * 10.0 ** -rng.integers(0, 6, pairs)
        overlaps.setflags(write=False)
        scheme.__dict__["overlaps"] = overlaps  # the cached property, scored in place of the scheme's own
        best, _, mean = list_path_scores(scheme, rule)
        scored = []
        with pytest.MonkeyPatch.context() as patch:
            real = qmac_framework._deception_probability
            patch.setattr(qmac_framework, "_deception_probability", lambda f, q: scored.append(q) or real(f, q))
            impersonation_deception(scheme, rule)
        assert scored == [best, mean]


def test_tag_state_norm_checked_once_per_table():
    # a gate that skipped its unitarity check must still not yield a tag state
    scheme = two_key_qubit_scheme(0.3)
    object.__setattr__(scheme.tag_unitaries[(1, 1)], "matrix", 2 * np.eye(2, dtype=complex))
    with pytest.raises(ParameterError, match=r"^state norm 2\.0 is not 1 within 1e-10$"):
        impersonation_deception(scheme)


def test_tag_state_nan_norm_rejected():
    # NaN fails the norm check too
    scheme = two_key_qubit_scheme(0.3)
    object.__setattr__(scheme.tag_unitaries[(1, 1)], "matrix", np.full((2, 2), math.nan, dtype=complex))
    with pytest.raises(ParameterError, match="state norm"):
        impersonation_deception(scheme)
