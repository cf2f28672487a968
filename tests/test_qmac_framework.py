import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
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
    random_scheme,
    random_schemes,
    scheme_from_json_dict,
    scheme_to_json_dict,
    validate_scheme,
    verify_theorem2,
)
from authsim.quantum_core import (
    PureState,
    UnitaryOperator,
    basis_state,
    overlap,
    random_unitaries,
)
from authsim.symmetry_test import acceptance_error_formula

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
    """Key blocks per realized label, read off the compiled index after the
    scheme's own partition check."""
    mi = scheme.message_set.index(message)
    scheme.check_partition(mi)
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
        return float(lam) ** 2
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
    rule = rule or DecisionRule.projective()
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
        attack="impersonation",
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
    attack = reference_impersonation_deception(scheme, DecisionRule.projective())
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
        with pytest.raises(ParameterError, match="has no tagging unitary"):
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
            partition_keys(scheme, 0)
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
        rule = DecisionRule.projective()
        for _ in range(20):
            scheme = random_scheme(rng, dim=2, num_keys=3, num_messages=2)
            expected = brute_force_impersonation(scheme, rule)
            report = impersonation_deception(scheme, rule)
            assert report.deception_probability == pytest.approx(expected, abs=1e-12)

    def test_symmetry_test_rule_matches_brute_force(self):
        rng = np.random.default_rng(24)
        rule = DecisionRule.symmetry_test(3)
        for _ in range(5):
            scheme = random_scheme(rng)
            expected = brute_force_impersonation(scheme, rule)
            report = impersonation_deception(scheme, rule)
            assert report.deception_probability == pytest.approx(expected, abs=1e-9)

    def test_symmetry_test_rule_formula(self):
        theta = 0.8
        scheme = two_key_qubit_scheme(theta)
        lam = abs(math.cos(theta))
        report = impersonation_deception(scheme, DecisionRule.symmetry_test(4))
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
            AttackReport(attack="impersonation", deception_probability=0.2, classical_floor=0.5)
        with pytest.raises(ParameterError):
            AttackReport(attack="eavesdrop", deception_probability=0.6, classical_floor=0.5)


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
            DecisionRule.symmetry_test(1)
        with pytest.raises(ParameterError):
            DecisionRule(kind="projective", copies=3)
        with pytest.raises(ParameterError):
            DecisionRule(kind="other")


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
    st.just(DecisionRule.projective()),
    st.integers(2, 5).map(DecisionRule.symmetry_test),
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
        impersonation_deception(scheme, DecisionRule.symmetry_test(3))
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
        for rule in (DecisionRule.projective(), DecisionRule.symmetry_test(3)):
            expected = outcome(reference_impersonation_deception, scheme, rule)
            assert expected is not None
            assert outcome(impersonation_deception, scheme, rule) == expected
        assert outcome(verify_theorem2, scheme) == outcome(reference_verify_theorem2, scheme)
        for m in scheme.message_set:
            assert outcome(partition_keys, scheme, m) == outcome(reference_partition_keys, scheme, m)


class TestRandomSchemesStream:
    """Schemes drawn from one stream, in stacks that span schemes, against
    one ``random_scheme`` call per scheme."""

    @pytest.mark.parametrize(
        "dim,num_keys,num_messages,count",
        # unitaries per stack: 4096, 1024, 455 (boundaries inside schemes), 16
        [(1, 2, 2, 1100), (2, 2, 2, 300), (3, 4, 3, 80), (16, 16, 16, 3)],
    )
    def test_stream_equals_sequential_schemes(self, dim, num_keys, num_messages, count):
        seed = 100 * dim + count
        stream_rng, sequential_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stream = list(random_schemes(stream_rng, count, dim, num_keys, num_messages))
        sequential = [random_scheme(sequential_rng, dim, num_keys, num_messages) for _ in range(count)]
        assert len(stream) == count
        for a, b in zip(stream, sequential):
            assert (a.name, a.message_set, a.key_set, a.labels) == (b.name, b.message_set, b.key_set, b.labels)
            assert a.index == b.index
            assert np.array_equal(a.initial_state.amplitudes, b.initial_state.amplitudes)
            assert list(a.tag_unitaries) == list(b.tag_unitaries)
            for label, gate in a.tag_unitaries.items():
                assert np.array_equal(gate.matrix, b.tag_unitaries[label].matrix)
                assert gate.dims == b.tag_unitaries[label].dims == (dim,)
                assert not gate.matrix.flags.writeable
        assert stream_rng.bit_generator.state == sequential_rng.bit_generator.state


class TestOverlapKernel:
    """The stacked overlap kernel and the list scoring against their
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
        assert scheme.overlaps == expected
        assert all(type(value) is float for value in scheme.overlaps)
        per_message = num_keys * (num_keys - 1) // 2
        assert scheme.pair_starts == [mi * per_message for mi in range(num_messages + 1)]

    def test_scored_q_is_python_float_square(self):
        lams = np.random.default_rng(1).random(20000).tolist() + [0.0, 1.0, 1.0 + 1e-12]
        assert DecisionRule.projective().wrong_tag_acceptances(lams) == [float(lam) ** 2 for lam in lams]
        for copies in (2, 3, 7):
            rule = DecisionRule.symmetry_test(copies)
            assert rule.wrong_tag_acceptances(lams) == [acceptance_error_formula(copies, lam) for lam in lams]

    def test_symmetry_rule_keeps_range_check(self):
        with pytest.raises(ParameterError, match="outside"):
            DecisionRule.symmetry_test(3).wrong_tag_acceptances([0.5, 1.0 + 1e-9])
        assert DecisionRule.projective().wrong_tag_acceptances([]) == []

    @pytest.mark.parametrize("lam", [1.0 + 1e-11, math.nan], ids=["above-slack", "nan"])
    def test_symmetry_rule_rejects_overlap_out_of_range(self, lam):
        with pytest.raises(ParameterError, match=r"outside \[0, 1\]"):
            DecisionRule.symmetry_test(3).wrong_tag_acceptances([0.5, lam])

    def test_symmetry_rule_accepts_overlap_within_slack(self):
        lam = 1.0 + 1e-13
        assert DecisionRule.symmetry_test(3).wrong_tag_acceptances([lam]) == [(1.0 + 2.0 * lam**2) / 3.0]

    def test_projective_rule_checks_no_range(self):
        lams = [1.0 + 1e-11, -0.5, 2.0]
        assert DecisionRule.projective().wrong_tag_acceptances(lams) == [lam**2 for lam in lams]
        assert math.isnan(DecisionRule.projective().wrong_tag_acceptances([math.nan])[0])


def test_tag_state_norm_checked_once_per_table():
    # a gate that skipped its unitarity check must still not yield a tag state
    scheme = two_key_qubit_scheme(0.3)
    object.__setattr__(scheme.tag_unitaries[(1, 1)], "matrix", 2 * np.eye(2, dtype=complex))
    with pytest.raises(ParameterError, match="state norm"):
        impersonation_deception(scheme)


def test_tag_state_nan_norm_rejected():
    # NaN fails the norm check too
    scheme = two_key_qubit_scheme(0.3)
    object.__setattr__(scheme.tag_unitaries[(1, 1)], "matrix", np.full((2, 2), math.nan, dtype=complex))
    with pytest.raises(ParameterError, match="state norm"):
        impersonation_deception(scheme)
