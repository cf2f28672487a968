"""Symmetric prepare-and-measure quantum message authentication.

A scheme tags a classical message with a pure state E_tau |psi_in>, where the
label tau = f(k, m) is a public function of the shared key and the message.
Symmetry means every message sees the same number of equally likely tags:
the keys consistent with a message partition into blocks of uniform size L,
one block per realized label, so each message has |K|/L possible tags.

The central quantity is the impersonation probability

    p0 = 1/|T| + (1 - 1/|T|) * max over messages and label pairs of
         Q(accept | true tag, forged tag)

where |T| = |K|/L. Whenever two tags of some message have nonzero overlap,
the second term is positive and the scheme is strictly weaker than a
classical code with the same tag count; only schemes whose tags are mutually
orthogonal for every message (classical-equivalent schemes) sit on the
1/|T| floor.

Each scheme is compiled once (``QmacScheme.table``): label_fn is walked once
over messages x keys into a label-index table, from which the partition and
injectivity checks are read; each realized label gets one tag-state row; and
each message's pairwise overlaps are computed once, pair by pair with an
exact per-pair vdot, so reported values do not move in the last bit. Random
schemes draw their Haar unitaries as one stacked QR per key.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from .errors import InvariantViolation, ParameterError
from .quantum_core import (
    NORM_ATOL,
    PureState,
    UnitaryOperator,
    _trusted,
    random_unitaries,
    state_from_json_dict,
    state_to_json_dict,
    operator_to_json_dict,
    unitary_from_json_dict,
    basis_state,
)
from .symmetry_test import acceptance_error_formula

OVERLAP_TOL = 1e-9

Label = Hashable


@dataclass(frozen=True, eq=False)
class QmacScheme:
    """Message set, key set, label function, tagging unitaries, initial state.

    Keys are implicitly uniform. ``multiplicity`` is the number of keys
    sharing each realized label for a given message; structural symmetry is
    enforced by :func:`validate_scheme` / :func:`partition_keys` rather than
    at construction, so malformed schemes can be built and then diagnosed.
    """

    message_set: tuple
    key_set: tuple
    label_fn: Callable[[Any, Any], Label]
    tag_unitaries: Mapping[Label, UnitaryOperator]
    initial_state: PureState
    multiplicity: int = 1
    name: str = ""

    def __post_init__(self):
        if len(self.message_set) < 2:
            raise ParameterError("message set must contain at least two messages")
        if len(set(self.message_set)) != len(self.message_set):
            raise ParameterError("message set contains duplicates")
        if not self.key_set:
            raise ParameterError("key set must be nonempty")
        if len(set(self.key_set)) != len(self.key_set):
            raise ParameterError("key set contains duplicates")
        if (
            not isinstance(self.multiplicity, int)
            or isinstance(self.multiplicity, bool)
            or self.multiplicity < 1
        ):
            raise ParameterError(f"multiplicity must be a positive integer, got {self.multiplicity!r}")
        d = self.initial_state.d
        for label, gate in self.tag_unitaries.items():
            if gate.d != d:
                raise ParameterError(
                    f"tag unitary for label {label!r} has dimension {gate.d}, state has {d}"
                )

    @property
    def tags_per_message(self) -> int:
        return len(self.key_set) // self.multiplicity

    @cached_property
    def table(self) -> SchemeTable:
        """The scheme compiled once; every analysis below reads it."""
        return SchemeTable(self)


class SchemeTable:
    """One walk of ``label_fn`` over messages x keys, and what follows from it.

    ``labels`` holds the distinct labels in order of first appearance over
    (message, key); ``index[mi][ki]`` is the position in ``labels`` of the
    label of message mi under key ki; ``blocks[mi]`` counts the keys of each
    label position that message mi reaches, in first-appearance order over
    the keys. Tag states and overlaps are computed on first use, after
    callers have validated, so a symmetry violation is reported before a
    missing tagging unitary. The scheme is taken to be fixed once built. The
    table keeps the parts of the scheme it reads but not the scheme itself,
    which holds the table: a reference cycle would leave every dead scheme to
    the cyclic garbage collector.
    """

    def __init__(self, scheme: QmacScheme):
        self.message_set = scheme.message_set
        self.key_set = scheme.key_set
        self.multiplicity = scheme.multiplicity
        self.tag_unitaries = scheme.tag_unitaries
        self.initial_state = scheme.initial_state
        positions: dict = {}
        self.index = []
        self.blocks = []
        for message in scheme.message_set:
            row = [
                positions.setdefault(scheme.label_fn(key, message), len(positions))
                for key in scheme.key_set
            ]
            self.index.append(row)
            self.blocks.append(Counter(row))
        self.labels = tuple(positions)

    def check_partition(self, mi: int) -> None:
        """Uniform key partition for message index mi (see partition_keys)."""
        message = self.message_set[mi]
        n_keys = len(self.key_set)
        multiplicity = self.multiplicity
        if n_keys % multiplicity != 0:
            raise InvariantViolation(
                f"key count {n_keys} is not a multiple of multiplicity {multiplicity}"
            )
        for p, size in self.blocks[mi].items():
            if size != multiplicity:
                raise InvariantViolation(
                    f"symmetry violation at message {message!r}, label {self.labels[p]!r}: "
                    f"block size {size} != multiplicity {multiplicity}"
                )
        expected_blocks = n_keys // multiplicity
        if len(self.blocks[mi]) != expected_blocks:
            raise InvariantViolation(
                f"symmetry violation at message {message!r}: {len(self.blocks[mi])} labels "
                f"realized, expected |K|/L = {expected_blocks}"
            )

    def validate(self) -> None:
        """Uniform partition for every message, then label injectivity per key."""
        for mi in range(len(self.blocks)):
            self.check_partition(mi)
        for ki, key in enumerate(self.key_set):
            seen: dict = {}
            for message, row in zip(self.message_set, self.index):
                p = row[ki]
                if p in seen:
                    raise InvariantViolation(
                        f"key {key!r} maps messages {seen[p]!r} and {message!r} "
                        f"to the same label {self.labels[p]!r}"
                    )
                seen[p] = message

    @cached_property
    def states(self) -> np.ndarray:
        """Tag state E_tau |psi_in> of each label, one read-only row per label."""
        psi = self.initial_state.amplitudes
        rows = np.empty((len(self.labels), psi.size), dtype=complex)
        for p, label in enumerate(self.labels):
            gate = self.tag_unitaries.get(label)
            if gate is None:
                raise ParameterError(f"label {label!r} has no tagging unitary")
            rows[p] = gate.matrix @ psi
        norms = np.linalg.norm(rows, axis=1)
        off = np.abs(norms - 1.0) > NORM_ATOL
        if off.any():
            norm = norms[np.argmax(off)]
            raise ParameterError(f"state norm {norm!r} is not 1 within {NORM_ATOL}")
        rows.setflags(write=False)
        return rows

    @cached_property
    def overlaps(self) -> tuple[list, ...]:
        """Per message, |<Psi_i|Psi_j>| for its label pairs i < j in scan order.

        Scan order is that of itertools.combinations over the message's labels.
        Each pair is its own vdot of two rows: a Gram product sums in another
        order and moves reported overlaps in the last bit.
        """
        rows = self.states
        return tuple(
            [abs(np.vdot(a, b)) for a, b in itertools.combinations([rows[p] for p in blocks], 2)]
            for blocks in self.blocks
        )


def tag_state(scheme: QmacScheme, key, message) -> PureState:
    """Quantum tag E_f(k,m) |psi_in> for one key/message pair."""
    if key not in scheme.key_set:
        raise ParameterError(f"unknown key {key!r}")
    if message not in scheme.message_set:
        raise ParameterError(f"unknown message {message!r}")
    label = scheme.label_fn(key, message)
    gate = scheme.tag_unitaries.get(label)
    if gate is None:
        raise ParameterError(f"label {label!r} has no tagging unitary")
    return gate.apply(scheme.initial_state)


def _message_index(scheme: QmacScheme, message) -> int:
    if message not in scheme.message_set:
        raise ParameterError(f"unknown message {message!r}")
    return scheme.message_set.index(message)


def realized_labels(scheme: QmacScheme, message) -> tuple:
    """Labels reached for a message, in first-appearance order over the keys."""
    mi = _message_index(scheme, message)
    table = scheme.table
    return tuple(table.labels[p] for p in table.blocks[mi])


def partition_keys(scheme: QmacScheme, message) -> dict:
    """Key blocks per realized label; raises if the partition is not uniform.

    Blocks must be disjoint (automatic), cover the key set, all have size
    ``multiplicity``, and number |K|/multiplicity.
    """
    mi = _message_index(scheme, message)
    table = scheme.table
    table.check_partition(mi)
    blocks: dict = {p: [] for p in table.blocks[mi]}
    for key, p in zip(scheme.key_set, table.index[mi]):
        blocks[p].append(key)
    return {table.labels[p]: tuple(keys) for p, keys in blocks.items()}


def validate_scheme(scheme: QmacScheme) -> None:
    """Uniform partition for every message + label injectivity per key."""
    scheme.table.validate()


def overlap_matrix(scheme: QmacScheme, message) -> tuple[tuple, np.ndarray]:
    """Pairwise tag-state overlaps |<Psi_tau'|Psi_tau>| for one message.

    Returns (labels, matrix) with labels in realization order; the matrix is
    symmetric with unit diagonal.
    """
    labels = realized_labels(scheme, message)
    overlaps = scheme.table.overlaps[scheme.message_set.index(message)]
    lam = np.eye(len(labels))
    for (i, j), value in zip(itertools.combinations(range(len(labels)), 2), overlaps):
        lam[i, j] = lam[j, i] = value
    return labels, lam


def max_offdiagonal_overlap(scheme: QmacScheme) -> float:
    """Largest tag overlap across all messages and distinct label pairs."""
    return float(max((max(pairs) for pairs in scheme.table.overlaps if pairs), default=0.0))


def is_classical_equivalent(scheme: QmacScheme) -> bool:
    """True when every message's tags are mutually orthogonal (within 1e-9)."""
    return max_offdiagonal_overlap(scheme) <= OVERLAP_TOL


@dataclass(frozen=True)
class DecisionRule:
    """Bob's verdict on a received tag.

    ``projective``: project onto the expected tag state (accepts a wrong tag
    with probability lambda^2). ``symmetry-test``: symmetry test over
    ``copies`` total systems (accepts a wrong tag with probability
    (1 + (copies-1) lambda^2)/copies). Both accept honest tags surely.
    """

    kind: str
    copies: int | None = None

    def __post_init__(self):
        if self.kind not in ("projective", "symmetry-test"):
            raise ParameterError(f"unknown decision rule {self.kind!r}")
        if self.kind == "symmetry-test":
            if not isinstance(self.copies, int) or self.copies < 2:
                raise ParameterError("symmetry-test rule needs an integer copy count >= 2")
        elif self.copies is not None:
            raise ParameterError("projective rule takes no copy count")

    @classmethod
    def projective(cls) -> "DecisionRule":
        return cls(kind="projective")

    @classmethod
    def symmetry_test(cls, copies: int) -> "DecisionRule":
        return cls(kind="symmetry-test", copies=copies)

    def wrong_tag_acceptance(self, lam: float) -> float:
        if self.kind == "projective":
            return float(lam) ** 2
        return acceptance_error_formula(self.copies, lam)


@dataclass(frozen=True, eq=False)
class AttackReport:
    """Outcome of an attack optimization.

    ``deception_probability`` is the adversary's best success rate,
    ``classical_floor`` the 1/|T| guessing baseline, and the witness fields
    describe a maximizing strategy. ``deception_probability_average``, when
    present, replaces the max over (message, label pair) with the mean.
    """

    attack: str
    deception_probability: float
    classical_floor: float
    witness_message: Any = None
    witness_labels: tuple | None = None
    witness_state: PureState | None = None
    witness_strategy: str = ""
    deception_probability_average: float | None = None

    def __post_init__(self):
        if self.attack not in ("impersonation", "substitution"):
            raise ParameterError(f"unknown attack kind {self.attack!r}")
        p = self.deception_probability
        if p < self.classical_floor - 1e-9 or p > 1.0 + 1e-9:
            raise ParameterError(
                f"deception probability {p} outside [{self.classical_floor}, 1]"
            )


def impersonation_deception(
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
    table = scheme.table
    table.validate()
    tag_count = scheme.tags_per_message
    floor = 1.0 / tag_count

    best_q = 0.0
    witness = None
    q_values = []
    for message, blocks, pairs in zip(scheme.message_set, table.blocks, table.overlaps):
        q = [rule.wrong_tag_acceptance(lam) for lam in pairs]
        q_values.extend(itertools.chain.from_iterable(zip(q, q)))  # both orderings of each pair
        top = max(q, default=0.0)
        if top > best_q:
            best_q = top
            expected, forged = list(itertools.combinations(blocks, 2))[q.index(top)]
            witness = (message, forged, expected)
    mean_q = sum(q_values) / len(q_values) if q_values else 0.0

    witness_state = None
    witness_message = None
    witness_labels = None
    strategy = "guess a tag uniformly (single-label scheme)"
    if witness is not None:
        witness_message, forged_p, expected_p = witness
        forged, expected = table.labels[forged_p], table.labels[expected_p]
        witness_labels = (expected, forged)
        witness_state = _trusted(PureState, table.states[forged_p], scheme.initial_state.dims)
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


@dataclass(frozen=True, eq=False)
class Theorem2Report:
    """Gap between a scheme's impersonation probability and the 1/|T| floor."""

    p0: float
    classical_floor: float
    margin: float
    max_overlap: float
    classical_equivalent: bool
    attack: AttackReport


def verify_theorem2(scheme: QmacScheme) -> Theorem2Report:
    """Margin of the impersonation probability over 1/|T| (projective rule).

    Overlaps at or below the 1e-9 tolerance are treated as orthogonal, so the
    margin is exactly zero for classical-equivalent schemes and strictly
    positive otherwise.
    """
    attack = impersonation_deception(scheme, DecisionRule.projective())
    lam_max = max_offdiagonal_overlap(scheme)
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


def random_scheme(
    rng: np.random.Generator, dim: int = 2, num_keys: int = 2, num_messages: int = 2
) -> QmacScheme:
    """Random symmetric scheme: label (k, m), one Haar-random unitary each.

    The unitaries of each key are drawn as one stack of |M|; the generator
    is read in the same order as one draw per (k, m).
    """
    keys = tuple(range(num_keys))
    messages = tuple(range(num_messages))
    unitaries = {
        (k, m): gate
        for k in keys
        for m, gate in zip(messages, random_unitaries(num_messages, dim, rng))
    }
    return QmacScheme(
        message_set=messages,
        key_set=keys,
        label_fn=lambda k, m: (k, m),
        tag_unitaries=unitaries,
        initial_state=basis_state(0, (dim,)),
        multiplicity=1,
        name=f"random-{dim}d-{num_keys}k",
    )


def _label_to_str(label) -> str:
    if isinstance(label, tuple):
        return ",".join(str(part) for part in label)
    return str(label)


def scheme_to_json_dict(scheme: QmacScheme) -> dict:
    """Explicit tables: label per (key, message) plus unitary per label.

    Labels are canonicalized to strings; loading the document back yields an
    equivalent scheme whose labels are those strings.
    """
    label_table = [
        [_label_to_str(scheme.label_fn(k, m)) for m in scheme.message_set]
        for k in scheme.key_set
    ]
    used = {lbl for row in label_table for lbl in row}
    unitaries = {}
    for label, gate in scheme.tag_unitaries.items():
        key = _label_to_str(label)
        if key in used:
            unitaries[key] = operator_to_json_dict(gate)
    return {
        "name": scheme.name,
        "messages": list(scheme.message_set),
        "keys": list(scheme.key_set),
        "multiplicity": scheme.multiplicity,
        "label_table": label_table,
        "tag_unitaries": unitaries,
        "initial_state": state_to_json_dict(scheme.initial_state),
    }


def scheme_from_json_dict(doc: dict) -> QmacScheme:
    try:
        messages = tuple(doc["messages"])
        keys = tuple(doc["keys"])
        table = doc["label_table"]
        unitaries_doc = doc["tag_unitaries"]
        initial = state_from_json_dict(doc["initial_state"])
        multiplicity = doc.get("multiplicity", 1)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed scheme document: {exc}") from exc
    if not all(isinstance(item, Hashable) for item in messages + keys):
        raise ParameterError("scheme keys and messages must be scalars, not lists or objects")
    if (
        not isinstance(table, list)
        or len(table) != len(keys)
        or any(not isinstance(row, list) or len(row) != len(messages) for row in table)
    ):
        raise ParameterError("label table shape does not match keys x messages")
    if not isinstance(unitaries_doc, dict):
        raise ParameterError("tag_unitaries must be an object mapping labels to operators")
    lookup = {
        (key, message): str(table[ki][mi])
        for ki, key in enumerate(keys)
        for mi, message in enumerate(messages)
    }
    missing = {lbl for lbl in lookup.values() if lbl not in unitaries_doc}
    if missing:
        raise ParameterError(f"labels without tagging unitaries: {sorted(missing)}")
    unitaries = {lbl: unitary_from_json_dict(spec) for lbl, spec in unitaries_doc.items()}
    return QmacScheme(
        message_set=messages,
        key_set=keys,
        label_fn=lambda k, m: lookup[(k, m)],
        tag_unitaries=unitaries,
        initial_state=initial,
        multiplicity=multiplicity,
        name=str(doc.get("name", "")),
    )
