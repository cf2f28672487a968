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

Each scheme compiles itself on construction: label_fn is walked once over
messages x keys into a label-index table, from which the partition and
injectivity checks are read; each realized label gets one tag-state row; and
the overlaps of every label pair of every message are computed once, in
bounded batches of stacked 1 x d by d x 1 products that give each pair the
bits of its own vdot (``pair_overlaps``), into one read-only float64 array
that a scheme's decision rule scores with no Python value per pair. A random
scheme draws one Haar unitary per (key, message) label. An ensemble of them
is decided from its tag states alone (``random_scheme_reports``): each batch
of whole schemes factors only column 0 of each draw, as the initial state is
|0>, and each scheme's largest overlap is screened by one Gram product per
message block, then recomputed by ``pair_overlaps`` on the pairs near it: bit
for bit as consecutive ``random_scheme`` calls would be.
"""

from __future__ import annotations

import bisect
import itertools
import sys
from collections import Counter
from collections.abc import Hashable
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import InvariantViolation, ParameterError
from .quantum_core import (
    MAX_RUN_ENTRIES,
    MAX_TOTAL_DIMENSION,
    NORM_ATOL,
    STACK_ENTRIES,
    PureState,
    UnitaryOperator,
    _haar_columns,
    _trusted,
    random_unitaries,
    state_from_json_dict,
    unitary_from_json_dict,
    basis_state,
)
from .spec import Field, Spec, read_spec, read_value
from .symmetry_test import _acceptance_error

OVERLAP_TOL = 1e-9
NORMED_OVERLAP_MAX = (1 + 2 * NORM_ATOL) ** 2  # bounds |x|^T|y| of two norm-checked rows, rounding included
COLUMN_ENTRIES = 2**10  # column entries per batch of whole random schemes, at least one scheme
# Work caps, checked before anything is drawn or scored; the run's entry cap is quantum_core.MAX_RUN_ENTRIES.
MAX_SCHEME_ENTRIES = 2**22  # num_keys * num_messages * dim**2: entries of the normals one random scheme draws
MAX_SCHEME_PAIRS = 2**20  # label pairs one scheme scores: num_messages * C(num_keys, 2) for a random one
MAX_RUN_PAIRS = 2**26  # count * num_messages * C(num_keys, 2) for a whole run: about 5 s at 13M pairs/s
MULTIPLICITY = Field(int, 1, lo=1)  # a SCHEME_SPEC key too
_COPIES = Field(int, lo=2, hi=sys.float_info.max)  # symmetry_test.acceptance_error_formula's bound
RANDOM_SHAPE = {  # random-scheme shape arguments, read by _random_shape before its work caps; random_schemes config keys
    "count": Field(int, lo=1),
    "dim": Field(int, 2, lo=1, hi=MAX_TOTAL_DIMENSION),
    "num_keys": Field(int, 2, lo=1),
    "num_messages": Field(int, 2, lo=2),
}

Label = Hashable


class QmacScheme:
    """Message set, key set, label function, tagging unitaries, initial state.

    Keys are implicitly uniform. ``multiplicity`` is the number of keys
    sharing each realized label for a given message.

    ``__init__`` checks the sets, the multiplicity and the unitaries'
    dimension, then compiles the scheme with one walk of ``label_fn`` over
    messages x keys: ``labels`` holds the distinct labels in order of first
    appearance over (message, key); ``index[mi][ki]`` is the position in
    ``labels`` of the label of message mi under key ki; ``blocks[mi]`` counts
    the keys of each label position that message mi reaches, in
    first-appearance order over the keys. Symmetry is decided by one pass of
    :meth:`validate` over these tables, not at construction, so malformed
    schemes can be built and diagnosed; tag states and overlaps are computed
    on first use, after validation, so a symmetry violation is reported
    before a missing tagging unitary. The scheme is fixed once built.
    """

    def __init__(
        self, message_set: tuple, key_set: tuple, label_fn: Callable[[Any, Any], Label],
        tag_unitaries: Mapping[Label, UnitaryOperator], initial_state: PureState, multiplicity: int = 1, name: str = ""
    ):
        if len(message_set) < 2:
            raise ParameterError("message set must contain at least two messages")
        if len(set(message_set)) != len(message_set):
            raise ParameterError("message set contains duplicates")
        if not key_set:
            raise ParameterError("key set must be nonempty")
        if len(set(key_set)) != len(key_set):
            raise ParameterError("key set contains duplicates")
        multiplicity = read_value(MULTIPLICITY, multiplicity, "multiplicity")
        d = initial_state.d
        for label, gate in tag_unitaries.items():
            if gate.d != d:
                raise ParameterError(f"tag unitary for label {label!r} has dimension {gate.d}, state has {d}")
        self.message_set, self.key_set, self.label_fn = message_set, key_set, label_fn
        self.tag_unitaries, self.initial_state, self.multiplicity, self.name = (
            tag_unitaries, initial_state, multiplicity, name
        )
        positions: dict = {}
        self.index = [
            [positions.setdefault(label_fn(key, message), len(positions)) for key in key_set]
            for message in message_set
        ]
        self.blocks, self.labels = [Counter(row) for row in self.index], tuple(positions)

    @property
    def tags_per_message(self) -> int:
        return len(self.key_set) // self.multiplicity

    def validate(self) -> None:
        """Uniform key partition, then label injectivity per key: the key
        count is a multiple of ``multiplicity``; each message's label blocks,
        in message order, all have size ``multiplicity`` and number |K|/L;
        no key maps two messages to one label."""
        n_keys, multiplicity = len(self.key_set), self.multiplicity
        if n_keys % multiplicity != 0:
            raise InvariantViolation(f"key count {n_keys} is not a multiple of multiplicity {multiplicity}")
        for message, blocks in zip(self.message_set, self.blocks):
            for p, size in blocks.items():
                if size != multiplicity:
                    raise InvariantViolation(
                        f"symmetry violation at message {message!r}, label {self.labels[p]!r}: "
                        f"block size {size} != multiplicity {multiplicity}"
                    )
            if len(blocks) != self.tags_per_message:
                raise InvariantViolation(
                    f"symmetry violation at message {message!r}: {len(blocks)} labels "
                    f"realized, expected |K|/L = {self.tags_per_message}"
                )
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
        _check_norms(rows)
        rows.setflags(write=False)
        return rows

    @cached_property
    def pair_starts(self) -> list[int]:
        """Position in ``overlaps`` of each message's first pair, then the pair count."""
        return list(itertools.accumulate((len(b) * (len(b) - 1) // 2 for b in self.blocks), initial=0))

    @cached_property
    def pair_index(self) -> np.ndarray:
        """Row positions (i, j) of the label pairs i < j of every message, in ``overlaps`` order."""
        rows = [np.fromiter(blocks, np.intp, len(blocks)) for blocks in self.blocks]
        return np.concatenate([positions[_pair_positions(len(positions))].T for positions in rows])

    @cached_property
    def overlaps(self) -> np.ndarray:
        """|<Psi_i|Psi_j>| for the label pairs i < j of every message, one read-only float64 array.

        Messages follow in order, message mi's pairs from ``pair_starts[mi]``,
        each message's in itertools.combinations order over its labels; the
        values are those of ``pair_overlaps``. The pair count, read from the
        compiled labels, is held to ``MAX_SCHEME_PAIRS`` before any tag state
        is formed.
        """
        if self.pair_starts[-1] > MAX_SCHEME_PAIRS:
            raise ParameterError(f"the scheme would score {self.pair_starts[-1]} label pairs; the cap is {MAX_SCHEME_PAIRS}")
        return pair_overlaps(self.states, self.pair_index)


def _check_norms(rows: np.ndarray) -> None:
    """Every tag-state row has unit norm within NORM_ATOL (NaN fails)."""
    norms = np.linalg.norm(rows, axis=1)
    off = ~(np.abs(norms - 1.0) <= NORM_ATOL)
    if off.any():
        norm = norms[np.argmax(off)]
        raise ParameterError(f"state norm {float(norm)} is not 1 within {NORM_ATOL}")


def _pair_positions(n: int) -> np.ndarray:
    """Positions i < j of the pairs of n items, a column (i, j) each, in itertools.combinations order."""
    return np.array(np.triu_indices(n, 1), dtype=np.intp)


def pair_overlaps(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """|<rows[i]|rows[j]>| for each pair (i, j) of ``index``, as a read-only float64 array.

    Each pair is the 1 x d by d x 1 matmul of its conjugated and plain rows,
    which reaches the zdot kernel np.vdot calls, and its modulus is np.hypot,
    which abs of a complex scalar calls, so every value is bit for bit
    abs(np.vdot(rows[i], rows[j])); a Gram product, einsum or np.abs would
    move reported overlaps in the last bit. Pairs go in batches of at most
    STACK_ENTRIES gathered entries per side.
    """
    step = max(1, STACK_ENTRIES // rows.shape[1])
    values = np.empty(len(index))
    for start in range(0, len(index), step):
        batch = index[start : start + step]
        dots = rows[batch[:, 0]].conj()[:, None, :] @ rows[batch[:, 1]][:, :, None]
        values[start : start + step] = np.hypot(dots.real, dots.imag).ravel()
    values.setflags(write=False)
    return values


validate_scheme = QmacScheme.validate


def overlap_matrix(scheme: QmacScheme, message) -> tuple[tuple, np.ndarray]:
    """Pairwise tag-state overlaps |<Psi_tau'|Psi_tau>| for one message.

    Returns (labels, matrix) with labels in realization order; the matrix is
    symmetric with unit diagonal.
    """
    if message not in scheme.message_set:
        raise ParameterError(f"unknown message {message!r}")
    mi = scheme.message_set.index(message)
    labels = tuple(scheme.labels[p] for p in scheme.blocks[mi])
    lam, (i, j) = np.eye(len(labels)), _pair_positions(len(labels))
    lam[i, j] = lam[j, i] = scheme.overlaps[scheme.pair_starts[mi] : scheme.pair_starts[mi + 1]]
    return labels, lam


def max_offdiagonal_overlap(scheme: QmacScheme) -> float:
    """Largest tag overlap across all messages and distinct label pairs."""
    return float(scheme.overlaps.max(initial=0.0))


class DecisionRule:
    """Bob's verdict on a received tag.

    ``projective``: project onto the expected tag state (accepts a wrong tag
    with probability lambda^2). ``symmetry-test``: symmetry test over
    ``copies`` total systems (accepts a wrong tag with probability
    (1 + (copies-1) lambda^2)/copies). Both accept honest tags surely.
    """

    def __init__(self, kind: str, copies: int | None = None):
        if kind not in ("projective", "symmetry-test"):
            raise ParameterError(f"unknown decision rule {kind!r}")
        if kind == "symmetry-test":
            copies = read_value(_COPIES, copies, "copy count")
        elif copies is not None:
            raise ParameterError("projective rule takes no copy count")
        self.kind, self.copies = kind, copies

    def __eq__(self, other):
        return type(other) is DecisionRule and vars(other) == vars(self)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def wrong_tag_acceptances(self, overlaps: np.ndarray) -> np.ndarray:
        """Probability of accepting a wrong tag at each overlap of a float64 array, as an array.

        The projective rule squares as ``lam * lam``, correctly rounded (libm pow, float ``** 2``, is
        not); the symmetry-test rule checks every overlap's range first, naming the first bad one, then
        applies ``symmetry_test.acceptance_error_formula``'s kernel elementwise, IEEE op for IEEE op.
        The range is [0, NORMED_OVERLAP_MAX], which holds the overlap of any two norm-checked tag states.
        """
        if self.kind == "projective":
            return overlaps * overlaps
        bad = ~((0.0 <= overlaps) & (overlaps <= NORMED_OVERLAP_MAX))
        if bad.any():
            raise ParameterError(f"overlap {float(overlaps[np.argmax(bad)])!r} outside [0, 1]")
        return _acceptance_error(float(self.copies), overlaps)


class AttackReport:
    """Outcome of an attack optimization.

    ``deception_probability`` is the adversary's best success rate,
    ``classical_floor`` the 1/|T| guessing baseline, and the witness fields
    describe a maximizing strategy. ``deception_probability_average``, when
    present, replaces the max over (message, label pair) with the mean.
    """

    def __init__(
        self, deception_probability: float, classical_floor: float, witness_message: Any = None,
        witness_labels: tuple | None = None, witness_state: PureState | None = None, witness_strategy: str = "",
        deception_probability_average: float | None = None
    ):
        p = deception_probability
        if p < classical_floor - 1e-9 or p > 1.0 + 1e-9:
            raise ParameterError(f"deception probability {p} outside [{classical_floor}, 1]")
        self.deception_probability, self.classical_floor, self.witness_message = p, classical_floor, witness_message
        self.witness_labels, self.witness_state = witness_labels, witness_state
        self.witness_strategy, self.deception_probability_average = witness_strategy, deception_probability_average


def impersonation_deception(
    scheme: QmacScheme, rule: DecisionRule | None = None
) -> AttackReport:
    """Best impersonation success against the scheme under Bob's rule.

    The forger guesses the right tag with probability 1/|T|; otherwise Bob
    accepts the mismatched tag with probability Q given by the rule and the
    pair's overlap, maximized exhaustively over messages and distinct label
    pairs (first maximizer in scan order wins ties). The mean-Q variant is
    reported alongside, each pair counted once per ordering and summed in scan
    order by ``np.cumsum``, as a Python loop would (``np.sum`` adds pairwise):
    STACK_ENTRIES pairs at a time, each chunk after the first led by the sum
    so far, which makes the same additions in bounded memory.
    """
    rule = rule or DecisionRule("projective")
    scheme.validate()
    floor = 1.0 / scheme.tags_per_message

    q = rule.wrong_tag_acceptances(scheme.overlaps)
    best_q = float(q.max(initial=0.0))
    total = np.empty(0)
    for lo in range(0, q.size, STACK_ENTRIES):
        total = np.cumsum(np.concatenate((total, np.repeat(q[lo : lo + STACK_ENTRIES], 2))))[-1:]
    mean_q = float(total[0] / (2 * q.size)) if q.size else 0.0

    witness_state = witness_message = witness_labels = None
    strategy = "guess a tag uniformly (single-label scheme)"
    if best_q > 0.0:
        position = int(np.argmax(q))
        mi = bisect.bisect_right(scheme.pair_starts, position) - 1
        expected_p, forged_p = scheme.pair_index[position].tolist()
        witness_message = scheme.message_set[mi]
        forged, expected = scheme.labels[forged_p], scheme.labels[expected_p]
        witness_labels = (expected, forged)
        witness_state = _trusted(PureState, scheme.states[forged_p], scheme.initial_state.dims)
        strategy = (
            f"send message {witness_message!r} with the tag state of label {forged!r}; "
            f"worst confusion against expected label {expected!r}"
        )
    return AttackReport(
        deception_probability=_deception_probability(floor, best_q),
        classical_floor=floor,
        witness_message=witness_message,
        witness_labels=witness_labels,
        witness_state=witness_state,
        witness_strategy=strategy,
        deception_probability_average=_deception_probability(floor, mean_q),
    )


def _deception_probability(floor: float, q: float) -> float:
    """Success of a forger who hits the right tag with probability ``floor``
    and otherwise is accepted with probability ``q``."""
    return floor + (1.0 - floor) * q


class Theorem2Report(NamedTuple):
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
    attack = impersonation_deception(scheme, DecisionRule("projective"))
    return _theorem2_report(attack, max_offdiagonal_overlap(scheme))


def _theorem2_report(attack: AttackReport, lam_max: float) -> Theorem2Report:
    """The Theorem 2 verdict on a projective-rule attack and the largest overlap."""
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


def _random_shape(**shape: int) -> list[int]:
    """count, dim, num_keys and num_messages as ints, each read in the order given by its ``RANDOM_SHAPE``
    field, once the normals and label pairs of one scheme and of the run are within the work caps."""
    count, dim, keys, messages = shape = [read_value(RANDOM_SHAPE[name], value, name) for name, value in shape.items()]
    entries, pairs = keys * messages * dim**2, messages * (keys * (keys - 1) // 2)
    for work, size, cap in (
        ("a random scheme would draw num_keys * num_messages * dim**2 = {} entries", entries, MAX_SCHEME_ENTRIES),
        ("a random scheme would score num_messages * C(num_keys, 2) = {} label pairs", pairs, MAX_SCHEME_PAIRS),
        ("the run would draw count * num_keys * num_messages * dim**2 = {} entries", count * entries, MAX_RUN_ENTRIES),
        ("the run would score count * num_messages * C(num_keys, 2) = {} label pairs", count * pairs, MAX_RUN_PAIRS),
    ):
        if size > cap:
            raise ParameterError(f"{work.format(size)}; the cap is {cap}")
    return shape


def _random_label(key, message) -> Label:
    return (key, message)


def random_scheme(
    rng: np.random.Generator, dim: int = 2, num_keys: int = 2, num_messages: int = 2
) -> QmacScheme:
    """One random symmetric scheme: label (k, m), one Haar-random unitary
    each, drawn key-major by ``random_unitaries``. Consecutive calls draw
    what one stack-spanning stream of their unitaries would, bit for bit,
    generator state included, so they are the reference for
    ``random_scheme_reports``."""
    _, dim, num_keys, num_messages = _random_shape(count=1, dim=dim, num_keys=num_keys, num_messages=num_messages)
    keys, messages = tuple(range(num_keys)), tuple(range(num_messages))
    return QmacScheme(
        message_set=messages,
        key_set=keys,
        label_fn=_random_label,
        tag_unitaries=dict(zip(itertools.product(keys, messages), random_unitaries(num_keys * num_messages, dim, rng))),
        initial_state=basis_state(0, (dim,)),
        multiplicity=1,
        name=f"random-{dim}d-{num_keys}k",
    )


def random_scheme_reports(
    rng: np.random.Generator, count: int, dim: int, num_keys: int, num_messages: int
) -> Iterator[Theorem2Report]:
    """``verify_theorem2`` of each of ``count`` consecutive ``random_scheme``
    calls on ``rng``, decided without building a scheme per draw.

    The labels (k, m) are distinct, so each message holds one tag per key and
    the floor is 1/|K|. The reference's initial state is ``basis_state(0)``,
    so each tag state E|0> is column 0 of its unitary, bit for bit the gemv of
    ``QmacScheme.states`` on the reference's draws. One ``_haar_columns`` call draws the rows of
    ``max(1, COLUMN_ENTRIES // (|labels| * dim))`` whole schemes, key-major;
    swapping the key and message axes lays them out as message blocks in
    label order, scored together (``_theorem2_reports``) and released before
    the next batch is drawn. ``_random_shape`` reads the shape and checks the
    work caps at the first request, before any draw; no key, message or label
    tuple is built. Each report's attack carries the deception probability
    and the floor, range checked, but no witness and no mean.
    """
    count, dim, num_keys, num_messages = _random_shape(count=count, dim=dim, num_keys=num_keys, num_messages=num_messages)
    floor, pairs, labels = 1.0 / num_keys, _pair_positions(num_keys), num_keys * num_messages
    per_batch = max(1, COLUMN_ENTRIES // (labels * dim))
    for start in range(0, count, per_batch):
        schemes = min(per_batch, count - start)
        table = _haar_columns(schemes * labels, dim, rng, 1)[..., 0].reshape(schemes, num_keys, num_messages, dim)
        yield from _theorem2_reports(table.swapaxes(1, 2).reshape(-1, num_keys, dim), schemes, pairs, floor)
        del table  # a scored batch is released before the next is drawn


def _theorem2_reports(
    blocks: np.ndarray, schemes: int, pairs: np.ndarray, floor: float
) -> Iterator[Theorem2Report]:
    """The Theorem 2 reports of ``schemes`` schemes of one label structure,
    their message blocks (tag-state rows in label order) filling ``blocks``
    scheme after scheme; ``pairs`` holds a block's pair positions. If a norm
    fails, the schemes before the failing one are reported first.

    A Gram product per block screens the pairs, and ``pair_overlaps``
    recomputes those that could be the maximum. Re and Im of <x|y> each sum
    2d real products, so in any order, FMA or not, a computed <x|y> is within
    sqrt(2) gamma_2d |x|^T|y| of the exact one (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., secs. 3.1, 3.6; its complex gamma_{d+2}
    takes products rounded before the sum, which BLAS need not do). Normed
    rows have |x|^T|y| <= NORMED_OVERLAP_MAX, (1 + 2 NORM_ATOL)^2 with one NORM_ATOL for the norm's
    rounding, and np.hypot adds an ulp below 2: each Gram or zdot modulus is
    within eps of the exact one, and the zdot maximizer within 2 tau = 4 eps
    (2u more for rounding) of the scheme's Gram maximum. Those pairs are
    recomputed in chunks of STACK_ENTRIES positions and reduced as they come:
    each maximum is the full scan's, bit for bit, and its best Q is it
    squared once (the correctly rounded ``lam * lam`` is monotone).
    """
    size, (num_keys, dim) = len(blocks) // schemes, blocks.shape[1:]
    rows = blocks.reshape(-1, dim)
    try:
        _check_norms(rows)
    except ParameterError:
        if schemes == 1:
            raise
        for s in range(schemes):  # the failing scheme raises again
            yield from _theorem2_reports(blocks[s * size : (s + 1) * size], 1, pairs, floor)
        return
    gram, step = np.empty((schemes, size * pairs.shape[1])), max(1, STACK_ENTRIES // num_keys**2)
    for lo in range(0, len(blocks), step):
        chunk = blocks[lo : lo + step]
        moduli = np.abs((chunk.conj() @ chunk.transpose(0, 2, 1))[:, pairs[0], pairs[1]])
        gram.reshape(len(blocks), pairs.shape[1])[lo : lo + step] = moduli
    u, n = np.finfo(float).eps / 2, 2 * dim  # unit roundoff; real products in Re or Im of <x|y>
    eps = 2**0.5 * n * u / (1 - n * u) * NORMED_OVERLAP_MAX + 2 * u
    keep, best = (gram >= gram.max(axis=1, initial=0.0)[:, None] - (4 * eps + 2 * u)).ravel(), np.zeros(schemes)
    for lo in range(0, keep.size, STACK_ENTRIES):
        block, pair = np.divmod(np.flatnonzero(keep[lo : lo + STACK_ENTRIES]) + lo, pairs.shape[1])
        np.maximum.at(best, block // size, pair_overlaps(rows, pairs[:, pair].T + block[:, None] * num_keys))
    for lam_max in best.tolist():
        yield _theorem2_report(AttackReport(_deception_probability(floor, lam_max * lam_max), floor), lam_max)


SCHEME_SPEC = Spec({
    "name": Field(str, ""),
    "messages": Field(list, item=Field(Hashable)),
    "keys": Field(list, item=Field(Hashable)),
    "multiplicity": MULTIPLICITY,
    "label_table": Field(list, item=Field(list, item=Field(Hashable))),
    "tag_unitaries": Field(dict),
    "initial_state": Field(dict),
})


def scheme_from_json_dict(doc: dict, where: str = "scheme") -> QmacScheme:
    doc = read_spec(SCHEME_SPEC, doc, where)
    messages, keys, table = tuple(doc["messages"]), tuple(doc["keys"]), doc["label_table"]
    if len(table) != len(keys) or any(len(row) != len(messages) for row in table):
        raise ParameterError(f"{where}.label_table shape does not match keys x messages")
    lookup = {
        (key, message): str(label) for key, row in zip(keys, table) for message, label in zip(messages, row)
    }
    missing = set(lookup.values()) - set(doc["tag_unitaries"])
    if missing:
        raise ParameterError(f"{where}: labels without tagging unitaries: {sorted(missing)}")
    return QmacScheme(
        message_set=messages,
        key_set=keys,
        label_fn=lambda k, m: lookup[(k, m)],
        tag_unitaries={
            label: unitary_from_json_dict(op, f"{where}.tag_unitaries.{label}")
            for label, op in doc["tag_unitaries"].items()
        },
        initial_state=state_from_json_dict(doc["initial_state"], f"{where}.initial_state"),
        multiplicity=doc["multiplicity"],
        name=doc["name"],
    )
