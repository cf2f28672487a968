"""One-bit authentication keyed by a shared singlet, and its optimal attacks.

Alice and Bob share (|01> - |10>)/sqrt(2); the message bit m travels as a
basis state |phi_m> of a four-dimensional carrier. Alice applies a publicly
known unitary U to the carrier controlled on her half of the singlet, Bob
undoes it controlled on his half (the anticorrelated singlet makes the
control bits complementary, so honest decoding is exact), then measures in
the {phi_j} basis and accepts outcomes 0 and 1.

The protocol faces a rigid trade-off:

* An impersonator who sends psi is accepted with probability
  (1/2) sum_{j<2} |<phi_j|psi>|^2 + (1/2) sum_{j<2} |<psi|U|phi_j>|^2,
  a quadratic form whose maximum (the top eigenvalue of the attack operator)
  never drops below 1/2, with equality forcing <phi_i|U|phi_j> = 0 on the
  accepted block - in particular <phi_m|U|phi_m> = 0 for both messages.
* A substitution adversary holding one valid pair can distinguish |phi_m>
  from U|phi_m> unambiguously at conclusive rate 1 - |<phi_m|U|phi_m>|, and
  forges with certainty on a conclusive outcome.

No unitary makes the diagonal overlaps zero (blocking nothing for the
impersonator's floor) while keeping them nonzero (blocking conclusive
discrimination): the two security goals are incompatible.

One kernel, ``_decide``, decides both verdicts for a stack of tagging
unitaries on one checked frame: the attack operators are built as one
(n, 4, 4) array and diagonalised by one batched ``eigh``, and every verdict
field is one numpy column, taken out with ``tolist``; each value is bit for
bit the one a single instance gives. ``verdict_columns`` runs it on an array
of Haar unitaries, such as that of ``quantum_core.haar_unitaries``, on the
default frame; ``incompatibility_report`` runs it on one instance as a stack
of one, and ``analyze_instance`` does too, keeping its eigenvectors for the
impersonation witness, so one report builds and diagonalises its attack
operator once. The tests hold them to the per-instance reference built on
``optimal_impersonation``. An instance builds its honest-run encode and
decode operators once, on first use.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation, ParameterError
from .qmac_framework import AttackReport
from .quantum_core import (
    INDEX,
    HermitianOperator,
    PureState,
    UnitaryOperator,
    _born_probabilities,
    _kron,
    basis_state,
    check_hermitian,
    max_eigenpair,
    measure_projective,
    partial_trace,
    state_from_json_dict,
    tensor,
    top_eigenvector,
    unitary_from_json_dict,
)
from .spec import Field, Spec, read_spec, read_value

CONDITION_TOL = 1e-9
VERDICT_TOL = 1e-6
# Control-qubit projectors |0><0| and |1><1|, and identities, for the controlled gates.
P0, P1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
EYE2, EYE4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
# The terms of the controlled gates on A x B x C that do not involve U.
ENCODE_IDLE = _kron(P0, _kron(EYE2, EYE4))
DECODE_IDLE = _kron(P1, EYE4)


def singlet() -> PureState:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0 / math.sqrt(2)
    amps[2] = -1.0 / math.sqrt(2)
    return PureState(amps, (2, 2))


def computational_basis() -> tuple[PureState, PureState, PureState, PureState]:
    return tuple(basis_state(j, (2, 2)) for j in range(4))


def _checked_basis(basis) -> tuple:
    """The carrier basis as a tuple (computational when None), checked orthonormal."""
    basis = tuple(basis if basis is not None else computational_basis())
    if len(basis) != 4 or any(s.d != 4 for s in basis):
        raise ParameterError("basis must contain four states of dimension 4")
    stack = np.array([s.amplitudes for s in basis])
    defect = np.abs(stack.conj() @ stack.T - np.eye(4)).max()
    if not defect <= CONDITION_TOL:
        raise ParameterError(f"basis is not orthonormal: max Gram defect {defect:.3e}")
    return basis


def _checked_accept_set(accept_set) -> tuple[int, int]:
    accept = tuple(read_value(INDEX, j, "accept set index") for j in accept_set)
    if len(accept) != 2 or len(set(accept)) != 2 or any(j not in range(4) for j in accept):
        raise ParameterError(f"accept set must be two distinct basis indices, got {accept!r}")
    return accept


class CurtySantosInstance:
    """Carrier basis, public tagging unitary, and Bob's accepted outcomes."""

    def __init__(self, tag_unitary: UnitaryOperator, basis: tuple | None = None, accept_set: tuple = (0, 1)):
        if tag_unitary.d != 4:
            raise ParameterError(f"tagging unitary must be 4x4, got {tag_unitary.d}")
        self.tag_unitary = tag_unitary
        self.basis, self.accept_set = _checked_basis(basis), _checked_accept_set(accept_set)

    @cached_property
    def coding_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """Alice's controlled tagging on (A, C) and Bob's controlled undo on
        (B, C), as matrices on A x B x C."""
        u = self.tag_unitary.matrix
        encode = ENCODE_IDLE + _kron(P1, _kron(EYE2, u))
        decode = _kron(EYE2, _kron(P0, u.conj().T) + DECODE_IDLE)
        return encode, decode


def _check_message(m) -> int:
    m = read_value(INDEX, m, "message")
    if m not in (0, 1):
        raise ParameterError(f"message must be the bit 0 or 1, got {m!r}")
    return m


class HonestRunTrace(NamedTuple):
    """Every intermediate of one honest protocol round."""

    message: int
    joint_state_after_encode: PureState
    bob_outcome_distribution: np.ndarray
    accepted_probability: float
    factorization_residual: float


def honest_run(instance: CurtySantosInstance, m: int) -> HonestRunTrace:
    """Run one round with an honest Alice; Bob must accept with certainty.

    After Bob's decoding the joint state factors back into singlet x |phi_m>
    (the residual of that factorization is part of the trace), and his
    measurement lands on outcome m with probability 1. The measurement is
    ``measure_projective``'s arithmetic without its checks of the density
    and the basis: the density is that of a validated state, and the
    instance checked its basis.
    """
    m = _check_message(m)
    carrier = instance.basis[instance.accept_set[m]]
    encode, decode = instance.coding_operators
    start = tensor([singlet(), carrier])
    encoded = PureState(encode @ start.amplitudes, (2, 2, 4))
    decoded = PureState(decode @ encoded.amplitudes, (2, 2, 4))
    residual = float(np.linalg.norm(decoded.amplitudes - start.amplitudes))
    if residual > 1e-12:
        raise InvariantViolation(f"decoding failed to undo encoding: residual {residual:.3e}")
    rho_c = partial_trace(decoded, keep=(2,))
    distribution = _born_probabilities(rho_c, np.array([s.amplitudes for s in instance.basis]))
    accepted = float(distribution[list(instance.accept_set)].sum())
    if abs(accepted - 1.0) > 1e-12:
        raise InvariantViolation(f"honest acceptance {accepted!r} is not 1")
    return HonestRunTrace(
        message=m,
        joint_state_after_encode=encoded,
        bob_outcome_distribution=distribution,
        accepted_probability=accepted,
        factorization_residual=residual,
    )


def impersonation_acceptance(instance: CurtySantosInstance, psi: PureState) -> float:
    """Probability Bob accepts a forged carrier state psi (closed form).

    Averages Bob's two decodings over the singlet branches:
    (1/2) sum_{j in accept} |<phi_j|psi>|^2 + (1/2) sum_{j in accept} |<psi|U|phi_j>|^2.
    """
    if psi.d != 4:
        raise ParameterError(f"forged state must have dimension 4, got {psi.d}")
    u = instance.tag_unitary.matrix
    total = 0.0
    for j in instance.accept_set:
        phi = instance.basis[j].amplitudes
        received, decoded = abs(np.vdot(phi, psi.amplitudes)), abs(np.vdot(psi.amplitudes, u @ phi))
        total += 0.5 * (received * received)
        total += 0.5 * (decoded * decoded)
    return float(total)


def simulate_impersonation_acceptance(instance: CurtySantosInstance, psi: PureState) -> float:
    """Same probability by full simulation: psi rides the channel while the
    singlet stays intact, Bob decodes and measures. Checks the closed form."""
    if psi.d != 4:
        raise ParameterError(f"forged state must have dimension 4, got {psi.d}")
    joint = tensor([singlet(), PureState(psi.amplitudes, (4,))])
    decoded = PureState(instance.coding_operators[1] @ joint.amplitudes, (2, 2, 4))
    rho_c = partial_trace(decoded, keep=(2,))
    distribution = measure_projective(rho_c, instance.basis)
    return float(distribution[list(instance.accept_set)].sum())


def _attack_operators(matrices: np.ndarray, basis, accept) -> np.ndarray:
    """The (n, 4, 4) attack operators of n tagging matrices: for each accepted
    j, half the projector onto phi_j, then half that onto U phi_j, in order."""
    m = np.zeros(matrices.shape, dtype=complex)
    for j in accept:
        phi = basis[j].amplitudes
        m += 0.5 * np.outer(phi, phi.conj())
        rotated = matrices @ phi
        m += 0.5 * (rotated[:, :, None] * rotated[:, None, :].conj())
    return m


def attack_operator(instance: CurtySantosInstance) -> HermitianOperator:
    """Operator M with <psi|M|psi> = impersonation acceptance of psi."""
    matrices = instance.tag_unitary.matrix[None]
    return HermitianOperator(_attack_operators(matrices, instance.basis, instance.accept_set)[0], (2, 2))


def optimal_impersonation(instance: CurtySantosInstance) -> AttackReport:
    """Best forged state and its acceptance: the attack operator's top
    eigenpair. The mean eigenvalue is 1/2, so the optimum never falls below
    the random-guess floor."""
    value, state = max_eigenpair(attack_operator(instance))
    return AttackReport(
        deception_probability=value,
        classical_floor=0.5,
        witness_state=state,
        witness_strategy="send the top eigenvector of the attack operator as the carrier",
    )


class Condition13Report(NamedTuple):
    """Whether <phi_m|U|phi_m> vanishes for each message (the floor condition)."""

    diagonal_overlaps: tuple[float, float]
    per_message: tuple[bool, bool]
    holds: bool


class IncompatibilityReport(NamedTuple):
    """Joint security status of the two attacks for one instance.

    ``simultaneously_secure`` records whether the impersonation probability
    sits at the 1/2 floor while substitution stays short of certainty for
    both messages; it is false for every unitary, witnessed by the message
    whose diagonal overlap decides which side fails.
    """

    condition_13: Condition13Report
    condition_14_per_message: tuple[bool, bool]
    impersonation_probability: float
    substitution_conclusive: tuple[float, float]
    impersonation_at_floor: bool
    substitution_blocked: bool
    simultaneously_secure: bool
    witness_message: int
    witness_overlap: float


def incompatibility_report(instance: CurtySantosInstance) -> IncompatibilityReport:
    """The report of one instance: its checked frame and tagging unitary decided as a stack of one."""
    return _reports(_decide(instance.tag_unitary.matrix[None], instance.basis, instance.accept_set)[3])[0]


def verdict_columns(unitaries: np.ndarray) -> dict[str, list]:
    """The ``IncompatibilityReport`` fields as columns, one list per field
    over the matrices of ``unitaries`` in order: an (n, 4, 4) array of checked
    unitaries, such as that of ``quantum_core.haar_unitaries``, decided by one
    ``_decide`` call on the computational basis with outcomes 0 and 1
    accepted, the default frame of ``CurtySantosInstance``."""
    if unitaries.shape[1:] != (4, 4):
        raise ParameterError(f"tagging unitaries must be 4x4, got {unitaries.shape[1:]}")
    return _decide(unitaries, computational_basis(), (0, 1))[3]


def _reports(columns: dict[str, list]) -> list[IncompatibilityReport]:
    """The ``IncompatibilityReport`` of each row of ``_decide``'s columns,
    which follow the report's fields in order."""
    return [
        IncompatibilityReport(Condition13Report(tuple(o), tuple(per), holds), tuple(c14), p, tuple(c), *verdicts)
        for o, per, holds, c14, p, c, *verdicts in zip(*columns.values())
    ]


def analyze_instance(instance: CurtySantosInstance) -> tuple[PureState, IncompatibilityReport, np.ndarray]:
    """The witness of ``optimal_impersonation``, the ``incompatibility_report``
    (its ``impersonation_probability`` is the optimum) and the spectrum of
    ``attack_operator``, bit for bit, from one operator build, hermiticity
    check and ``eigh``, without checking the instance's frame again. The
    spectrum is ``eigvalsh`` of that matrix, which can differ from ``eigh`` in the last bit."""
    m, values, vectors, columns = _decide(instance.tag_unitary.matrix[None], instance.basis, instance.accept_set)
    witness = PureState(top_eigenvector(values[0], vectors[0]), (2, 2))
    return witness, _reports(columns)[0], np.linalg.eigvalsh(m[0])


def _decide(matrices: np.ndarray, basis, accept) -> tuple:
    """The attack operators of tagging matrices on a checked frame, checked
    Hermitian at once; the values and vectors of one batched ``eigh`` of their
    (M + M†)/2, the matrix ``max_eigenpair`` diagonalises; and the report
    fields as columns, in ``IncompatibilityReport`` order with condition 13's
    three fields first.

    Each column is one numpy expression over the stack: the elementwise
    comparisons, ``minimum`` and first ``argmax`` give the bits of the
    per-instance Python tests, ``min`` and ``index`` of ``max``.
    """
    m = _attack_operators(matrices, basis, accept)
    check_hermitian(m)
    values, vectors = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2.0)
    # <phi_j|U phi_j> by a 1x4 @ 4x1 matmul (the dot np.vdot takes), and its
    # modulus by hypot (the one abs(complex) takes), so the bits match.
    phis = [basis[j].amplitudes for j in accept]
    diagonal = np.stack([(phi.conj() @ (matrices @ phi)[:, :, None])[:, 0] for phi in phis], axis=1)
    overlaps = np.hypot(diagonal.real, diagonal.imag)
    impersonation = values[:, -1]
    per_message = overlaps <= CONDITION_TOL
    conclusive = 1.0 - np.minimum(1.0, overlaps)
    at_floor = impersonation <= 0.5 + VERDICT_TOL
    blocked = (conclusive < 1.0 - VERDICT_TOL).all(axis=1)
    witness = np.where(overlaps.max(axis=1) > CONDITION_TOL, overlaps.argmax(axis=1), 0)
    columns = {
        "diagonal_overlaps": overlaps.tolist(),
        "per_message": per_message.tolist(),
        "holds": per_message.all(axis=1).tolist(),
        "condition_14_per_message": (overlaps > CONDITION_TOL).tolist(),
        "impersonation_probability": impersonation.tolist(),
        "substitution_conclusive": conclusive.tolist(),
        "impersonation_at_floor": at_floor.tolist(),
        "substitution_blocked": blocked.tolist(),
        "simultaneously_secure": (at_floor & blocked).tolist(),
        "witness_message": witness.tolist(),
        "witness_overlap": np.take_along_axis(overlaps, witness[:, None], axis=1)[:, 0].tolist(),
    }
    return m, values, vectors, columns


INSTANCE_SPEC = Spec({
    "unitary": Field(dict), "basis": Field(list), "accept_set": Field(list, [0, 1], item=Field(int))
}, optional=("basis",))


def instance_from_json_dict(doc: dict, where: str = "instance") -> CurtySantosInstance:
    doc = read_spec(INSTANCE_SPEC, doc, where)
    basis = doc.get("basis")
    if basis is not None:
        basis = [state_from_json_dict(state, f"{where}.basis[{i}]") for i, state in enumerate(basis)]
    gate = unitary_from_json_dict(doc["unitary"], f"{where}.unitary")
    return CurtySantosInstance(tag_unitary=gate, basis=basis, accept_set=doc["accept_set"])
