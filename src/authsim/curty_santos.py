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

``incompatibility_reports`` decides both verdicts for a whole stack of
tagging unitaries that share one basis and accept set: the frame is checked
once, the attack operators are built as one (n, 4, 4) stack and diagonalised
by one batched ``eigh``, and each value is bit for bit the one a single
instance gives. ``incompatibility_report`` is its stack-of-one case. The
tests hold the kernel to a per-instance reference built on
``optimal_impersonation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ParameterError
from .qmac_framework import AttackReport, QmacScheme
from .quantum_core import (
    NORM_ATOL,
    HermitianOperator,
    PureState,
    UnitaryOperator,
    _check_document,
    basis_state,
    max_eigenpair,
    measure_projective,
    partial_trace,
    state_from_json_dict,
    tensor,
    unitary_from_json_dict,
)

CONDITION_TOL = 1e-9
VERDICT_TOL = 1e-6
# Control-qubit projectors |0><0| and |1><1|, and identities, for the controlled gates.
P0, P1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
EYE2, EYE4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)


def singlet() -> PureState:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0 / math.sqrt(2)
    amps[2] = -1.0 / math.sqrt(2)
    return PureState(amps, (2, 2))


def computational_basis() -> tuple[PureState, PureState, PureState, PureState]:
    return tuple(basis_state(j, (2, 2)) for j in range(4))


def _check_tag_unitary(gate: UnitaryOperator) -> None:
    if gate.d != 4:
        raise ParameterError(f"tagging unitary must be 4x4, got {gate.d}")


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
    accept = tuple(accept_set)
    if len(accept) != 2 or len(set(accept)) != 2 or any(j not in range(4) for j in accept):
        raise ParameterError(f"accept set must be two distinct basis indices, got {accept!r}")
    return accept


@dataclass(frozen=True, eq=False)
class CurtySantosInstance:
    """Carrier basis, public tagging unitary, and Bob's accepted outcomes."""

    tag_unitary: UnitaryOperator
    basis: tuple = None
    accept_set: tuple[int, int] = (0, 1)

    def __post_init__(self):
        _check_tag_unitary(self.tag_unitary)
        object.__setattr__(self, "basis", _checked_basis(self.basis))
        object.__setattr__(self, "accept_set", _checked_accept_set(self.accept_set))


def _check_message(m) -> int:
    if m not in (0, 1):
        raise ParameterError(f"message must be the bit 0 or 1, got {m!r}")
    return m


def _encode_operator(instance: CurtySantosInstance) -> np.ndarray:
    """Alice's controlled tagging on (A, C), as a matrix on A x B x C."""
    return np.kron(P0, np.kron(EYE2, EYE4)) + np.kron(P1, np.kron(EYE2, instance.tag_unitary.matrix))


def _decode_operator(instance: CurtySantosInstance) -> np.ndarray:
    """Bob's controlled undo on (B, C), as a matrix on A x B x C."""
    return np.kron(EYE2, np.kron(P0, instance.tag_unitary.matrix.conj().T) + np.kron(P1, EYE4))


@dataclass(frozen=True, eq=False)
class HonestRunTrace:
    """Every intermediate of one honest protocol round."""

    message: int
    joint_state_after_encode: PureState
    transmitted_density: HermitianOperator
    bob_outcome_distribution: np.ndarray
    accepted_probability: float
    factorization_residual: float


def honest_run(instance: CurtySantosInstance, m: int) -> HonestRunTrace:
    """Run one round with an honest Alice; Bob must accept with certainty.

    After Bob's decoding the joint state factors back into singlet x |phi_m>
    (the residual of that factorization is part of the trace), and his
    measurement lands on outcome m with probability 1.
    """
    m = _check_message(m)
    carrier = instance.basis[instance.accept_set[m]]
    start = tensor([singlet(), carrier])
    encoded = PureState(_encode_operator(instance) @ start.amplitudes, (2, 2, 4))
    transmitted = partial_trace(encoded, keep=(2,))
    decoded = PureState(_decode_operator(instance) @ encoded.amplitudes, (2, 2, 4))
    residual = float(np.linalg.norm(decoded.amplitudes - start.amplitudes))
    if residual > 1e-12:
        raise InvariantViolation(f"decoding failed to undo encoding: residual {residual:.3e}")
    rho_c = partial_trace(decoded, keep=(2,))
    distribution = measure_projective(rho_c, instance.basis)
    accepted = float(distribution[list(instance.accept_set)].sum())
    if abs(accepted - 1.0) > 1e-12:
        raise InvariantViolation(f"honest acceptance {accepted!r} is not 1")
    return HonestRunTrace(
        message=m,
        joint_state_after_encode=encoded,
        transmitted_density=transmitted,
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
        total += 0.5 * abs(np.vdot(phi, psi.amplitudes)) ** 2
        total += 0.5 * abs(np.vdot(psi.amplitudes, u @ phi)) ** 2
    return float(total)


def simulate_impersonation_acceptance(instance: CurtySantosInstance, psi: PureState) -> float:
    """Same probability by full simulation: psi rides the channel while the
    singlet stays intact, Bob decodes and measures. Checks the closed form."""
    if psi.d != 4:
        raise ParameterError(f"forged state must have dimension 4, got {psi.d}")
    joint = tensor([singlet(), PureState(psi.amplitudes, (4,))])
    decoded = PureState(_decode_operator(instance) @ joint.amplitudes, (2, 2, 4))
    rho_c = partial_trace(decoded, keep=(2,))
    distribution = measure_projective(rho_c, instance.basis)
    return float(distribution[list(instance.accept_set)].sum())


def attack_operator(instance: CurtySantosInstance) -> HermitianOperator:
    """Operator M with <psi|M|psi> = impersonation acceptance of psi."""
    u = instance.tag_unitary.matrix
    m = np.zeros((4, 4), dtype=complex)
    for j in instance.accept_set:
        phi = instance.basis[j].amplitudes
        m += 0.5 * np.outer(phi, phi.conj())
        rotated = u @ phi
        m += 0.5 * np.outer(rotated, rotated.conj())
    return HermitianOperator(m, (2, 2))


def optimal_impersonation(instance: CurtySantosInstance) -> AttackReport:
    """Best forged state and its acceptance: the attack operator's top
    eigenpair. The mean eigenvalue is 1/2, so the optimum never falls below
    the random-guess floor."""
    value, state = max_eigenpair(attack_operator(instance))
    return AttackReport(
        attack="impersonation",
        deception_probability=value,
        classical_floor=0.5,
        witness_state=state,
        witness_strategy="send the top eigenvector of the attack operator as the carrier",
    )


@dataclass(frozen=True)
class Condition13Report:
    """Whether <phi_m|U|phi_m> vanishes for each message (the floor condition)."""

    diagonal_overlaps: tuple[float, float]
    per_message: tuple[bool, bool]
    holds: bool


@dataclass(frozen=True)
class IncompatibilityReport:
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
    """The report of one instance: the stack-of-one case of ``incompatibility_reports``."""
    return incompatibility_reports([instance.tag_unitary], instance.basis, instance.accept_set)[0]


def incompatibility_reports(unitaries, basis=None, accept_set=(0, 1)) -> list[IncompatibilityReport]:
    """One ``IncompatibilityReport`` per tagging unitary, all sharing one
    carrier basis and accept set.

    The basis and accept set are checked once, as ``CurtySantosInstance``
    checks them. The attack operators are built as one stack, checked
    Hermitian at once, and their top eigenvalues come from one batched
    ``eigh`` of (M + M†)/2, the matrix ``max_eigenpair`` diagonalises. Each
    value is bit for bit what the single-instance computation gives.
    """
    unitaries = list(unitaries)
    if not unitaries:
        raise ParameterError("the stack of tagging unitaries is empty")
    for gate in unitaries:
        _check_tag_unitary(gate)
    basis, accept = _checked_basis(basis), _checked_accept_set(accept_set)
    # attack_operator's outer products, summed in its order over the whole (n, 4, 4) stack
    matrices = np.array([gate.matrix for gate in unitaries])
    m = np.zeros(matrices.shape, dtype=complex)
    rotated = []
    for j in accept:
        phi = basis[j].amplitudes
        m += 0.5 * np.outer(phi, phi.conj())
        rotated.append(matrices @ phi)
        m += 0.5 * (rotated[-1][:, :, None] * rotated[-1][:, None, :].conj())
    m_dagger = m.conj().transpose(0, 2, 1)
    defect = np.abs(m - m_dagger).max()
    if not defect <= NORM_ATOL:
        raise ParameterError(f"matrix is not Hermitian: max |A - A†| = {defect:.3e}")
    tops = np.linalg.eigh((m + m_dagger) / 2.0)[0][:, -1].tolist()
    # <phi_j|U phi_j> by a 1x4 @ 4x1 matmul (the dot np.vdot takes), and its
    # modulus by hypot (the one abs(complex) takes), so the bits match.
    diagonal = np.stack(
        [(basis[j].amplitudes.conj() @ r[:, :, None])[:, 0] for j, r in zip(accept, rotated)], axis=1
    )
    reports = []
    for impersonation, overlaps in zip(tops, np.hypot(diagonal.real, diagonal.imag).tolist()):
        overlaps = tuple(overlaps)
        per_message = tuple(o <= CONDITION_TOL for o in overlaps)
        conclusive = tuple(1.0 - min(1.0, o) for o in overlaps)
        at_floor = impersonation <= 0.5 + VERDICT_TOL
        blocked = all(c < 1.0 - VERDICT_TOL for c in conclusive)
        witness = overlaps.index(max(overlaps)) if max(overlaps) > CONDITION_TOL else 0
        reports.append(
            IncompatibilityReport(
                condition_13=Condition13Report(
                    diagonal_overlaps=overlaps, per_message=per_message, holds=all(per_message)
                ),
                condition_14_per_message=tuple(o > CONDITION_TOL for o in overlaps),
                impersonation_probability=impersonation,
                substitution_conclusive=conclusive,
                impersonation_at_floor=at_floor,
                substitution_blocked=blocked,
                simultaneously_secure=at_floor and blocked,
                witness_message=witness,
                witness_overlap=overlaps[witness],
            )
        )
    return reports


def _basis_swap_unitary(instance: CurtySantosInstance, m: int) -> UnitaryOperator:
    """Unitary mapping phi_0 to the carrier of message m (swap in the basis)."""
    j0 = instance.accept_set[0]
    jm = instance.accept_set[m]
    mat = np.eye(4, dtype=complex)
    if jm != j0:
        b = np.array([s.amplitudes for s in instance.basis])
        mat = mat - np.outer(b[j0], b[j0].conj()) - np.outer(b[jm], b[jm].conj())
        mat = mat + np.outer(b[jm], b[j0].conj()) + np.outer(b[j0], b[jm].conj())
    return UnitaryOperator(mat, (2, 2))


def as_qmac_scheme(instance: CurtySantosInstance) -> QmacScheme:
    """Embed the protocol in the generic framework.

    Keys and messages are bits, the label is (k, m), and the tagging unitary
    for (k, m) first prepares the carrier of m from phi_0 and then applies U
    when k = 1. The overlap matrices and the impersonation evaluation of the
    embedding match the protocol's own quantities.
    """
    u_by_key = {0: EYE4, 1: instance.tag_unitary.matrix}
    unitaries = {}
    for k in (0, 1):
        for m in (0, 1):
            prepare = _basis_swap_unitary(instance, m).matrix
            unitaries[(k, m)] = UnitaryOperator(u_by_key[k] @ prepare, (2, 2))
    return QmacScheme(
        message_set=(0, 1),
        key_set=(0, 1),
        label_fn=lambda k, m: (k, m),
        tag_unitaries=unitaries,
        initial_state=instance.basis[instance.accept_set[0]],
        multiplicity=1,
        name="curty-santos",
    )


def instance_from_json_dict(doc: dict) -> CurtySantosInstance:
    _check_document(doc, "instance", ("unitary",), ("basis", "accept_set"))
    try:
        basis_docs = tuple(doc["basis"]) if "basis" in doc else None
        accept = tuple(doc.get("accept_set", (0, 1)))
    except TypeError as exc:
        raise ParameterError(f"malformed instance document: {exc}") from exc
    if not all(isinstance(j, int) and not isinstance(j, bool) for j in accept):
        raise ParameterError(f"accept set must hold basis indices, got {accept!r}")
    gate = unitary_from_json_dict(doc["unitary"])
    basis = None if basis_docs is None else tuple(state_from_json_dict(s) for s in basis_docs)
    return CurtySantosInstance(tag_unitary=gate, basis=basis, accept_set=accept)
