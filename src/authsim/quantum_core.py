"""Dense linear algebra for small multipartite quantum systems.

States are complex amplitude vectors tagged with a tuple of subsystem
dimensions; operators are dense square matrices with the same tagging.
Validation happens where values enter (normalization, unitarity,
hermiticity), so downstream code can assume well-formed objects; tensor
products of validated factors are built without repeating those checks.
Every tolerance check is written ``not (value <= tol)``, so a NaN fails it.
The symmetric subspace is reached through one matrix-free kernel,
``symmetrize``, that works on the d**n amplitude tensor; the dense projector
is built from the same kernel. Everything is sized for desk-scale work:
total dimension is capped at 4096 and the symmetric subspace at 8 copies.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from .errors import InvariantViolation, ParameterError

# Tolerance tiers: construction-time checks, algebraic identities, eigen residuals.
NORM_ATOL = 1e-10
ALGEBRA_ATOL = 1e-9
EIGEN_ATOL = 1e-8

MAX_TOTAL_DIMENSION = 4096
MAX_COPIES = 8
# Matrix entries in one stacked draw of Haar unitaries: 64 KiB of normals, so
# 16 draws of 16 x 16 or 1024 of 2 x 2 share one QR call.
STACK_ENTRIES = 2**12


def _frozen_complex(values, ndim: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != ndim:
        raise ParameterError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _resolve_dims(dims, total: int | None = None) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple of positive ints.

    ``dims`` is an int or a sequence of them, each taken by
    ``operator.index`` (numpy integers pass; bools, floats and strings do
    not). When ``total`` is given, None means one system of that dimension
    and the dims must multiply to it.
    """
    if dims is None and total is not None:
        return (total,)
    try:
        items = tuple(dims)
    except TypeError:
        items = (dims,)
    try:
        dims = tuple(map(operator.index, items))
    except TypeError:
        dims = None
    if dims is None or any(isinstance(x, bool) for x in items):
        raise ParameterError(f"subsystem dimensions must be integers, got {items!r}")
    if not dims or any(x < 1 for x in dims):
        raise ParameterError(f"subsystem dimensions must be positive, got {dims}")
    if total is not None and math.prod(dims) != total:
        raise ParameterError(f"dims {dims} do not multiply to total dimension {total}")
    return dims


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over subsystems of the given dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        amps = _frozen_complex(self.amplitudes, 1, "amplitudes")
        if amps.size < 1:
            raise ParameterError("state must have dimension >= 1")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _resolve_dims(self.dims, amps.size))
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ParameterError(f"state norm {norm!r} is not 1 within {NORM_ATOL}")

    @property
    def d(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Square matrix with U†U = I within construction tolerance."""

    matrix: np.ndarray
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        mat = _frozen_complex(self.matrix, 2, "matrix")
        if mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ParameterError(f"operator must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", _resolve_dims(self.dims, mat.shape[0]))
        if not np.isfinite(mat).all():  # checked before U†U, whose product an infinity turns to NaN
            raise ParameterError("matrix is not unitary: it has a non-finite entry")
        defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
        if not defect <= NORM_ATOL:
            raise ParameterError(f"matrix is not unitary: max |U†U - I| = {defect:.3e}")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Square matrix with A = A† within construction tolerance."""

    matrix: np.ndarray
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        mat = _frozen_complex(self.matrix, 2, "matrix")
        if mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ParameterError(f"operator must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", _resolve_dims(self.dims, mat.shape[0]))
        defect = np.abs(mat - mat.conj().T).max()
        if not defect <= NORM_ATOL:
            raise ParameterError(f"matrix is not Hermitian: max |A - A†| = {defect:.3e}")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def basis_state(index: int, dims) -> PureState:
    """Computational basis vector |index> on subsystems of the given dims."""
    dims = _resolve_dims(dims)
    total = math.prod(dims)
    if not 0 <= index < total:
        raise ParameterError(f"basis index {index} out of range for dimension {total}")
    amps = np.zeros(total, dtype=complex)
    amps[index] = 1.0
    return PureState(amps, dims)


def _trusted(kind, values: np.ndarray, dims: tuple[int, ...]):
    """Instance of ``kind`` from values whose check has already been made.

    For a product of validated factors or a tag state from a norm-checked
    table. The dims are checked against the array; the norm, unitarity or
    hermiticity check is not run again. ``values`` is frozen in place, not
    copied.
    """
    values = np.asarray(values, dtype=complex)
    values.setflags(write=False)
    return _wrap(kind, values, _resolve_dims(dims, values.shape[0]))


def _wrap(kind, values: np.ndarray, dims: tuple[int, ...]):
    """Instance of ``kind`` on frozen, checked values and resolved dims."""
    obj = object.__new__(kind)
    object.__setattr__(obj, "amplitudes" if kind is PureState else "matrix", values)
    object.__setattr__(obj, "dims", dims)
    return obj


def tensor(factors: Sequence):
    """Kronecker product of states or of operators (one kind per call).

    Subsystem dims concatenate; the result type matches the input type. The
    dimension cap is checked before any product is formed.
    """
    factors = list(factors)
    if not factors:
        raise ParameterError("tensor requires at least one factor")
    kind = type(factors[0])
    if kind not in (PureState, UnitaryOperator, HermitianOperator):
        raise ParameterError(f"cannot tensor objects of type {kind.__name__}")
    if any(type(f) is not kind for f in factors):
        raise ParameterError("tensor factors must all be the same kind")
    total = math.prod(f.d for f in factors)
    if total > MAX_TOTAL_DIMENSION:
        raise ParameterError(f"total dimension {total} exceeds cap {MAX_TOTAL_DIMENSION}")
    dims = tuple(itertools.chain.from_iterable(f.dims for f in factors))
    if kind is PureState:
        values = reduce(np.kron, (f.amplitudes for f in factors))
    else:
        values = reduce(np.kron, (f.matrix for f in factors))
    return _trusted(kind, values, dims)


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    if a.d != b.d:
        raise ParameterError(f"dimension mismatch: {a.d} vs {b.d}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def partial_trace(obj, keep) -> HermitianOperator:
    """Reduced operator on the kept subsystems (original order preserved).

    Accepts a PureState (traced as |psi><psi|) or a HermitianOperator.
    """
    if not isinstance(obj, (PureState, HermitianOperator)):
        raise ParameterError("partial_trace expects a PureState or HermitianOperator")
    dims = obj.dims
    n = len(dims)
    keep = tuple(sorted({int(i) for i in keep}))
    if not keep:
        raise ParameterError("keep set must name at least one subsystem")
    if any(i < 0 or i >= n for i in keep):
        raise ParameterError(f"keep indices {keep} out of range for {n} subsystems")
    traced = [i for i in range(n) if i not in keep]
    kept_dims = tuple(dims[i] for i in keep)
    d_kept = math.prod(kept_dims)

    if isinstance(obj, PureState):
        psi = obj.amplitudes.reshape(dims)
        rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    else:
        mat = obj.matrix.reshape(dims + dims)
        # ket axis i gets index i; bra axis i shares it when traced out
        in_sub = list(range(n)) + [i if i in traced else n + i for i in range(n)]
        out_sub = list(keep) + [n + i for i in keep]
        rho = np.einsum(mat, in_sub, out_sub)
    return HermitianOperator(rho.reshape(d_kept, d_kept), kept_dims)


def measure_projective(rho: HermitianOperator, basis: Sequence[PureState]) -> np.ndarray:
    """Outcome probabilities <phi_j|rho|phi_j> for a complete orthonormal basis."""
    d = rho.d
    if not abs(rho.trace - 1.0) <= ALGEBRA_ATOL:
        raise ParameterError(f"density operator trace {rho.trace!r} is not 1")
    if not np.linalg.eigvalsh(rho.matrix).min() >= -ALGEBRA_ATOL:
        raise ParameterError("density operator is not positive semidefinite")
    if len(basis) != d or any(s.d != d for s in basis):
        raise ParameterError(f"basis must contain {d} states of dimension {d}")
    stack = np.array([s.amplitudes for s in basis])
    gram_defect = np.abs(stack.conj() @ stack.T - np.eye(d)).max()
    if not gram_defect <= ALGEBRA_ATOL:
        raise ParameterError(f"basis is not orthonormal: max Gram defect {gram_defect:.3e}")
    probs = np.einsum("ji,jk,ki->i", stack.conj().T, rho.matrix, stack.T).real
    if not probs.min() >= -1e-12:
        raise InvariantViolation(f"negative outcome probability {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    if not abs(probs.sum() - 1.0) <= ALGEBRA_ATOL:
        raise InvariantViolation(f"outcome probabilities sum to {probs.sum()!r}")
    return probs


def max_eigenpair(a: HermitianOperator) -> tuple[float, PureState]:
    """Largest eigenvalue and a deterministic unit eigenvector.

    The matrix is symmetrized before diagonalization. In a degenerate top
    eigenspace the returned vector is the normalized projection of the
    lowest-index computational basis vector with nonzero projection, with
    its first nonzero component made real positive.
    """
    h = (a.matrix + a.matrix.conj().T) / 2.0
    eigenvalues, vectors = np.linalg.eigh(h)
    top = eigenvalues[-1]
    degenerate_tol = 1e-10 * max(1.0, abs(top))
    block = vectors[:, eigenvalues >= top - degenerate_tol]
    vec = None
    for j in range(a.d):
        candidate = block @ block[j, :].conj()
        norm = np.linalg.norm(candidate)
        if norm > 1e-8:
            vec = candidate / norm
            break
    if vec is None:  # cannot happen: block has at least one unit column
        raise InvariantViolation("empty dominant eigenspace")
    k = int(np.argmax(np.abs(vec) > 1e-12))
    vec = vec * np.exp(-1j * np.angle(vec[k]))
    return float(top), PureState(vec, a.dims)


def symmetrize(t: np.ndarray, n: int) -> np.ndarray:
    """Apply the symmetric-subspace projector to the first n axes of t.

    The projector is the average of the n! permutation operators (Harrow,
    "The Church of the Symmetric Subspace", arXiv:1308.6595). It is applied
    without being formed, by the coset recursion

        Sym_{k+1} = 1/(k+1) * sum_{j<=k} (j k) Sym_k,    (k k) = identity,

    so each step adds k axis swaps of t to a copy of t: n(n-1)/2 swaps in
    all, with working memory of two arrays the size of t. Axes past the
    first n are carried along untouched. t itself is not modified.
    """
    for k in range(1, n):
        acc = t.copy()
        for j in range(k):
            acc += np.swapaxes(t, j, k)
        acc /= k + 1
        t = acc
    return t


def symmetric_projector(d: int, n: int) -> HermitianOperator:
    """Orthogonal projector onto the symmetric subspace of n d-level systems.

    The average of the n! permutation operators (Harrow, arXiv:1308.6595),
    built column by column by ``symmetrize``'s coset recursion applied to the
    identity, reshaped to (d,)*n + (d**n,). Not cached: each call holds its
    own d**n x d**n matrix (256 MiB at the 4096 cap).
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParameterError(f"dimension must be a positive integer, got {d!r}")
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_COPIES:
        raise ParameterError(f"copy count must be an integer in [1, {MAX_COPIES}], got {n!r}")
    total = d**n
    if total > MAX_TOTAL_DIMENSION:
        raise ParameterError(f"d**n = {total} exceeds cap {MAX_TOTAL_DIMENSION}")
    eye = np.eye(total).reshape((d,) * n + (total,))
    proj = symmetrize(eye, n).reshape(total, total)
    return HermitianOperator(proj, (d,) * n)


def random_state(dims, rng: np.random.Generator) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    dims = _resolve_dims(dims)
    total = math.prod(dims)
    vec = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureState(vec / np.linalg.norm(vec), dims)


def iter_random_unitaries(count: int, dims, rng: np.random.Generator) -> Iterator[UnitaryOperator]:
    """``count`` Haar-random unitaries via QR with the phase convention
    diag(R) > 0, drawn one stack at a time as they are taken.

    Stacked draws of normals and batched QR (Mezzadri, "How to generate
    random matrices from the classical compact groups",
    arXiv:math-ph/0609050). The normals come off ``rng`` in the order of
    ``count`` single draws, and the QR of each matrix is the same LAPACK call,
    so the unitaries, and the generator state once all are taken, are those
    of ``count`` calls to ``random_unitary``. A stack holds at most
    STACK_ENTRIES matrix entries, so its temporaries stay near 64 KiB however
    large the matrices, and it is drawn only when the previous one is used
    up. The count, dims and dimension cap are checked before anything is
    drawn; the unitarity check runs once per stack, and each unitary is a
    read-only view into its checked stack.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ParameterError(f"unitary count must be a positive integer, got {count!r}")
    dims = _resolve_dims(dims)
    total = math.prod(dims)
    if total > MAX_TOTAL_DIMENSION:
        raise ParameterError(f"total dimension {total} exceeds cap {MAX_TOTAL_DIMENSION}")
    per_stack = max(1, STACK_ENTRIES // total**2)
    for start in range(0, count, per_stack):
        # bound to no name, so a used-up stack is released before the next is drawn
        yield from _haar_stack(min(per_stack, count - start), dims, total, rng)


def _haar_stack(size: int, dims: tuple[int, ...], total: int, rng: np.random.Generator) -> list:
    """One checked stack of ``size`` Haar unitaries, each a read-only view into it."""
    normals = rng.standard_normal((size, 2, total, total))
    q, r = np.linalg.qr((normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    defects = np.abs(q.conj().transpose(0, 2, 1) @ q - np.eye(total)).max(axis=(1, 2))
    off = ~(defects <= NORM_ATOL)
    if off.any():
        raise ParameterError(f"matrix is not unitary: max |U†U - I| = {defects[np.argmax(off)]:.3e}")
    q.setflags(write=False)
    return [_wrap(UnitaryOperator, matrix, dims) for matrix in q]


def random_unitaries(count: int, dims, rng: np.random.Generator) -> list[UnitaryOperator]:
    """``count`` Haar-random unitaries as a list: ``iter_random_unitaries`` run to its end."""
    return list(iter_random_unitaries(count, dims, rng))


def random_unitary(dims, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-random unitary via QR with the phase convention diag(R) > 0."""
    return random_unitaries(1, dims, rng)[0]


def state_to_json_dict(state: PureState) -> dict:
    return {
        "dims": list(state.dims),
        "amplitudes": [[float(z.real), float(z.imag)] for z in state.amplitudes],
    }


def _check_document(doc, what: str, required: tuple, optional: tuple = ()) -> None:
    """Reject a ``what`` document that is not an object, lacks a required
    key or has a key outside ``required`` and ``optional``."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{what} document must be an object, got {doc!r}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ParameterError(f"{what} document is missing key(s) {missing}")
    unknown = [key for key in doc if key not in required and key not in optional]
    if unknown:
        raise ParameterError(
            f"{what} document: unknown key(s) {unknown}; allowed keys are {sorted(required + optional)}"
        )


def _dims_from_json(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ParameterError(f"dims must be a list of integers, got {value!r}")
    return _resolve_dims(value)


def _complex_from_json(pair) -> complex:
    """One [re, im] component; JSON true/false are not numbers here."""
    re, im = pair
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (re, im)):
        raise ParameterError(f"component {pair!r} is not a pair of numbers")
    return complex(re, im)


def state_from_json_dict(doc: dict) -> PureState:
    _check_document(doc, "state", ("amplitudes", "dims"))
    try:
        amps = [_complex_from_json(pair) for pair in doc["amplitudes"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed state document: {exc}") from exc
    return PureState(amps, _dims_from_json(doc["dims"]))


def operator_to_json_dict(op) -> dict:
    return {
        "dims": list(op.dims),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix],
    }


def unitary_from_json_dict(doc: dict) -> UnitaryOperator:
    _check_document(doc, "operator", ("matrix",), ("dims",))
    try:
        matrix = np.array([[_complex_from_json(pair) for pair in row] for row in doc["matrix"]])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed matrix document: {exc}") from exc
    dims = _dims_from_json(doc["dims"]) if "dims" in doc else None
    return UnitaryOperator(matrix, dims)
