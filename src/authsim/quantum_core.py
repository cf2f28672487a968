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

import math
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, ParameterError
from .spec import Field, Spec, read_spec, read_value

# Tolerance tiers: NORM_ATOL for the checks made where values enter (norm,
# unitarity, hermiticity); ALGEBRA_ATOL for the identities measure_projective
# checks on derived values (trace, positivity, Gram defect, probability sum).
NORM_ATOL = 1e-10
ALGEBRA_ATOL = 1e-9

MAX_TOTAL_DIMENSION = 4096
MAX_COPIES = 8
COPY_COUNT = Field(int, lo=1, hi=MAX_COPIES)  # systems of a symmetric-subspace test
MAX_RUN_ENTRIES = 2**28  # entries of normals one haar_unitaries call or random-scheme run draws: about 8 s at 34M/s
_POSITIVE = Field(int, lo=1)
INDEX = Field(int)  # basis and keep indices, subsystem dimensions, the Curty-Santos message and accept set
# Matrix entries per draw of normals for Haar unitaries (32 KiB of each of the real and
# imaginary parts: 16 draws of 16 x 16 or 1024 of 2 x 2 at a time), and the chunk size of
# the kernels that work on Gram entries or pair positions in bounded pieces.
STACK_ENTRIES = 2**12


def _frozen_complex(values, ndim: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != ndim:
        raise ParameterError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _items(value) -> tuple:
    """The items of ``value``, or ``value`` alone when it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        return (value,)


def _resolve_dims(dims, total: int | None = None) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple of positive ints.

    ``dims`` is an int or a sequence of them. Plain positive ints pass in
    one look; otherwise each is read by ``spec.read_value``. When ``total`` is
    given, None means one system of that dimension and the dims must
    multiply to it.
    """
    if dims is None and total is not None:
        return (total,)
    dims = _items(dims)
    if not (dims and all(type(x) is int and x > 0 for x in dims)):
        try:
            dims = tuple(read_value(INDEX, x, "subsystem dimension") for x in dims)
        except ParameterError:
            raise ParameterError(f"subsystem dimensions must be integers, got {dims!r}") from None
        if not dims or any(x < 1 for x in dims):
            raise ParameterError(f"subsystem dimensions must be positive, got {dims}")
    if total is not None and math.prod(dims) != total:
        raise ParameterError(f"dims {dims} do not multiply to total dimension {total}")
    return dims


class PureState:
    """Normalized state vector over subsystems of the given dimensions."""

    def __init__(self, amplitudes, dims=None):
        self.amplitudes, self.dims = amplitudes, dims
        self.__post_init__()

    def __post_init__(self):
        amps = _frozen_complex(self.amplitudes, 1, "amplitudes")
        if amps.size < 1:
            raise ParameterError("state must have dimension >= 1")
        self.amplitudes, self.dims = amps, _resolve_dims(self.dims, amps.size)
        norm = _norm(amps)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ParameterError(f"state norm {norm} is not 1 within {NORM_ATOL}")

    @property
    def d(self) -> int:
        return self.amplitudes.size


def _norm(amps: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, bit for bit: the ddot of its real
    view plus the ddot of its imaginary view, then a correctly rounded square
    root. ``np.vdot`` and Python floats raise no overflow warning, so a huge
    component gives an infinite norm quietly, and a NaN one a NaN norm."""
    re, im = amps.real, amps.imag
    return math.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))


class UnitaryOperator:
    """Square matrix with U†U = I within construction tolerance."""

    def __init__(self, matrix, dims=None):
        self.matrix, self.dims = matrix, dims
        self.__post_init__()

    def __post_init__(self):
        mat = _frozen_complex(self.matrix, 2, "matrix")
        if mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ParameterError(f"operator must be square, got shape {mat.shape}")
        self.matrix, self.dims = mat, _resolve_dims(self.dims, mat.shape[0])
        check_unitary(mat[None])

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


class HermitianOperator:
    """Square matrix with A = A† within construction tolerance."""

    def __init__(self, matrix, dims=None):
        self.matrix, self.dims = matrix, dims
        self.__post_init__()

    def __post_init__(self):
        mat = _frozen_complex(self.matrix, 2, "matrix")
        if mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ParameterError(f"operator must be square, got shape {mat.shape}")
        self.matrix, self.dims = mat, _resolve_dims(self.dims, mat.shape[0])
        check_hermitian(mat)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def check_unitary(stack: np.ndarray) -> None:
    """Raise unless every matrix of an (n, d, d) stack is unitary within NORM_ATOL, naming the
    defect of the first that is not. An infinite entry, or one so large that U†U overflows,
    makes the defect inf or NaN: the check fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.abs(stack.conj().swapaxes(1, 2) @ stack - np.eye(stack.shape[1])).max(axis=(1, 2))
    off = ~(defects <= NORM_ATOL)
    if off.any():
        raise ParameterError(f"matrix is not unitary: max |U†U - I| = {defects[np.argmax(off)]:.3e}")


def check_hermitian(matrices: np.ndarray) -> None:
    """Raise unless the matrix, or every matrix of a (..., d, d) stack, is Hermitian within NORM_ATOL."""
    defect = np.abs(matrices - matrices.conj().swapaxes(-1, -2)).max()
    if not defect <= NORM_ATOL:
        raise ParameterError(f"matrix is not Hermitian: max |A - A†| = {defect:.3e}")


def basis_state(index: int, dims) -> PureState:
    """Computational basis vector |index> on subsystems of the given dims."""
    dims = _resolve_dims(dims)
    total = math.prod(dims)
    index = read_value(INDEX, index, "basis index")
    if not 0 <= index < total:
        raise ParameterError(f"basis index {index} out of range for dimension {total}")
    amps = np.zeros(total, dtype=complex)
    amps[index] = 1.0
    return PureState(amps, dims)


def _trusted(kind, values: np.ndarray, dims):
    """Instance of ``kind`` from values whose check has already been made.

    For a tag state from a norm-checked table or a unitary of the checked
    array of ``haar_unitaries``. The dims are checked against the array; the
    norm, unitarity or hermiticity check is not run again. ``values`` is frozen
    in place, not copied.
    """
    values = np.asarray(values, dtype=complex)
    return _assemble(kind, values, _resolve_dims(dims, values.shape[0]))


def _assemble(kind, values: np.ndarray, dims: tuple[int, ...]):
    """Instance of ``kind`` holding the complex array ``values``, frozen in place, and ``dims`` as given:
    for ``_trusted`` and for ``tensor``, whose product's dims are its checked factors' dims."""
    values.setflags(write=False)
    obj = object.__new__(kind)
    setattr(obj, "amplitudes" if kind is PureState else "matrix", values)
    obj.dims = dims
    return obj


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of two vectors or two matrices: its one np.multiply, without its shape handling."""
    if x.ndim == 1:
        return (x[:, None] * y[None, :]).reshape(-1)
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(x.shape[0] * y.shape[0], x.shape[1] * y.shape[1])


def tensor(factors: Sequence):
    """Kronecker product of states or of operators (one kind per call).

    Subsystem dims concatenate; the result type matches the input type. The
    dimension cap is checked before any product is formed. The factors were
    checked when they were built, so their product and its dims are not.
    """
    factors = list(factors)
    if not factors:
        raise ParameterError("tensor requires at least one factor")
    kind = type(factors[0])
    if kind not in (PureState, UnitaryOperator, HermitianOperator):
        raise ParameterError(f"cannot tensor objects of type {kind.__name__}")
    if any(type(f) is not kind for f in factors):
        raise ParameterError("tensor factors must all be the same kind")
    dims = sum((f.dims for f in factors), ())
    total = math.prod(dims)
    if total > MAX_TOTAL_DIMENSION:
        raise ParameterError(f"total dimension {total} exceeds cap {MAX_TOTAL_DIMENSION}")
    values = reduce(_kron, [f.amplitudes for f in factors] if kind is PureState else [f.matrix for f in factors])
    return _assemble(kind, values, dims)


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>."""
    if a.d != b.d:
        raise ParameterError(f"dimension mismatch: {a.d} vs {b.d}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def partial_trace(state: PureState, keep) -> HermitianOperator:
    """Reduced operator of |psi><psi| on the kept subsystems (original order preserved); ``keep`` is
    an index or a collection of them, each read by ``spec.read_value``."""
    if not isinstance(state, PureState):
        raise ParameterError(f"partial_trace expects a PureState, got {type(state).__name__}")
    dims = state.dims
    n = len(dims)
    keep = tuple(sorted({read_value(INDEX, i, "keep index") for i in _items(keep)}))
    if not keep:
        raise ParameterError("keep set must name at least one subsystem")
    if any(i < 0 or i >= n for i in keep):
        raise ParameterError(f"keep indices {keep} out of range for {n} subsystems")
    traced = [i for i in range(n) if i not in keep]
    kept_dims = tuple(dims[i] for i in keep)
    d_kept = math.prod(kept_dims)
    psi = state.amplitudes.reshape(dims)
    rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
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
    probs = _born_probabilities(rho, stack)
    if not abs(probs.sum() - 1.0) <= ALGEBRA_ATOL:
        raise InvariantViolation(f"outcome probabilities sum to {float(probs.sum())}")
    return probs


def _born_probabilities(rho: HermitianOperator, stack: np.ndarray) -> np.ndarray:
    """<phi_j|rho|phi_j> for the rows phi_j of ``stack``, clipped at 0 after
    a check that none is below -1e-12; the density and the basis are not
    checked, so the caller must have checked both."""
    probs = np.einsum("ji,jk,ki->i", stack.conj().T, rho.matrix, stack.T).real
    if not probs.min() >= -1e-12:
        raise InvariantViolation(f"negative outcome probability {probs.min():.3e}")
    return np.clip(probs, 0.0, None)


def max_eigenpair(a: HermitianOperator) -> tuple[float, PureState]:
    """Largest eigenvalue and a deterministic unit eigenvector (``top_eigenvector``)
    of the matrix symmetrized, (A + A†)/2."""
    eigenvalues, vectors = np.linalg.eigh((a.matrix + a.matrix.conj().T) / 2.0)
    return float(eigenvalues[-1]), PureState(top_eigenvector(eigenvalues, vectors), a.dims)


def top_eigenvector(eigenvalues: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """A deterministic unit vector of the top eigenspace of one ``eigh`` result.

    In a degenerate top eigenspace it is the normalized projection of the
    lowest-index computational basis vector with nonzero projection. Its
    first nonzero component is made real positive.
    """
    top = eigenvalues[-1]
    block = vectors[:, eigenvalues >= top - 1e-10 * max(1.0, abs(top))]
    for j in range(len(vectors)):
        candidate = block @ block[j, :].conj()
        norm = np.linalg.norm(candidate)
        if norm > 1e-8:
            vec = candidate / norm
            k = int(np.argmax(np.abs(vec) > 1e-12))
            return vec * np.exp(-1j * np.angle(vec[k]))
    raise InvariantViolation("empty dominant eigenspace")  # cannot happen: the block has a unit column


def symmetrize(t: np.ndarray, n: int) -> np.ndarray:
    """Apply the symmetric-subspace projector to the first n axes of t.

    The projector is the average of the n! permutation operators (Harrow,
    "The Church of the Symmetric Subspace", arXiv:1308.6595). It is applied
    without being formed, by the coset recursion

        Sym_{k+1} = 1/(k+1) * sum_{j<=k} (j k) Sym_k,    (k k) = identity,

    so each step sums t and its k axis swaps, starting from t + (0 k) t
    with no copy of t: n(n-1)/2 swaps in all, with working memory of two
    arrays the size of t. The level is scaled by multiplying with the
    reciprocal 1/(k+1): numpy divides a complex array by a real scalar by
    computing that reciprocal and multiplying by it, so for complex t every
    nonzero real or imaginary part has the bits of the division, at about a
    fifth of its cost in place (a zero part may take the other sign); for
    real t it may differ from the division by an ulp per level. Axes past
    the first n are carried along untouched. t itself is not modified.
    """
    for k in range(1, n):
        acc = t + t.swapaxes(0, k)
        for j in range(1, k):
            acc += t.swapaxes(j, k)
        acc *= 1.0 / (k + 1)
        t = acc
    return t


def symmetric_projector(d: int, n: int) -> HermitianOperator:
    """Orthogonal projector onto the symmetric subspace of n d-level systems.

    The average of the n! permutation operators (Harrow, arXiv:1308.6595),
    built column by column by ``symmetrize``'s coset recursion applied to the
    identity, reshaped to (d,)*n + (d**n,). Not cached: each call holds its
    own d**n x d**n matrix (256 MiB at the 4096 cap).
    """
    d, n = read_value(_POSITIVE, d, "dimension"), read_value(COPY_COUNT, n, "copy count")
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


def haar_unitaries(count: int, dims, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-random unitaries via QR with the phase convention
    diag(R) > 0, as one checked read-only ``(count, d, d)`` array.

    The normals come off ``rng`` in the order of ``count`` single draws, and
    the QR of each matrix is the same LAPACK call, so the unitaries, and the
    generator state, are those of ``count`` calls to ``random_unitary``. The
    count, dims, dimension cap and ``count * d**2 <= MAX_RUN_ENTRIES`` are
    checked before anything is allocated; the unitarity check runs once over
    the whole array.
    """
    count = read_value(_POSITIVE, count, "unitary count")
    total = math.prod(_resolve_dims(dims))
    if total > MAX_TOTAL_DIMENSION:
        raise ParameterError(f"total dimension {total} exceeds cap {MAX_TOTAL_DIMENSION}")
    if count * total**2 > MAX_RUN_ENTRIES:
        raise ParameterError(f"the draw would take count * d**2 = {count * total**2} entries; the cap is {MAX_RUN_ENTRIES}")
    q = _haar_columns(count, total, rng, total)
    check_unitary(q)
    q.setflags(write=False)
    return q


def _haar_columns(size: int, total: int, rng: np.random.Generator, columns: int) -> np.ndarray:
    """The first ``columns`` columns of ``size`` Haar unitaries of dimension ``total``, as a
    ``(size, total, columns)`` array: stacked draws of normals and one batched QR with the diag(R)
    phase fix (Mezzadri, "How to generate random matrices from the classical compact groups",
    arXiv:math-ph/0609050). All normals are drawn, STACK_ENTRIES entries at a time, but a
    Householder QR builds Q e1 .. Q ek from the first k columns alone (Golub & Van Loan, Matrix
    Computations, 5.2), so the kept columns have the bits of the whole unitary's."""
    per_stack = max(1, STACK_ENTRIES // total**2)
    normals = np.empty((size, 2, total, columns))
    for lo in range(0, size, per_stack):
        normals[lo : lo + per_stack] = rng.standard_normal((min(per_stack, size - lo), 2, total, total))[..., :columns]
    q, r = np.linalg.qr((normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def random_unitaries(count: int, dims, rng: np.random.Generator) -> list[UnitaryOperator]:
    """The ``count`` unitaries of ``haar_unitaries``, each a read-only view into its array."""
    return [_trusted(UnitaryOperator, matrix, dims) for matrix in haar_unitaries(count, dims, rng)]


def random_unitary(dims, rng: np.random.Generator) -> UnitaryOperator:
    """Haar-random unitary via QR with the phase convention diag(R) > 0."""
    return random_unitaries(1, dims, rng)[0]


_COMPONENT = Field(list, item=Field(float), lo=2, hi=2)  # [re, im]
_DIMS = Field(list, lo=1, item=Field(int, lo=1))
STATE_SPEC = Spec({"amplitudes": Field(list, item=_COMPONENT), "dims": _DIMS})
OPERATOR_SPEC = Spec(
    {"matrix": Field(list, item=Field(list, item=_COMPONENT)), "dims": _DIMS}, optional=("dims",)
)


def state_from_json_dict(doc: dict, where: str = "state") -> PureState:
    doc = read_spec(STATE_SPEC, doc, where)
    return PureState([complex(*pair) for pair in doc["amplitudes"]], doc["dims"])


def unitary_from_json_dict(doc: dict, where: str = "operator") -> UnitaryOperator:
    doc = read_spec(OPERATOR_SPEC, doc, where)
    rows = doc["matrix"]
    for i, row in enumerate(rows):  # square, so np.array never meets ragged rows
        if len(row) != len(rows):
            raise ParameterError(f"the length of {where}.matrix[{i}] must be {len(rows)}, got {len(row)}")
    return UnitaryOperator([[complex(*pair) for pair in row] for row in rows], doc.get("dims"))
