import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from authsim.errors import InvariantViolation, ParameterError
from authsim.qmac_framework import COLUMN_ENTRIES
from authsim.quantum_core import (
    STACK_ENTRIES,
    HermitianOperator,
    PureState,
    UnitaryOperator,
    _haar_columns,
    _kron,
    _norm,
    _trusted,
    basis_state,
    check_unitary,
    haar_unitaries,
    max_eigenpair,
    measure_projective,
    overlap,
    partial_trace,
    random_state,
    random_unitaries,
    random_unitary,
    state_from_json_dict,
    symmetric_projector,
    symmetrize,
    tensor,
    unitary_from_json_dict,
)
from authsim.symmetry_test import acceptance_error_formula, acceptance_error_oracle
from testkit import closed_form_with_norms, kron_tensor, operator_to_json_dict, state_to_json_dict

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Every (d, n) whose reference projector is small enough to build per example.
class IndexOnly:
    """Has ``__index__`` but is not an ``Integral``: an index reader that calls ``operator.index`` takes it."""

    def __index__(self):
        return 1


SMALL_SUBSPACES = [(d, n) for d in range(1, 17) for n in range(1, 9) if d**n <= 256]
# The symtest-oracle benchmark ladder.
ORACLE_LADDER = [(2, 8), (3, 5), (8, 3), (4, 6), (16, 3)]
# Every (d, n) with d <= 64 and n <= 8 under the oracle's d**n <= 4096 cap.
SYMMETRIZE_SHAPES = [(d, n) for n in range(1, 9) for d in range(1, 65) if d**n <= 4096]


def density_operator(state: PureState) -> HermitianOperator:
    """Rank-one projector |psi><psi|."""
    return HermitianOperator(np.outer(state.amplitudes, state.amplitudes.conj()), state.dims)


def reference_symmetric_projector(d: int, n: int) -> HermitianOperator:
    """Average of all n! permutation matrices on n d-level systems, built
    densely; the reference that the matrix-free kernel is checked against."""
    total = d**n
    powers = d ** np.arange(n - 1, -1, -1)
    idx = np.arange(total)
    digits = (idx[:, None] // powers) % d
    proj = np.zeros((total, total))
    for perm in itertools.permutations(range(n)):
        targets = (digits[:, perm] * powers).sum(axis=1)
        proj[targets, idx] += 1.0
    proj /= math.factorial(n)
    return HermitianOperator(proj.astype(complex), (d,) * n)


def reference_symmetrize(t: np.ndarray, n: int) -> np.ndarray:
    """The coset recursion as first written, copy then add then divide at
    each level; the bits that the kernel's add-into-sum and reciprocal
    scaling are held to on complex input."""
    for k in range(1, n):
        acc = t.copy()
        for j in range(k):
            acc += np.swapaxes(t, j, k)
        acc /= k + 1
        t = acc
    return t


@st.composite
def complex_tensors(draw):
    """(t, n): a complex (d,)*n tensor with d**n <= 4096, maybe with a
    trailing axis, of Gaussian entries scaled by 10**e for e in [-300, 300];
    in some tensors about half the real and imaginary parts are signed zeros."""
    d, n = draw(st.sampled_from(SYMMETRIZE_SHAPES))
    shape = (d,) * n + draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2,) + shape) * 10.0 ** draw(st.integers(-300, 300))
    zeros = rng.random(parts.shape) < draw(st.sampled_from([0.0, 0.5]))
    parts[zeros] = np.copysign(0.0, parts[zeros])
    return parts[0] + 1j * parts[1], n


def reference_random_unitary(dims, rng: np.random.Generator) -> UnitaryOperator:
    """One Haar-random unitary per call (QR, diag(R) phase fix); the
    sequential draw that the stacked one is checked against."""
    dims = tuple(int(x) for x in dims) if not isinstance(dims, int) else (dims,)
    total = math.prod(dims)
    z = (rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return UnitaryOperator(q * phases, dims)


def gram_permanent_acceptance(n: int, a: PureState, b: PureState) -> float:
    """<Phi|P_sym|Phi> for Phi = a (x) b^(x)(n-1) as perm(G)/n!, where
    G_ij = <phi_i|phi_j>; needs no d**n object at all."""
    phis = [a.amplitudes] + [b.amplitudes] * (n - 1)
    gram = np.array([[np.vdot(x, y) for y in phis] for x in phis])
    perm = sum(
        math.prod(gram[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )
    return float((perm / math.factorial(n)).real)


@st.composite
def state_pairs(draw):
    d, n = draw(st.sampled_from([(d, n) for d, n in SMALL_SUBSPACES if d <= 4 and n <= 5]))
    part = st.floats(-1.0, 1.0, allow_nan=False)

    def state():
        re = draw(st.lists(part, min_size=d, max_size=d))
        im = draw(st.lists(part, min_size=d, max_size=d))
        vec = np.array(re) + 1j * np.array(im)
        norm = np.linalg.norm(vec)
        assume(norm > 1e-3)
        return PureState(vec / norm, (d,))

    return n, state(), state()


class TestConstruction:
    def test_norm_enforced(self):
        with pytest.raises(ParameterError):
            PureState(np.array([1.0, 1.0]))
        PureState(np.array([1.0, 1.0]) / math.sqrt(2))

    def test_dims_consistency(self):
        with pytest.raises(ParameterError):
            PureState(np.array([1.0, 0, 0, 0]), dims=(2, 3))
        s = PureState(np.array([1.0, 0, 0, 0]))
        assert s.dims == (4,)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PureState(np.ones(4) / 2, (2.5, 2)),
            lambda: HermitianOperator(np.eye(4), (2, True)),
            lambda: basis_state(1, (True, 4)),
            lambda: random_state((2.9,), np.random.default_rng(0)),
        ],
        ids=["state", "operator", "basis_state", "random_state"],
    )
    def test_dims_must_be_integers(self, build):
        with pytest.raises(ParameterError, match="must be integers"):
            build()

    @pytest.mark.parametrize("index", [True, False, 1.0, "1", np.array(1), IndexOnly()])
    def test_basis_index_must_be_an_integer(self, index):
        with pytest.raises(ParameterError, match="^basis index must be an integer"):
            basis_state(index, 2)

    def test_numpy_integer_basis_index_accepted(self):
        assert np.array_equal(basis_state(np.int32(1), 2).amplitudes, [0, 1])

    def test_numpy_integer_dims_accepted(self):
        s = basis_state(1, (np.int64(2), np.int32(2)))
        assert s.dims == (2, 2) and all(type(x) is int for x in s.dims)

    def test_unitarity_enforced(self):
        with pytest.raises(ParameterError):
            UnitaryOperator(np.array([[1, 0], [0, 2]], dtype=complex))
        UnitaryOperator(X)

    def test_hermiticity_enforced(self):
        with pytest.raises(ParameterError):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))
        HermitianOperator(np.array([[0, 1j], [-1j, 0]]))

    def test_arrays_read_only(self):
        s = basis_state(0, (2,))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0
        product = tensor([UnitaryOperator(X), UnitaryOperator(X)])
        with pytest.raises(ValueError):
            product.matrix[0, 0] = 0.0


class TestNonFiniteRejected:
    """Every tolerance check is written ``not (value <= tol)``: NaN fails it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_entry_checks(self, bad):
        with pytest.raises(ParameterError, match="state norm"):
            PureState(np.array([bad, 0.0]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ParameterError, match="not unitary"):
                UnitaryOperator(np.array([[bad, 0], [0, 1]], dtype=complex))
            with pytest.raises(ParameterError, match="not Hermitian"):
                HermitianOperator(np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_stacked_unitarity_check(self):
        class NanNormals:
            def standard_normal(self, shape):
                return np.full(shape, math.nan)

        with np.errstate(invalid="ignore"):
            with pytest.raises(ParameterError, match=r"not unitary: max \|U†U - I\| = nan"):
                random_unitaries(3, 2, NanNormals())
        # the second matrix of a stack fails, and the message is the one it fails with alone
        bad = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ParameterError) as alone:
            UnitaryOperator(bad)
        with pytest.raises(ParameterError) as stacked:
            check_unitary(np.array([np.eye(2), bad, 2 * bad], dtype=complex))
        assert str(stacked.value) == str(alone.value)

    def test_measurement_checks(self):
        basis = [basis_state(j, (2,)) for j in range(2)]
        rho = _trusted(HermitianOperator, np.array([[math.nan, 0], [0, 0.5]], dtype=complex), (2,))
        with pytest.raises(ParameterError, match="trace"):
            measure_projective(rho, basis)
        half = HermitianOperator(np.eye(2, dtype=complex) / 2)
        skewed = [basis[0], _trusted(PureState, np.array([math.nan, 1.0]), (2,))]
        with pytest.raises(ParameterError, match="orthonormal"):
            measure_projective(half, skewed)


@st.composite
def norm_operands(draw):
    """A complex vector of 1 to 4096 entries at a scale from 1e-300 to 1e300, with
    up to three real or imaginary parts set to NaN or an infinity."""
    size = draw(st.integers(1, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * draw(st.floats(1e-300, 1e300))
    parts = vec.view(np.float64)
    for _ in range(draw(st.integers(0, 3))):
        parts[draw(st.integers(0, 2 * size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return vec


class TestNormCheck:
    """PureState's norm check reads ``_norm``, np.linalg.norm's value without its dispatch."""

    @settings(max_examples=300, deadline=None)
    @given(vec=norm_operands())
    def test_norm_is_numpy_norm(self, vec):
        norm = _norm(vec)
        with np.errstate(over="ignore"):  # np.linalg.norm warns where a square overflows; _norm does not
            expected = np.linalg.norm(vec)
        assert type(norm) is float
        assert norm == expected or (math.isnan(norm) and math.isnan(expected))

    @pytest.mark.parametrize("vec", [[1e300, 0.0], [1e200, 1e200j]], ids=["one-huge", "squares-overflow"])
    def test_overflowing_norm_rejected_without_warning(self, vec):
        # pyproject makes a RuntimeWarning an error, so an overflow warning would fail here first
        with pytest.raises(ParameterError, match=r"^state norm inf is not 1 within 1e-10$"):
            PureState(np.array(vec, dtype=complex))


class TestMessagesPrintPythonFloats:
    """A computed numpy scalar is printed as a Python float: ``2.0``, not ``np.float64(2.0)``."""

    def test_state_norm(self):
        with pytest.raises(ParameterError, match=r"^state norm 2\.0 is not 1 within 1e-10$"):
            PureState(np.array([2.0, 0.0]))

    def test_outcome_probability_sum(self):
        # each check passes within its tolerance, and the sum is off by about 1.19e-9 > ALGEBRA_ATOL
        long = 1.0 + 0.99e-10
        basis = [PureState(np.array([long, 0.0])), PureState(np.array([0.0, long]))]
        rho = HermitianOperator(np.eye(2, dtype=complex) * (0.5 + 0.495e-9))
        with pytest.raises(InvariantViolation, match=r"^outcome probabilities sum to 1\.00000000\d+$"):
            measure_projective(rho, basis)


# Entries for the kernel's bit-identity test: ordinary values, signed zeros and subnormals.
KRON_ENTRIES = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
)


@st.composite
def kron_operands(draw):
    """Two vectors or two matrices, each float or complex, each possibly a
    non-contiguous view (transposed, conjugate-transposed or reversed)."""
    ndim = draw(st.sampled_from([1, 2]))

    def operand():
        shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
        size = math.prod(shape)
        arr = np.array(draw(st.lists(KRON_ENTRIES, min_size=size, max_size=size))).reshape(shape)
        if draw(st.booleans()):
            imag = np.array(draw(st.lists(KRON_ENTRIES, min_size=size, max_size=size))).reshape(shape)
            arr = arr.astype(complex)
            arr.imag = imag
        view = draw(st.sampled_from(["plain", "reversed"] + (["T", "conj-T"] if ndim == 2 else [])))
        return {"plain": arr, "reversed": arr[::-1], "T": arr.T, "conj-T": arr.conj().T}[view]

    return operand(), operand()


class TestTensorAndOverlap:
    @settings(max_examples=300, deadline=None)
    @given(pair=kron_operands())
    def test_kron_kernel_is_np_kron_bit_for_bit(self, pair):
        x, y = pair
        ours, reference = _kron(x, y), np.kron(x, y)
        assert (ours.shape, ours.dtype) == (reference.shape, reference.dtype)
        assert ours.tobytes() == reference.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
    def test_state_products_are_np_kron_bit_for_bit(self, dims, seed):
        rng = np.random.default_rng(seed)
        factors = [random_state(d, rng) for d in dims]
        ours, reference = tensor(factors), kron_tensor(factors)
        assert type(ours) is PureState and ours.dims == reference.dims == tuple(dims)
        assert ours.amplitudes.dtype == reference.amplitudes.dtype == complex
        assert not ours.amplitudes.flags.writeable and not reference.amplitudes.flags.writeable
        assert ours.amplitudes.tobytes() == reference.amplitudes.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_operator_products_are_np_kron_bit_for_bit(self, dims, seed):
        rng = np.random.default_rng(seed)
        factors = [random_unitary(d, rng) for d in dims]
        ours, reference = tensor(factors), kron_tensor(factors)
        assert type(ours) is UnitaryOperator and ours.dims == reference.dims == tuple(dims)
        assert ours.matrix.dtype == reference.matrix.dtype == complex
        assert not ours.matrix.flags.writeable and not reference.matrix.flags.writeable
        assert ours.matrix.tobytes() == reference.matrix.tobytes()

    def test_kets(self):
        s = tensor([basis_state(0, (2,)), basis_state(1, (2,))])
        assert s.dims == (2, 2)
        assert np.allclose(s.amplitudes, basis_state(1, (2, 2)).amplitudes)

    def test_identity_operators(self):
        eye = UnitaryOperator(np.eye(2, dtype=complex))
        assert np.allclose(tensor([eye, eye]).matrix, np.eye(4))

    def test_flip_first_qubit(self):
        gate = tensor([UnitaryOperator(X), UnitaryOperator(np.eye(2, dtype=complex))])
        out = gate.matrix @ basis_state(0, (2, 2)).amplitudes
        assert np.allclose(out, basis_state(2, (2, 2)).amplitudes)

    def test_norm_and_unitarity_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = tensor([random_state(2, rng), random_state(3, rng)])
            assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-10)
            u = tensor([random_unitary(2, rng), random_unitary(3, rng)])
            assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(6)).max() < 1e-10

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ParameterError):
            tensor([basis_state(0, (2,)), UnitaryOperator(X)])
        with pytest.raises(ParameterError):
            tensor([])

    def test_dimension_cap(self):
        big = UnitaryOperator(np.eye(64, dtype=complex))
        assert tensor([big, big]).d == 4096  # exactly at the cap
        with pytest.raises(ParameterError):
            tensor([big, big, UnitaryOperator(np.eye(2, dtype=complex))])

    def test_overlap_values(self):
        v = random_state(4, np.random.default_rng(3))
        assert overlap(v, v) == pytest.approx(1.0, abs=1e-12)
        assert overlap(basis_state(0, (2,)), basis_state(1, (2,))) == 0
        plus = PureState(np.array([1, 1]) / math.sqrt(2), (2,))
        assert overlap(basis_state(0, (2,)), plus) == pytest.approx(1 / math.sqrt(2))

    def test_overlap_mismatch(self):
        with pytest.raises(ParameterError):
            overlap(basis_state(0, (2,)), basis_state(0, (4,)))


class TestRandomUnitaries:
    @pytest.mark.parametrize(
        "dims,count",
        [(dims, count) for dims in (1, 2, 3, 4, 8, 16, (2, 2), (2, 3)) for count in (1, 2, 7)]
        + [(64, 40), (256, 3)]  # several draws of normals per call
        # two whole draws of normals and one matrix more
        + [(d, 2 * max(1, STACK_ENTRIES // d**2) + 1) for d in (2, 5, 16, 64)],
    )
    def test_stack_equals_sequential_draws(self, dims, count):
        seed = 1000 * count + (dims if isinstance(dims, int) else sum(dims))
        stacked_rng, array_rng, sequential_rng = (np.random.default_rng(seed) for _ in range(3))
        stacked, array = random_unitaries(count, dims, stacked_rng), haar_unitaries(count, dims, array_rng)
        sequential = [reference_random_unitary(dims, sequential_rng) for _ in range(count)]
        assert len(stacked) == count
        for a, b in zip(stacked, sequential):
            assert np.array_equal(a.matrix, b.matrix)
            assert a.dims == b.dims
            assert not a.matrix.flags.writeable
        assert not array.flags.writeable
        assert np.array_equal(array, np.array([b.matrix for b in sequential]))
        assert stacked_rng.bit_generator.state == sequential_rng.bit_generator.state
        assert array_rng.bit_generator.state == sequential_rng.bit_generator.state

    def test_single_draw_matches_reference(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(random_unitary((2, 2), a).matrix, reference_random_unitary((2, 2), b).matrix)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize(
        "count,dims",
        [
            (1, 4097), (3, (64, 65)), (1, 100000), (0, 2), (-1, 2), (True, 2), (2.0, 2), (1, 0),
            (1, 2.0), (1, (True, 2)),
        ],
    )
    def test_rejected_before_drawing(self, count, dims):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ParameterError):
            random_unitaries(count, dims, rng)
        with pytest.raises(ParameterError):
            haar_unitaries(count, dims, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("dims,count", [(1, 5000), (2, 1500), (5, 400), (16, 40), ((2, 3), 7)])
    def test_stacks_hold_the_unitary_stream(self, dims, count):
        # one read-only (count, d, d) array holds the unitaries, each one a view into it
        stack_rng, unitary_rng = np.random.default_rng(count), np.random.default_rng(count)
        stack = haar_unitaries(count, dims, stack_rng)
        unitaries = random_unitaries(count, dims, unitary_rng)
        total = unitaries[0].d
        assert stack.shape == (count, total, total) and not stack.flags.writeable
        assert np.array_equal(stack, np.array([u.matrix for u in unitaries]))
        assert all(u.matrix.base is unitaries[0].matrix.base is not None for u in unitaries)
        assert stack_rng.bit_generator.state == unitary_rng.bit_generator.state

    # 129 and 200 lie past LAPACK's blocked-QR crossover of 128 columns
    @pytest.mark.parametrize("dim", [*range(1, 41), 64, 129, 200])
    def test_columns_are_column_zero_bit_for_bit(self, dim):
        """Factoring only column 0 of each draw, a batch of columns per QR
        call, gives the bits of U|0> from the QR of the whole unitaries: a
        Householder QR builds Q e1 from column 0 alone. Two full batches and a
        partial one, each one ``_haar_columns`` call; at dims such as 5, 12 or
        40 a batch ends mid-draw of normals and a draw ends mid-batch. The
        first three columns, factored alone, are those of the whole unitaries too."""
        per_stack = max(1, STACK_ENTRIES // dim**2)
        batch = max(per_stack, COLUMN_ENTRIES // dim)  # at dim <= 4 one draw of normals per batch
        count = 2 * batch + 1
        column_rng, stack_rng, three_rng = (np.random.default_rng(dim) for _ in range(3))
        columns = [_haar_columns(size, dim, column_rng, 1) for size in (batch, batch, 1)]
        unitaries = haar_unitaries(count, dim, stack_rng)
        e0 = basis_state(0, dim).amplitudes
        assert [rows.shape for rows in columns] == [(batch, dim, 1), (batch, dim, 1), (1, dim, 1)]
        rows = np.concatenate(columns)[..., 0]
        assert np.array_equal(rows.view(np.uint64), (unitaries @ e0).view(np.uint64))
        assert column_rng.bit_generator.state == stack_rng.bit_generator.state
        three = _haar_columns(count, dim, three_rng, min(3, dim))
        assert np.array_equal(three.view(np.uint64), unitaries[..., :3].view(np.uint64))


class TestPartialTrace:
    def test_singlet_marginal(self):
        amps = np.zeros(4, dtype=complex)
        amps[1], amps[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        singlet = PureState(amps, (2, 2))
        reduced = partial_trace(singlet, keep=(0,))
        assert np.allclose(reduced.matrix, np.eye(2) / 2)

    def test_product_state(self):
        rng = np.random.default_rng(5)
        a, b = random_state(2, rng), random_state(3, rng)
        joint = tensor([a, b])
        reduced = partial_trace(joint, keep=(0,))
        assert np.allclose(reduced.matrix, density_operator(a).matrix, atol=1e-12)

    def test_operator_input_and_trace_preserved(self):
        rng = np.random.default_rng(6)
        joint = tensor([random_state(2, rng), random_state(2, rng)])
        reduced = partial_trace(joint, keep=(1,))
        assert reduced.trace == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(reduced.matrix).min() > -1e-9
        with pytest.raises(ParameterError, match="^partial_trace expects a PureState, got HermitianOperator$"):
            partial_trace(density_operator(joint), keep=(1,))

    def test_keep_order_preserved(self):
        rng = np.random.default_rng(7)
        a, b, c = random_state(2, rng), random_state(2, rng), random_state(3, rng)
        joint = tensor([a, b, c])
        reduced = partial_trace(joint, keep=(0, 2))
        expected = np.kron(density_operator(a).matrix, density_operator(c).matrix)
        assert reduced.dims == (2, 3)
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_bad_keep_set(self):
        s = basis_state(0, (2, 2))
        with pytest.raises(ParameterError):
            partial_trace(s, keep=())
        with pytest.raises(ParameterError):
            partial_trace(s, keep=(2,))

    @pytest.mark.parametrize("keep", [(1.7,), "1", (True,), (1, 0.0)], ids=["float", "str", "bool", "mixed"])
    def test_keep_indices_must_be_integers(self, keep):
        with pytest.raises(ParameterError, match="^keep index must be an integer"):
            partial_trace(basis_state(0, (2, 2)), keep=keep)

    def test_numpy_integer_keep_accepted(self):
        s = tensor([basis_state(0, (2,)), basis_state(1, (3,))])
        reduced = partial_trace(s, keep=(np.int64(1),))
        assert reduced.dims == (3,) and np.allclose(reduced.matrix, np.diag([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("index", [0, 1, np.int64(1)], ids=repr)
    def test_bare_keep_index_is_a_one_element_set(self, index):
        s = tensor([random_state((2,), np.random.default_rng(5)), random_state((3,), np.random.default_rng(6))])
        bare, single = partial_trace(s, keep=index), partial_trace(s, keep=(int(index),))
        assert bare.dims == single.dims and bare.matrix.tobytes() == single.matrix.tobytes()

    @pytest.mark.parametrize("keep", [True, 1.0, None], ids=repr)
    def test_bare_keep_non_integer_rejected_by_name(self, keep):
        with pytest.raises(ParameterError, match="^keep index must be an integer"):
            partial_trace(basis_state(0, (2, 2)), keep=keep)

    def test_bare_keep_index_out_of_range(self):
        with pytest.raises(ParameterError, match="out of range"):
            partial_trace(basis_state(0, (2, 2)), keep=2)


class TestMeasureProjective:
    def test_pure_state_in_basis(self):
        rho = density_operator(basis_state(0, (2, 2)))
        basis = [basis_state(j, (2, 2)) for j in range(4)]
        assert np.allclose(measure_projective(rho, basis), [1, 0, 0, 0])

    def test_maximally_mixed(self):
        rho = HermitianOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        basis = [basis_state(j, (2, 2)) for j in range(4)]
        assert np.allclose(measure_projective(rho, basis), [0.25] * 4)

    def test_even_mixture_of_flipped_states(self):
        # (|00><00| + |10><10|)/2 measured in the computational basis
        rho = HermitianOperator(np.diag([0.5, 0, 0.5, 0]).astype(complex), (2, 2))
        basis = [basis_state(j, (2, 2)) for j in range(4)]
        assert np.allclose(measure_projective(rho, basis), [0.5, 0, 0.5, 0])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        rho = density_operator(random_state(4, rng))
        gate = random_unitary(4, rng)
        basis = [
            PureState(gate.matrix[:, j], (4,)) for j in range(4)
        ]
        probs = measure_projective(rho, basis)
        assert probs.min() >= 0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_invalid_inputs(self):
        basis = [basis_state(j, (2,)) for j in range(2)]
        with pytest.raises(ParameterError):
            measure_projective(HermitianOperator(np.eye(2, dtype=complex)), basis)  # trace 2
        skewed = [basis_state(0, (2,)), PureState(np.array([1, 1]) / math.sqrt(2))]
        rho = HermitianOperator(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ParameterError):
            measure_projective(rho, skewed)
        with pytest.raises(ParameterError):
            measure_projective(rho, basis[:1])


class TestMaxEigenpair:
    def test_diagonal(self):
        value, vec = max_eigenpair(HermitianOperator(np.diag([0.2, 0.9, 0.5]).astype(complex)))
        assert value == pytest.approx(0.9, abs=1e-12)
        assert np.allclose(np.abs(vec.amplitudes), [0, 1, 0], atol=1e-12)

    def test_degenerate_returns_first_basis_vector(self):
        value, vec = max_eigenpair(HermitianOperator(np.eye(4, dtype=complex)))
        assert value == pytest.approx(1.0)
        assert np.allclose(vec.amplitudes, basis_state(0, (4,)).amplitudes, atol=1e-12)

    def test_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            a = HermitianOperator((z + z.conj().T) / 2)
            value, vec = max_eigenpair(a)
            residual = np.linalg.norm(a.matrix @ vec.amplitudes - value * vec.amplitudes)
            assert residual < 1e-8

    def test_matches_general_eigensolver(self):
        # independent route: the general eigensolver on the same matrix
        rng = np.random.default_rng(10)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = HermitianOperator((z + z.conj().T) / 2)
        value, _ = max_eigenpair(a)
        general = np.linalg.eig(a.matrix.astype(complex))[0].real.max()
        assert value == pytest.approx(general, abs=1e-9)


class TestSymmetricProjector:
    @pytest.mark.parametrize("d,n,rank", [(2, 2, 3), (2, 3, 4), (3, 2, 6), (2, 4, 5), (3, 3, 10)])
    def test_rank(self, d, n, rank):
        proj = symmetric_projector(d, n)
        eigenvalues = np.linalg.eigvalsh(proj.matrix)
        assert int((eigenvalues > 0.5).sum()) == rank == math.comb(d + n - 1, n)

    def test_idempotent_and_hermitian(self):
        proj = symmetric_projector(3, 3).matrix
        assert np.abs(proj @ proj - proj).max() < 1e-9
        assert np.abs(proj - proj.conj().T).max() < 1e-12

    def test_symmetric_input_is_fixed(self):
        rng = np.random.default_rng(12)
        state = random_state(2, rng)
        copies = tensor([state] * 4)
        proj = symmetric_projector(2, 4)
        assert np.allclose(proj.matrix @ copies.amplitudes, copies.amplitudes, atol=1e-12)

    def test_caps(self):
        with pytest.raises(ParameterError):
            symmetric_projector(2, 9)
        with pytest.raises(ParameterError):
            symmetric_projector(13, 4)  # 13**4 > 4096
        with pytest.raises(ParameterError):
            symmetric_projector(2, 0)

    @pytest.mark.parametrize("d,n", [(2, True), (True, 2)])
    def test_bool_counts_rejected(self, d, n):
        with pytest.raises(ParameterError):
            symmetric_projector(d, n)

    @pytest.mark.parametrize("d,n", SMALL_SUBSPACES)
    def test_matches_reference(self, d, n):
        proj = symmetric_projector(d, n)
        assert proj.dims == (d,) * n
        assert np.abs(proj.matrix - reference_symmetric_projector(d, n).matrix).max() <= 1e-14


class TestSymmetricSubspaceOracle:
    """acceptance_error_oracle against two routes that share nothing with it."""

    @settings(max_examples=200, deadline=None)
    @given(pair=state_pairs())
    def test_random_pairs(self, pair):
        n, a, b = pair
        value = acceptance_error_oracle(n, a, b)
        assert value == pytest.approx(gram_permanent_acceptance(n, a, b), abs=1e-12)
        reference = reference_symmetric_projector(a.d, n).matrix
        phi = tensor([a] + [b] * (n - 1)).amplitudes
        assert value == pytest.approx(np.vdot(phi, reference @ phi).real, abs=1e-12)

    @pytest.mark.parametrize("d,n", ORACLE_LADDER)
    def test_benchmark_ladder(self, d, n):
        rng = np.random.default_rng(d * 100 + n)
        for _ in range(5):
            a, b = random_state(d, rng), random_state(d, rng)
            lam = abs(np.vdot(a.amplitudes, b.amplitudes))
            value = acceptance_error_oracle(n, a, b)
            assert abs(value - acceptance_error_formula(n, lam)) <= 1e-9
            # the exact value correctly rounded; the dense routes, with Phi from np.kron, within 1e-15
            assert value == float(closed_form_with_norms(n, a.amplitudes, b.amplitudes))
            phi = kron_tensor([a] + [b] * (n - 1)).amplitudes.reshape((d,) * n)
            assert abs(value - np.vdot(phi, symmetrize(phi, n)).real) <= 1e-15
            assert abs(value - np.vdot(phi, reference_symmetrize(phi, n)).real) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(case=complex_tensors())
    def test_kernel_bits_match_copy_and_divide(self, case):
        # numpy's complex division by a real scalar multiplies by its reciprocal, so every nonzero
        # real or imaginary part keeps its bits; a zero part may come out with the other sign
        t, n = case
        before = t.copy()
        out = symmetrize(t, n)
        expected = reference_symmetrize(t, n)
        assert out.shape == t.shape and np.array_equal(out, expected)
        same = out.view(np.uint64) == expected.view(np.uint64)
        assert (same | (expected.view(np.float64) == 0.0)).all()
        assert np.array_equal(t.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_signed_zeros_leave_oracle_bits(self, n):
        # real states with zero amplitudes put -0.0 entries in the dense route's Phi; the oracle
        # reads every zero part as the int 0, so flipping the sign of each leaves its bits
        a = PureState(np.array([1.0, 0.0, 0.0]))
        b = PureState(np.array([-0.6, 0.0, 0.8]))
        phi = kron_tensor([a] + [b] * (n - 1)).amplitudes.reshape((3,) * n)
        assert np.signbit(phi.real[phi == 0]).any()
        value = acceptance_error_oracle(n, a, b)
        assert value == float(closed_form_with_norms(n, a.amplitudes, b.amplitudes))
        assert abs(value - np.vdot(phi, reference_symmetrize(phi, n)).real) <= 1e-15
        parts = [s.amplitudes.view(np.float64) for s in (a, b)]
        flipped = [PureState(np.where(x == 0, -x, x).view(complex)) for x in parts]
        assert all(np.signbit(s.amplitudes.imag).all() for s in flipped)
        assert acceptance_error_oracle(n, *flipped) == value

    @pytest.mark.parametrize("d,n", [(4, 6), (16, 3), (8, 4)])
    def test_working_memory_is_below_one_tensor(self, d, n):
        # the oracle forms nothing of d**n entries: its peak stays below one complex tensor
        # of Phi's size at each of these 4096-entry shapes (the dense projector takes 256 MiB)
        rng = np.random.default_rng(d * 100 + n)
        a, b = random_state(d, rng), random_state(d, rng)
        acceptance_error_oracle(2, random_state(2, rng), random_state(2, rng))
        tracemalloc.start()
        try:
            acceptance_error_oracle(n, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * d**n


class TestSerialization:
    def test_state_round_trip(self):
        state = random_state((2, 2), np.random.default_rng(13))
        doc = state_to_json_dict(state)
        back = state_from_json_dict(doc)
        assert back.dims == (2, 2)
        assert np.allclose(back.amplitudes, state.amplitudes)

    def test_operator_round_trip(self):
        gate = random_unitary((2, 2), np.random.default_rng(14))
        back = unitary_from_json_dict(operator_to_json_dict(gate))
        assert np.allclose(back.matrix, gate.matrix)

    def test_malformed_documents(self):
        with pytest.raises(ParameterError):
            state_from_json_dict({"dims": [2]})
        with pytest.raises(ParameterError):
            unitary_from_json_dict({"dims": [2]})
