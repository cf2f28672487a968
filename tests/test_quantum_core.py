import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from authsim.errors import ParameterError
from authsim.quantum_core import (
    HermitianOperator,
    PureState,
    UnitaryOperator,
    _trusted,
    basis_state,
    max_eigenpair,
    measure_projective,
    operator_to_json_dict,
    overlap,
    partial_trace,
    random_state,
    random_unitaries,
    random_unitary,
    state_from_json_dict,
    state_to_json_dict,
    symmetric_projector,
    tensor,
    unitary_from_json_dict,
)
from authsim.symmetry_test import acceptance_error_formula, acceptance_error_oracle

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Every (d, n) whose reference projector is small enough to build per example.
SMALL_SUBSPACES = [(d, n) for d in range(1, 17) for n in range(1, 9) if d**n <= 256]
# The symtest-oracle benchmark ladder.
ORACLE_LADDER = [(2, 8), (3, 5), (8, 3), (4, 6), (16, 3)]


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

    def test_measurement_checks(self):
        basis = [basis_state(j, (2,)) for j in range(2)]
        rho = _trusted(HermitianOperator, np.array([[math.nan, 0], [0, 0.5]], dtype=complex), (2,))
        with pytest.raises(ParameterError, match="trace"):
            measure_projective(rho, basis)
        half = HermitianOperator(np.eye(2, dtype=complex) / 2)
        skewed = [basis[0], _trusted(PureState, np.array([math.nan, 1.0]), (2,))]
        with pytest.raises(ParameterError, match="orthonormal"):
            measure_projective(half, skewed)


class TestTensorAndOverlap:
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
        + [(64, 40), (256, 3)],  # several stacks per call
    )
    def test_stack_equals_sequential_draws(self, dims, count):
        seed = 1000 * count + (dims if isinstance(dims, int) else sum(dims))
        stacked_rng, sequential_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = random_unitaries(count, dims, stacked_rng)
        sequential = [reference_random_unitary(dims, sequential_rng) for _ in range(count)]
        assert len(stacked) == count
        for a, b in zip(stacked, sequential):
            assert np.array_equal(a.matrix, b.matrix)
            assert a.dims == b.dims
            assert not a.matrix.flags.writeable
        assert stacked_rng.bit_generator.state == sequential_rng.bit_generator.state

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
        assert rng.bit_generator.state == before


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
        joint = density_operator(tensor([random_state(2, rng), random_state(2, rng)]))
        reduced = partial_trace(joint, keep=(1,))
        assert reduced.trace == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(reduced.matrix).min() > -1e-9

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
            assert abs(acceptance_error_oracle(n, a, b) - acceptance_error_formula(n, lam)) <= 1e-9


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
