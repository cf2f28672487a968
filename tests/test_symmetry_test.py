import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from authsim import cli, symmetry_test
from authsim.errors import DomainError, ParameterError
from authsim.quantum_core import (
    MAX_COPIES,
    MAX_TOTAL_DIMENSION,
    HermitianOperator,
    PureState,
    UnitaryOperator,
    _trusted,
    basis_state,
    random_state,
    tensor,
)
from authsim.symmetry_test import (
    MAX_SWEEP_POINTS,
    SweepRow,
    acceptance_error_formula,
    acceptance_error_oracle,
    copies_required,
    feasibility_threshold,
    sweep,
)
from testkit import (
    CallCounter,
    closed_form_of_gram,
    closed_form_with_norms,
    gram_fractions,
    impersonation_with_symmetry_test,
    key_length_requirement,
    reference_symmetrize,
)


def plus_state():
    return PureState(np.array([1.0, 1.0]) / math.sqrt(2), (2,))


class TestAcceptanceErrorFormula:
    def test_reference_values(self):
        assert acceptance_error_formula(2, 0.0) == pytest.approx(0.5)
        assert acceptance_error_formula(3, math.sqrt(0.5)) == pytest.approx(2 / 3)
        for n in (1, 2, 5, 8):
            assert acceptance_error_formula(n, 1.0) == pytest.approx(1.0)

    def test_monotone_decreasing_in_copies(self):
        for lam in (0.0, 0.3, 0.9):
            values = [acceptance_error_formula(n, lam) for n in range(2, 9)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_overlap(self):
        for n in (2, 4, 6):
            values = [acceptance_error_formula(n, lam) for lam in np.linspace(0, 1, 9)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_range(self):
        for n in (2, 3, 7):
            for lam in np.linspace(0, 1, 7):
                value = acceptance_error_formula(n, lam)
                assert 1 / n - 1e-12 <= value <= 1 + 1e-12

    def test_validation(self):
        with pytest.raises(ParameterError):
            acceptance_error_formula(0, 0.5)
        with pytest.raises(ParameterError):
            acceptance_error_formula(2, 1.5)

    @pytest.mark.parametrize("n", [True, False])
    def test_bool_copy_count_rejected(self, n):
        with pytest.raises(ParameterError, match="copy count"):
            acceptance_error_formula(n, 0.5)

    @pytest.mark.parametrize("lam", [True, False])
    def test_bool_overlap_rejected(self, lam):
        with pytest.raises(ParameterError, match="^overlap must be a number, got "):
            acceptance_error_formula(2, lam)

    @pytest.mark.parametrize("lam", ["0.5", None, 0.5j, [0.5]])
    def test_non_real_overlap_rejected(self, lam):
        with pytest.raises(ParameterError, match="^overlap must be a number, got "):
            acceptance_error_formula(2, lam)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 0.5])
    def test_copy_count_outside_its_range_rejected(self, n):
        with pytest.raises(ParameterError, match="copy count"):
            acceptance_error_formula(n, 0.5)

    @pytest.mark.parametrize("lam", [np.float64(1.5), Fraction(3, 2)], ids=repr)
    def test_overlap_outside_its_range_names_the_float_read(self, lam):
        with pytest.raises(ParameterError, match=r"^overlap 1\.5 outside \[0, 1\]$"):
            acceptance_error_formula(2, lam)
        with pytest.raises(ParameterError, match=r"^overlap 1\.5 outside \[0, 1\]$"):
            copies_required(2, 0.5, lam)

    def test_numpy_and_python_float_overlaps_pass(self):
        assert acceptance_error_formula(3, np.float64(0.5)) == acceptance_error_formula(3, 0.5) == 0.5


class TestAcceptanceErrorOracle:
    def test_identical_states_always_pass(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            state = random_state(2, rng)
            assert acceptance_error_oracle(n, state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        value = acceptance_error_oracle(2, basis_state(0, (2,)), basis_state(1, (2,)))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_hadamard_pair_three_copies(self):
        value = acceptance_error_oracle(3, basis_state(0, (2,)), plus_state())
        assert value == pytest.approx(2 / 3, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_formula(self, n, d):
        rng = np.random.default_rng(1000 * d + n)
        for _ in range(25):
            a, b = random_state(d, rng), random_state(d, rng)
            lam = abs(np.vdot(a.amplitudes, b.amplitudes))
            assert abs(
                acceptance_error_oracle(n, a, b) - acceptance_error_formula(n, lam)
            ) <= 1e-9

    def test_caps_and_validation(self, monkeypatch):
        # d is held to MAX_TOTAL_DIMENSION, not d**n: a 4097-dim state is rejected when it is built
        assert acceptance_error_oracle(7, basis_state(0, (4,)), basis_state(1, (4,))) == 1 / 7
        with pytest.raises(ParameterError, match=r"^total dimension 4097 exceeds cap 4096$"):
            basis_state(0, (4097,))
        counter = CallCounter(monkeypatch)
        counter.count(symmetry_test, "_ints")
        with pytest.raises(ParameterError, match=r"^copy count must be <= 64, got 65$"):
            acceptance_error_oracle(65, basis_state(0, (2,)), basis_state(1, (2,)))
        with pytest.raises(ParameterError):
            acceptance_error_oracle(2, basis_state(0, (2,)), basis_state(0, (3,)))
        assert counter.calls == {"_ints": 0}

    @pytest.mark.parametrize("position", ["a", "b"])
    @pytest.mark.parametrize(
        "value,kind",
        [
            (UnitaryOperator(np.eye(2)), "UnitaryOperator"),
            (HermitianOperator(np.diag([1.0, 0.0])), "HermitianOperator"),
            (np.array([1.0, 0.0]), "ndarray"),
        ],
        ids=["unitary", "hermitian", "array"],
    )
    def test_non_state_rejected_by_name_before_any_amplitude_read(self, position, value, kind, monkeypatch):
        counter = CallCounter(monkeypatch)
        counter.count(symmetry_test, "_ints")
        args = {"a": basis_state(0, (2,)), "b": basis_state(1, (2,)), position: value}
        with pytest.raises(ParameterError, match=f"^{position} must be a PureState, got {kind}$"):
            acceptance_error_oracle(2, args["a"], args["b"])
        assert counter.calls == {"_ints": 0}

    @pytest.mark.parametrize("n", [True, False, 0, 65, 10**6, 10**7, 2.0])
    def test_invalid_copy_count_rejected_before_work(self, n):
        # d = 1 keeps d**n under the dimension cap, so only the copy check can refuse
        with pytest.raises(ParameterError, match="copy count"):
            acceptance_error_oracle(n, basis_state(0, (1,)), basis_state(0, (1,)))
        with pytest.raises(ParameterError, match="copy count"):
            acceptance_error_oracle(n, basis_state(0, (3,)), basis_state(1, (3,)))


def gaussian_integers(amplitudes: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """The amplitudes times ``scale``, one power of two, as exact (re, im) int pairs.

    Every float is num/den with den a power of two (``float.as_integer_ratio``),
    so scaling by the largest den leaves no remainder.
    """
    ratios = [x.as_integer_ratio() for z in amplitudes.tolist() for x in (z.real, z.imag)]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    return list(zip(ints[::2], ints[1::2])), scale


def gaussian_inner(u, v) -> tuple[int, int]:
    """<u|v> of two vectors of Gaussian integers."""
    pairs = list(zip(u, v))
    return sum(a * c + b * d for (a, b), (c, d) in pairs), sum(a * d - b * c for (a, b), (c, d) in pairs)


def gaussian_mul(x, y) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def gaussian_pow(x, k: int) -> tuple[int, int]:
    out = (1, 0)
    while k:
        if k & 1:
            out = gaussian_mul(out, x)
        x, k = gaussian_mul(x, x), k >> 1
    return out


def exact_acceptance(n: int, a: np.ndarray, b: np.ndarray) -> Fraction:
    """<Phi|P_sym|Phi> for Phi = a (x) b^(x)(n-1), exactly, from the amplitudes as given.

    It is perm(G)/n! for the Gram matrix G_ij = <v_i|v_j> of the n factors
    (Harrow, arXiv:1308.6595). Ryser's formula, grouped by the column
    multiplicities (1, n-1), has 2n terms,
    sum_{s_a<=1, s_b<n} (-1)^(n-s_a-s_b) C(n-1, s_b) (s_a g_aa + s_b g_ab) (s_a g_ba + s_b g_bb)^(n-1),
    evaluated in Gaussian integers on the scaled amplitudes; the scales
    leave by one division at the end.
    """
    (u, scale_a), (v, scale_b) = gaussian_integers(a), gaussian_integers(b)
    g_aa, g_ab, g_bb = gaussian_inner(u, u)[0], gaussian_inner(u, v), gaussian_inner(v, v)[0]
    perm_re = perm_im = 0
    for s_a in (0, 1):
        for s_b in range(n):
            head = (s_a * g_aa + s_b * g_ab[0], s_b * g_ab[1])
            tail = gaussian_pow((s_a * g_ab[0] + s_b * g_bb, -s_a * g_ab[1]), n - 1)
            re, im = gaussian_mul(head, tail)
            weight = (-1) ** (n - s_a - s_b) * math.comb(n - 1, s_b)
            perm_re, perm_im = perm_re + weight * re, perm_im + weight * im
    assert perm_im == 0  # G is Hermitian, so its permanent is real
    return Fraction(perm_re, math.factorial(n) * scale_a**2 * scale_b ** (2 * (n - 1)))


# Every (d, n) with d <= 16, n <= 8 and d**n <= 4096. With parts down to subnormals the exact ints
# grow by about 2300 bits a copy, so larger counts are left to the tests at the reported copy counts.
ORACLE_SHAPES = [(d, n) for d in range(1, 17) for n in range(1, 9) if d**n <= MAX_TOTAL_DIMENSION]
_SIGN = st.sampled_from([1.0, -1.0])
# zeros of either sign, parts from about 1e-300 to 1, and subnormals
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda f, e: f * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 0)),
    st.builds(lambda k, sign: sign * k * 5e-324, st.integers(1, 2**52 - 1), _SIGN),
)


@st.composite
def oracle_cases(draw):
    """(n, a, b) for every admitted (d, n) with d <= 16: each state has one part of
    size 1/2 to 1 and the rest from ``_PARTS``, is divided by its norm, and
    holds its amplitudes contiguous, as a strided view or as a reversed view."""

    def state():
        parts = np.array(draw(st.lists(_PARTS, min_size=2 * d, max_size=2 * d)))
        parts[draw(st.integers(0, 2 * d - 1))] = draw(st.floats(0.5, 1.0)) * draw(_SIGN)
        amps = PureState(parts.view(complex) / np.linalg.norm(parts)).amplitudes
        layouts = {"contiguous": amps, "strided": np.repeat(amps, 2)[::2], "reversed": amps[::-1].copy()[::-1]}
        return _trusted(PureState, layouts[draw(st.sampled_from(sorted(layouts)))], (d,))

    d, n = draw(st.sampled_from(ORACLE_SHAPES))
    return n, state(), state()


@pytest.fixture(scope="module")
def reported_copy_counts(tmp_path_factory):
    """Every n_ceil of the symtest-grid built-in report."""
    out = tmp_path_factory.mktemp("grid") / "grid.json"
    assert cli.run("symtest-grid", output=str(out), stdout=io.StringIO()) == 0
    return sorted({row["n_ceil"] for row in json.loads(out.read_text())["rows"]})


class TestExactPermanent:
    """The symmetry test's acceptance in exact arithmetic, from the Gram
    permanent of the n factors: the closed form is held to it at every copy
    count the built-in grid reports. The oracle is the closed form correctly
    rounded at each of those counts, and the dense route,
    ``testkit.reference_symmetrize``, is within 1e-15 of it."""

    def test_reported_copy_counts_are_within_the_oracle_cap(self, reported_copy_counts):
        assert reported_copy_counts[0] == 2 and reported_copy_counts[-1] == 40
        assert all(n <= MAX_COPIES for n in reported_copy_counts)

    @pytest.mark.parametrize("d", [2, 5, 64, 4096])
    def test_oracle_is_the_closed_form_at_every_reported_copy_count(self, d, reported_copy_counts):
        # each pair's exact Gram entries are computed once; lambda is random, then 1 up to the norms
        rng = np.random.default_rng(d)
        a, b = random_state(d, rng), random_state(d, rng)
        for x, y in ((a, b), (a, a)):
            gram = gram_fractions(x.amplitudes, y.amplitudes)
            for n in reported_copy_counts:
                assert acceptance_error_oracle(n, x, y) == float(closed_form_of_gram(n, *gram)), (d, n)

    @pytest.mark.parametrize("d", [2, 5, 64])
    def test_closed_form_equals_permanent(self, d, reported_copy_counts):
        # random states are divided by their float norm, so their norms are 1 only within an ulp or so
        rng = np.random.default_rng(d)
        pairs = [(random_state(d, rng).amplitudes, random_state(d, rng).amplitudes) for _ in range(2)]
        pairs.append((pairs[0][0], pairs[0][0]))  # lambda = 1 up to the norms
        for n in reported_copy_counts:
            for a, b in pairs:
                assert exact_acceptance(n, a, b) == closed_form_with_norms(n, a, b), n

    def test_basis_pairs(self):
        # orthogonal states pass with probability 1/n, identical unit states always
        zero, plus = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2)
        for n in (1, 2, 3, 20):
            assert exact_acceptance(n, zero, np.array([0.0, 1.0])) == Fraction(1, n)
            assert exact_acceptance(n, zero, zero) == 1
            assert exact_acceptance(n, zero, plus) == closed_form_with_norms(n, zero, plus)

    def test_oracle_exact_and_dense_route_within_1e_15(self):
        # every (d, n) with d <= 64 and n <= 8 at which the dense route fits: d**n <= 4096
        rng, worst = np.random.default_rng(7), {}
        for d in range(1, 65):
            for n in range(1, 9):
                if d**n > 4096:
                    break
                a, b = random_state(d, rng), random_state(d, rng)
                value = acceptance_error_oracle(n, a, b)
                assert value == float(exact_acceptance(n, a.amplitudes, b.amplitudes)), (d, n)
                phi = tensor([a] + [b] * (n - 1)).amplitudes.reshape((d,) * n)
                worst[d, n] = abs(value - np.vdot(phi, reference_symmetrize(phi, n)).real)
        assert len(worst) == 166
        assert max(worst.values()) <= 1e-15, max(worst, key=worst.get)

    @settings(max_examples=300, deadline=None)
    @given(case=oracle_cases())
    def test_oracle_is_the_closed_form_correctly_rounded(self, case):
        n, a, b = case
        value = acceptance_error_oracle(n, a, b)
        assert value == float(closed_form_with_norms(n, a.amplitudes, b.amplitudes))
        if n == 1:  # the correctly rounded squared norm of a
            assert value == float(sum(Fraction(x) ** 2 for z in a.amplitudes.tolist() for x in (z.real, z.imag)))


class TestCopiesRequired:
    def test_reference_point(self):
        result = copies_required(4, 0.25, 0.0)
        assert result.n_real == pytest.approx(3.0, abs=1e-12)
        assert result.n_ceil == 3

    def test_fractional_point(self):
        result = copies_required(8, 1 / 8, 0.1)
        assert result.n_real == pytest.approx(6.93 / 0.93, abs=1e-9)
        assert result.n_ceil == 8

    def test_exceeds_tag_count_minus_two(self):
        for t_size in range(2, 17):
            for dfrac in (0.5, 1.0):
                delta = dfrac / t_size
                threshold = feasibility_threshold(t_size, delta)
                for lfrac in (0.0, 0.5, 0.9):
                    result = copies_required(t_size, delta, lfrac * threshold)
                    assert result.n_real > t_size - 2

    def test_infeasible_overlap_names_threshold(self):
        threshold = feasibility_threshold(4, 0.25)
        with pytest.raises(DomainError) as err:
            copies_required(4, 0.25, threshold * 1.01)
        assert str(threshold) in str(err.value)

    def test_composition_reproduces_target(self):
        # at the real-valued solution the impersonation probability is exactly floor + delta
        for t_size, dfrac, lfrac in [(4, 1.0, 0.0), (8, 0.5, 0.5), (16, 0.7, 0.3)]:
            delta = dfrac / t_size
            lam = lfrac * feasibility_threshold(t_size, delta)
            n_real = copies_required(t_size, delta, lam).n_real
            p0 = impersonation_with_symmetry_test(t_size, lam, n_real)
            assert p0 == pytest.approx(1.0 / t_size + delta, abs=1e-9)

    @pytest.mark.parametrize("t_size", [2, 3])
    def test_infinite_copy_count_is_a_domain_error(self, t_size):
        # delta = 1e-320 / T is positive, but delta * T - (T-1) * lambda**2 is so small that
        # n_real overflows to inf, which math.ceil cannot take
        with pytest.raises(DomainError, match="^copy count n_real = inf is not finite"):
            copies_required(t_size, 1e-320 / t_size, 0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            copies_required(1, 0.5, 0.0)
        with pytest.raises(ParameterError):
            copies_required(4, 0.3, 0.0)  # delta above 1/T
        with pytest.raises(ParameterError):
            copies_required(4, 0.0, 0.0)


class TestFeasibilityThreshold:
    @pytest.mark.parametrize("tag_count", [1, 0, True, 4.0, "4"])
    def test_tag_count_rejected(self, tag_count):
        with pytest.raises(ParameterError, match="tag count"):
            feasibility_threshold(tag_count, 0.25)

    @pytest.mark.parametrize("delta", [-1, 0.0, 0.3, math.nan, math.inf])
    def test_delta_outside_its_range_rejected(self, delta):
        with pytest.raises(ParameterError, match="delta"):
            feasibility_threshold(4, delta)


REAL_READERS = {
    "copies_required.delta": (lambda v: copies_required(4, v, 0.0), "delta", 0.25),
    "copies_required.lambda_max": (lambda v: copies_required(4, 0.25, v), "lambda_max", 0.5),
    "feasibility_threshold.delta": (lambda v: feasibility_threshold(4, v), "delta", 0.25),
    "sweep.delta_fracs": (lambda v: sweep([4], [v], [0.0]), "delta_fracs[0]", 0.5),
    "sweep.lambda_fracs": (lambda v: sweep([4], [0.5], [v]), "lambda_fracs[0]", 0.5),
}


class TestRealArguments:
    """delta, lambda_max and the sweep's fractions are read as real numbers; anything else is a
    ParameterError naming them."""

    @pytest.mark.parametrize("value", ["x", "0.25", None, True, False, 1j, [0.25]], ids=repr)
    @pytest.mark.parametrize("reader", REAL_READERS)
    def test_non_real_rejected_by_name(self, reader, value):
        call, name, _ = REAL_READERS[reader]
        with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be a number, got "):
            call(value)

    @pytest.mark.parametrize("reader", REAL_READERS)
    def test_huge_int_rejected_by_name(self, reader):
        call, name, _ = REAL_READERS[reader]
        with pytest.raises(ParameterError, match=f"^{re.escape(name)} is too large for a float, got "):
            call(10**400)

    @pytest.mark.parametrize("reader", REAL_READERS)
    def test_real_types_read_as_the_float(self, reader):
        call, _, value = REAL_READERS[reader]
        for same in (np.float64(value), np.float32(value), Fraction(value)):
            assert call(same) == call(value)


class TestSweepKeyBudgets:
    def test_security_floor(self):
        for d in (1, 2, 3):
            for row in sweep(range(2, 17), d=d).rows:
                assert row.key_bits_quantum >= abs(math.log2(row.P0))
                if d == 1:  # no Holevo term
                    assert row.key_bits_quantum == abs(math.log2(row.P0))

    def test_linear_vs_logarithmic_scaling(self):
        # delta = 1/T and lambda = 0 give n = T - 1 copies and P0 = 2/T: the quantum
        # budget grows linearly in T, the classical comparator logarithmically
        t_values = list(range(4, 33, 4))
        rows = sweep(t_values, delta_fracs=(1.0,), lambda_fracs=(0.0,)).rows
        assert [(row.T_size, row.n_ceil) for row in rows] == [(t, t - 1) for t in t_values]
        for row in rows:
            # comparator is 4 * log2(T/2) * log2(log2(2**64)) here
            assert row.key_bits_classical_ref == pytest.approx(24 * math.log2(row.T_size / 2))
        q_diffs = np.diff([row.key_bits_quantum for row in rows])
        c_diffs = np.diff([row.key_bits_classical_ref for row in rows])
        assert all(4.0 <= d <= 5.1 for d in q_diffs)  # constant slope + shrinking log term
        assert all(a > b for a, b in zip(c_diffs, c_diffs[1:]))  # log growth flattens

    @pytest.mark.parametrize("size", ["x", None, math.nan, math.inf, 2, 1.5])
    def test_message_space_size_outside_its_range_rejected(self, size):
        with pytest.raises(ParameterError, match="^message space size must be finite and exceed 2, got "):
            sweep([4], message_space_size=size)

    def test_bad_d_or_size_rejected_when_every_point_is_skipped(self):
        # T = 2 with delta = 1/T solves to a single system, so the grid has no row
        assert sweep([2], [1.0], [0.0]).rows == []
        with pytest.raises(ParameterError, match="^tag dimension must be >= 1, got 0$"):
            sweep([2], [1.0], [0.0], d=0)
        with pytest.raises(ParameterError, match="^message space size must be finite and exceed 2, got 1$"):
            sweep([2], [1.0], [0.0], message_space_size=1)

    def test_arguments_read_once(self, monkeypatch):
        params = cli.load_config("symtest-grid").parameters
        t_values = list(range(params["t_min"], params["t_max"] + 1))
        grid = (t_values, params["delta_fracs"], params["lambda_fracs"])
        counter = CallCounter(monkeypatch)
        counter.count(symmetry_test, "read_value")
        assert sweep(*grid, d=params["d"], message_space_size=2 ** params["message_space_bits"]).rows
        assert counter.calls == {"read_value": sum(map(len, grid)) + 1}


class TestSweep:
    def test_rows_satisfy_copy_bound(self):
        rows = sweep(range(2, 17)).rows
        assert rows
        for row in rows:
            assert row.n_real > row.T_size - 2
            assert row.n_ceil >= row.n_real - 1e-9
            assert 0 < row.P0 < 1

    def test_fields_are_the_report_columns(self):
        assert SweepRow._fields == (
            "T_size", "delta", "lambda_max", "n_real", "n_ceil", "P0",
            "key_bits_quantum", "key_bits_classical_ref",
        )

    @settings(max_examples=200, deadline=None)
    @given(
        t_values=st.lists(st.integers(2, 40) | st.integers(2, 2**80), min_size=1, max_size=8),
        delta_fracs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
        lambda_fracs=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=4),
        d=st.integers(1, 4),
        bits=st.integers(2, 80),
    )
    def test_key_budget_consistent(self, t_values, delta_fracs, lambda_fracs, d, bits):
        # each row is bit for bit the reference through the checked public formulas
        for row in sweep(t_values, delta_fracs, lambda_fracs, d=d, message_space_size=2**bits).rows:
            assert copies_required(row.T_size, row.delta, row.lambda_max) == (row.n_real, row.n_ceil)
            assert row.P0 == impersonation_with_symmetry_test(row.T_size, row.lambda_max, row.n_ceil)
            assert (row.key_bits_quantum, row.key_bits_classical_ref) == key_length_requirement(
                row.P0, row.n_ceil, d, 2**bits
            )

    def test_degenerate_rows_skipped(self):
        # T=2 with delta = 1/T solves to a single system; the row is dropped
        result = sweep([2], delta_fracs=(1.0,), lambda_fracs=(0.0,))
        assert result.rows == []
        assert result.crossovers == [(1.0, 0.0, None)]

    @pytest.mark.parametrize("value", ["x", None, True, False, 1j, [0.5]], ids=repr)
    @pytest.mark.parametrize("name", ["delta_fracs", "lambda_fracs"])
    def test_non_real_fraction_rejected_by_name(self, name, value):
        # a bool is not read as 1 or 0, and a string is not compared with a float
        fracs = {"delta_fracs": [0.5], "lambda_fracs": [0.0], name: [value]}
        with pytest.raises(ParameterError, match=rf"^{name}\[0\] must be a number, got "):
            sweep([2], **fracs)

    def test_delta_fraction_that_underflows_is_named(self):
        # 5e-324 / 4 is 0.0; the error names the fraction and |T|, not a delta the caller never gave
        with pytest.raises(ParameterError, match=r"^delta_fracs\[1\] / \|T\| = 5e-324 / 4 underflows to 0$"):
            sweep([4], delta_fracs=[0.5, 5e-324], lambda_fracs=[0.0])

    def test_tiny_delta_fraction_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^copy count n_real = inf"):
            sweep([2, 3], delta_fracs=[1e-320], lambda_fracs=[0.0])

    def test_validation(self):
        with pytest.raises(ParameterError):
            sweep([4], delta_fracs=(1.5,))
        with pytest.raises(ParameterError):
            sweep([4], lambda_fracs=(1.0,))
        with pytest.raises(ParameterError):
            sweep([1])

    def test_grid_cap_checked_before_the_first_point(self):
        class Endless:
            """Claims a length; iterating it would be the work the cap refuses."""

            def __len__(self):
                return 10**12

            def __iter__(self):
                raise AssertionError("the grid was walked")

        for t_values in (Endless(), range(2, 2 + 10**12)):
            with pytest.raises(ParameterError, match=r"^the sweep grid holds 4000000000000 points; it must hold"):
                sweep(t_values)
        with pytest.raises(ParameterError, match=r"^the sweep grid holds 65537 points"):
            sweep(range(2, 2 + MAX_SWEEP_POINTS + 1), [1.0], [0.0])
        assert len(sweep(range(2, 2 + MAX_SWEEP_POINTS), [1.0], [0.0]).crossovers) == 1

    @pytest.mark.parametrize(
        "t_values,delta_fracs,lambda_fracs",
        [([], [0.5], [0.0]), ([4], [], [0.0]), ([4], [0.5], [])],
        ids=["no-tag-counts", "no-delta-fracs", "no-lambda-fracs"],
    )
    def test_empty_grid_rejected(self, t_values, delta_fracs, lambda_fracs):
        with pytest.raises(ParameterError, match=r"^the sweep grid holds 0 points; it must hold 1 to 65536$"):
            sweep(t_values, delta_fracs, lambda_fracs)

    @pytest.mark.parametrize(
        "t_values", [iter([4]), (t for t in [4]), range(2, 2**70)], ids=["iterator", "generator", "range-past-maxsize"]
    )
    def test_unsized_tag_counts_rejected(self, t_values):
        with pytest.raises(ParameterError, match=r"^t_values must be a sized collection of tag counts$"):
            sweep(t_values)
