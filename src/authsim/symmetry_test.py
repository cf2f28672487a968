"""Verification by symmetry testing: error rates, copy counts, key budgets.

Bob checks a received tag against a locally prepared expected copy by
projecting all n systems (n-1 received + 1 local) onto their symmetric
subspace. Identical states always pass; a wrong tag with overlap lambda
slips through with probability (1 + (n-1) lambda^2) / n, which drives both
the copy-count formula and the key budgets of ``sweep``.
"""

from __future__ import annotations

import math
import sys
from numbers import Real
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError
from .quantum_core import COPY_COUNT, PureState
from .spec import Field, read_value

DEFAULT_MESSAGE_SPACE_SIZE = 2**64
_REAL, _DIMENSION = Field(float), Field(int, lo=1)  # log2 takes an int dimension of any size
TAG_COUNT = Field(int, lo=2, hi=sys.float_info.max)  # a config key too; hi keeps out ints too large for a float
_REAL_COPIES = Field(float, lo=1, hi=sys.float_info.max)
MAX_SWEEP_POINTS = 2**16  # |T values| * |delta_fracs| * |lambda_fracs| of one sweep, checked before its first point
OVERLAP_MAX = 1.0 + 1e-12  # the largest overlap acceptance_error_formula takes: 1 and a rounding slack


def acceptance_error_formula(n, lambda_max) -> float:
    """Worst-case acceptance of a wrong tag under the n-system symmetry test.

    Closed form (1 + (n-1)*lambda^2)/n; n may be real-valued for use inside
    copy-count algebra.
    """
    n, lam = read_value(_REAL_COPIES, n, "copy count"), read_value(_REAL, lambda_max, "overlap")
    if not 0.0 <= lam <= OVERLAP_MAX:
        raise ParameterError(f"overlap {lam!r} outside [0, 1]")
    return _acceptance_error(n, lam)


def _acceptance_error(n, lam):
    return (1.0 + (n - 1.0) * (lam * lam)) / n


def acceptance_error_oracle(n: int, a: PureState, b: PureState) -> float:
    """Same quantity from first principles: <Phi|P_sym|Phi> with
    Phi = a (x) b^(x)(n-1). Independent of the closed form.

    a and b must be PureStates of one dimension d. The caps bound this
    arithmetic's cost, not d**n: d <= 4096 holds for every PureState, and n is
    held to COPY_COUNT's 64 before any amplitude is read. The value is
    perm(G)/n! for the Gram matrix G of the n factors (Harrow,
    arXiv:1308.6595), by Ryser's formula grouped by the column multiplicities
    (1, n-1): the 2n terms
    sum_{s_a<=1, s_b<n} (-1)^(n-s_a-s_b) C(n-1, s_b) (s_a g_aa + s_b g_ab) (s_a g_ba + s_b g_bb)^(n-1)
    are summed in Gaussian integers (``_ints``), real part only since G is
    Hermitian, and divided once: the exact value, correctly rounded.
    """
    n = read_value(COPY_COUNT, n, "copy count")
    for name, state in (("a", a), ("b", b)):
        if not isinstance(state, PureState):
            raise ParameterError(f"{name} must be a PureState, got {type(state).__name__}")
    if a.d != b.d:
        raise ParameterError(f"dimension mismatch: {a.d} vs {b.d}")
    ints, k = _ints(np.concatenate((a.amplitudes, b.amplitudes)))  # a contiguous copy of any view
    u, v = ints[: 2 * a.d], ints[2 * a.d :]
    g_aa, g_bb = sum(map(mul, u, u)), sum(map(mul, v, v))
    g_re = sum(map(mul, u, v))  # g_ab = <a|b> = g_re + i g_im
    g_im = sum(map(mul, u[::2], v[1::2])) - sum(map(mul, u[1::2], v[::2]))
    m, perm = n - 1, 0
    g_bb_m = g_bb**m
    for s in range(n):
        # s_a = 1: Re((g_aa + s g_ab) (g_ba + s g_bb)^m); s_a = 0: Re(s g_ab (s g_bb)^m)
        base_re, tail_re, tail_im = g_re + s * g_bb, 1, 0
        for _ in range(m):  # times g_ba + s g_bb = base_re - i g_im
            tail_re, tail_im = tail_re * base_re + tail_im * g_im, tail_im * base_re - tail_re * g_im
        terms = (g_aa + s * g_re) * tail_re - s * g_im * tail_im - s**n * g_re * g_bb_m
        perm += (-1) ** (m - s) * math.comb(m, s) * terms
    return perm / (math.factorial(n) << 2 * n * k)


def _ints(amps: np.ndarray) -> tuple[list[int], int]:
    """(ints, k): the real and imaginary parts of the C-contiguous complex array
    ``amps``, interleaved, as ints times 2**-k.

    ``np.frexp`` splits each part x exactly into x = f * 2**e with f * 2**53 an
    int below 2**53, so with k = 53 - min(e) each x * 2**k is that int shifted
    left by e - min(e).
    """
    fractions, exponents = np.frexp(amps.view(np.float64))
    low = int(exponents.min())
    mantissas = np.ldexp(fractions, 53).astype(np.int64).tolist()
    return list(map(int.__lshift__, mantissas, (exponents - low).tolist())), 53 - low


def feasibility_threshold(tag_count: int, delta: float) -> float:
    """Largest overlap for which a finite copy count can reach floor + delta, delta in (0, 1/tag_count]."""
    tag_count = read_value(TAG_COUNT, tag_count, "tag count")
    delta = read_value(_REAL, delta, "delta")
    if not 0.0 < delta <= 1.0 / tag_count:
        raise ParameterError(f"delta {delta!r} outside (0, 1/{tag_count}]")
    return _threshold(tag_count, delta)


def _threshold(tag_count: int, delta: float) -> float:
    return math.sqrt(delta * tag_count / (tag_count - 1))


class CopiesRequired(NamedTuple):
    n_real: float
    n_ceil: int


def copies_required(tag_count: int, delta, lambda_max) -> CopiesRequired:
    """Copies needed so the impersonation probability is 1/|T| + delta.

    Solves 1/T + (1 - 1/T) * (1 + (n-1)*lambda^2)/n = 1/T + delta for n.
    Requires lambda_max < sqrt(delta*T/(T-1)); the real solution always
    exceeds T - 2. The ceiling is what a deployment would use.
    """
    threshold = feasibility_threshold(tag_count, delta)
    tag_count, delta, lam = int(tag_count), float(delta), read_value(_REAL, lambda_max, "lambda_max")
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"overlap {lam!r} outside [0, 1]")
    return _copies(tag_count, delta, lam, threshold)


def _copies(tag_count: int, delta: float, lam: float, threshold: float) -> CopiesRequired:
    if lam >= threshold:
        raise DomainError(
            f"overlap {lam} is infeasible: must be below sqrt(delta*T/(T-1)) = {threshold}"
        )
    n_real = (tag_count - 1) * (1.0 - lam * lam) / (delta * tag_count - (tag_count - 1) * (lam * lam))
    if not math.isfinite(n_real):
        raise DomainError(f"copy count n_real = {n_real} is not finite at delta {delta!r}, overlap {lam!r}")
    return CopiesRequired(n_real=n_real, n_ceil=math.ceil(n_real - 1e-9))


class SweepRow(NamedTuple):
    T_size: int
    delta: float
    lambda_max: float
    n_real: float
    n_ceil: int
    P0: float
    key_bits_quantum: float
    key_bits_classical_ref: float


class Crossover(NamedTuple):
    delta_frac: float
    lambda_frac: float
    first_quantum_exceeds_classical: int | None


class Sweep(NamedTuple):
    rows: list[SweepRow]
    crossovers: list[Crossover]


def sweep(
    t_values,
    delta_fracs=(0.5, 1.0),
    lambda_fracs=(0.0, 0.5),
    d: int = 2,
    message_space_size: int = DEFAULT_MESSAGE_SPACE_SIZE,
) -> Sweep:
    """Copy-count and key-budget table over a feasible (|T|, delta, lambda) grid.

    delta = frac/|T| for each delta_frac; lambda = frac * feasibility threshold
    for each lambda_frac (fractions below 1 keep every point feasible). At the
    integer copy count n, P0 = 1/|T| + (1 - 1/|T|) * (1 + (n-1)*lambda^2)/n is
    the impersonation probability. The quantum key budget is |log2(P0)| plus
    the Holevo ceiling (n-1)*log2(d) on what an adversary can learn from the
    transmitted copies (zero at d = 1). The classical reference is the
    Wegman-Carter-style comparator 4*|log2(P0)|*log2(log2(|M|))
    (message_space_size is |M|), which shows the linear-vs-logarithmic gap.
    The handful of fully degenerate points (fewer than 2 systems, or P0 = 1)
    are skipped. The crossovers give, per (delta_frac, lambda_frac) pair in
    grid order, the first |T| of ``t_values`` whose row has a quantum key
    budget above the classical one (None if no row has), read off the rows as
    they are made.

    Every argument is read once: the fractions, d and |M| before the first
    point, each |T| when its points are reached. Before the first point too,
    ``t_values`` must have a length and the grid 1 to MAX_SWEEP_POINTS points.
    """
    delta_fracs = [read_value(_REAL, f, ("delta_fracs", i)) for i, f in enumerate(delta_fracs)]
    lambda_fracs = [read_value(_REAL, f, ("lambda_fracs", i)) for i, f in enumerate(lambda_fracs)]
    try:  # an unsized t_values, or a range longer than sys.maxsize, has no len
        points = len(t_values) * len(delta_fracs) * len(lambda_fracs)
    except (TypeError, OverflowError):
        raise ParameterError("t_values must be a sized collection of tag counts") from None
    if not 1 <= points <= MAX_SWEEP_POINTS:
        raise ParameterError(f"the sweep grid holds {points} points; it must hold 1 to {MAX_SWEEP_POINTS}")
    if any(not 0.0 < f <= 1.0 for f in delta_fracs):
        raise ParameterError("delta fractions must lie in (0, 1]")
    if any(not 0.0 <= f < 1.0 for f in lambda_fracs):
        raise ParameterError("lambda fractions must lie in [0, 1)")
    d = read_value(_DIMENSION, d, "tag dimension")
    if not isinstance(message_space_size, Real) or not 2 < message_space_size < math.inf:
        raise ParameterError(f"message space size must be finite and exceed 2, got {message_space_size!r}")
    log2_d, log2_log2_m = math.log2(d), math.log2(math.log2(message_space_size))
    rows = []
    first: dict = {}  # (delta_frac position, lambda_frac position) -> first crossing |T|
    for t_size in t_values:
        t_size = read_value(TAG_COUNT, t_size, "tag count")
        floor = 1.0 / t_size
        for i, dfrac in enumerate(delta_fracs):
            delta = dfrac / t_size
            if delta == 0.0:
                raise ParameterError(f"delta_fracs[{i}] / |T| = {dfrac!r} / {t_size} underflows to 0")
            threshold = _threshold(t_size, delta)
            for j, lfrac in enumerate(lambda_fracs):
                lam = lfrac * threshold
                copies = _copies(t_size, delta, lam, threshold)
                if copies.n_ceil < 2:
                    continue
                p0 = floor + (1.0 - floor) * _acceptance_error(copies.n_ceil, lam)
                if p0 >= 1.0 - 1e-12:
                    continue
                security_bits = abs(math.log2(p0))
                quantum = security_bits + (copies.n_ceil - 1) * log2_d
                classical = 4.0 * security_bits * log2_log2_m
                if quantum > classical:
                    first.setdefault((i, j), t_size)
                rows.append(SweepRow(t_size, delta, lam, *copies, p0, quantum, classical))
    crossovers = [
        Crossover(dfrac, lfrac, first.get((i, j)))
        for i, dfrac in enumerate(delta_fracs)
        for j, lfrac in enumerate(lambda_fracs)
    ]
    return Sweep(rows, crossovers)
