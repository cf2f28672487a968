"""Helpers that only the tests use: JSON writers for states, operators and
schemes (the inverses of the library's readers), the embedding of a
Curty-Santos instance in the generic scheme framework, the np.kron tensor
product that ``quantum_core.tensor`` is held to bit for bit, the symmetry-test
impersonation probability and key budgets that ``symmetry_test.sweep``'s rows
are held to bit for bit, the symmetry test's closed form in exact rationals
that ``symmetry_test.acceptance_error_oracle`` is held to, the dense
symmetric-subspace route that it is held to within 1e-15, and a call counter
for work-count tests.

The test modules import this file by name; pytest puts ``tests/`` on the
import path because the directory is not a package.
"""

import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np

from authsim.curty_santos import EYE4, CurtySantosInstance
from authsim.qmac_framework import QmacScheme
from authsim.quantum_core import PureState, UnitaryOperator
from authsim.symmetry_test import acceptance_error_formula


def state_to_json_dict(state: PureState) -> dict:
    return {
        "dims": list(state.dims),
        "amplitudes": [[float(z.real), float(z.imag)] for z in state.amplitudes],
    }


def operator_to_json_dict(op) -> dict:
    return {
        "dims": list(op.dims),
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix],
    }


def kron_tensor(factors):
    """Tensor product by a left fold of np.kron, built through the public
    constructor of the factors' kind: the reference for quantum_core.tensor."""
    kind = type(factors[0])
    field = "amplitudes" if kind is PureState else "matrix"
    values = reduce(np.kron, (getattr(f, field) for f in factors))
    return kind(values, tuple(itertools.chain.from_iterable(f.dims for f in factors)))


def impersonation_with_symmetry_test(tag_count: int, lambda_max, n) -> float:
    """Impersonation probability 1/|T| + (1 - 1/|T|) * acceptance error, through
    the checked ``acceptance_error_formula``."""
    floor = 1.0 / tag_count
    return floor + (1.0 - floor) * acceptance_error_formula(n, lambda_max)


def gram_fractions(a: np.ndarray, b: np.ndarray) -> tuple[Fraction, Fraction, Fraction]:
    """(g_aa, g_bb, |g_ab|^2) of two amplitude vectors in exact rationals."""
    fa = [(Fraction(z.real), Fraction(z.imag)) for z in a.tolist()]
    fb = [(Fraction(z.real), Fraction(z.imag)) for z in b.tolist()]
    g_aa, g_bb = (sum(x * x + y * y for x, y in f) for f in (fa, fb))
    g_ab_re = sum(x1 * x2 + y1 * y2 for (x1, y1), (x2, y2) in zip(fa, fb))
    g_ab_im = sum(x1 * y2 - y1 * x2 for (x1, y1), (x2, y2) in zip(fa, fb))
    return g_aa, g_bb, g_ab_re**2 + g_ab_im**2


def closed_form_of_gram(n: int, g_aa: Fraction, g_bb: Fraction, g_ab_squared: Fraction) -> Fraction:
    """(g_aa g_bb^(n-1) + (n-1)|g_ab|^2 g_bb^(n-2))/n: the (1 + (n-1) lambda^2)/n of
    the paper for states whose norms are not exactly 1, from ``gram_fractions``."""
    return (g_aa * g_bb ** (n - 1) + (n - 1) * g_ab_squared * g_bb ** (n - 2)) / n


def closed_form_with_norms(n: int, a: np.ndarray, b: np.ndarray) -> Fraction:
    """``closed_form_of_gram`` of two amplitude vectors, in exact rationals."""
    return closed_form_of_gram(n, *gram_fractions(a, b))


def reference_symmetrize(t: np.ndarray, n: int) -> np.ndarray:
    """The symmetric-subspace projector applied to the first n axes of t
    without being formed: the coset recursion
    Sym_{k+1} = 1/(k+1) * sum_{j<=k} (j k) Sym_k (Harrow, arXiv:1308.6595),
    copy then add then divide at each level. Axes past the first n are carried
    along; t itself is not modified."""
    for k in range(1, n):
        acc = t.copy()
        for j in range(k):
            acc += np.swapaxes(t, j, k)
        acc /= k + 1
        t = acc
    return t


def key_length_requirement(epsilon: float, n: int, d: int, message_space_size) -> tuple[float, float]:
    """(quantum, classical) key bits for forgery probability epsilon with n-system
    tags of dimension d: |log2(epsilon)| plus the Holevo term (n-1)*log2(d), and
    the comparator 4*|log2(epsilon)|*log2(log2(|M|))."""
    security_bits = abs(math.log2(epsilon))
    info_gain = (n - 1) * math.log2(d)
    classical = 4.0 * security_bits * math.log2(math.log2(message_space_size))
    return security_bits + info_gain, classical


def _label_to_str(label) -> str:
    if isinstance(label, tuple):
        return ",".join(str(part) for part in label)
    return str(label)


def scheme_to_json_dict(scheme: QmacScheme) -> dict:
    """Explicit tables: label per (key, message) plus unitary per label.

    Labels are canonicalized to strings; loading the document back yields an
    equivalent scheme whose labels are those strings.
    """
    names = [_label_to_str(label) for label in scheme.labels]
    label_table = [[names[row[ki]] for row in scheme.index] for ki in range(len(scheme.key_set))]
    used = set(names)
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


class CallCounter:
    """Counts the calls of module attributes replaced through monkeypatch."""

    def __init__(self, monkeypatch):
        self.monkeypatch, self.calls = monkeypatch, {}

    def count(self, module, name):
        """Count calls through ``module.name``; one name counted in two modules shares a tally."""
        original = getattr(module, name)
        self.calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(module, name, wrapper)
