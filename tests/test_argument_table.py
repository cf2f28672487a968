"""Which values each scalar library argument accepts, pinned case by case.

Every count and real number a library call takes is read by ``spec.read_value``
with a ``Field``, the reader that also reads config keys and CLI flags. This
table calls each such argument with one value of each kind (ints at and past
the bounds, bools, floats, numpy scalars, ``Fraction``, strings, ``None``,
``10**400``, NaN, infinities and the smallest subnormal) and pins the outcome
class: ``ok``, ``ParameterError`` (``DomainError`` included) or the name of any
other exception. Every other argument of the call is a valid value, and a
lazy entry point is asked for its first item only. ``sweep`` reads ``d`` and
the message-space size before its first point, so they are also called on a
grid whose every point is skipped, with the same outcomes; a projective
decision rule takes no copy count, so there only ``None`` is ``ok``.

The integer counts that the closed forms turn into floats (a pair count, a
tag count, an integer copy count, a ``sweep`` tag size) are bounded by the
largest float, as a real copy count is, so ``10**400`` is a ``ParameterError``
there and no value that works is rejected; a tag dimension stays unbounded,
as ``log2`` takes any int. A block count is bounded before ``p**blocks`` is
formed, and the shape of a random scheme or ensemble and a count of Haar
unitaries by the work they ask for, before anything is built, so every value
runs against every entry point.

A numpy integer is read as the Python int it holds, so it has that int's
outcome everywhere (``TWINS``) and no arithmetic on it can wrap; a numpy bool
is rejected wherever a bool is.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from authsim import classical_mac, qmac_framework, quantum_core, symmetry_test
from authsim.errors import ParameterError

VALUES = {
    "0": 0, "1": 1, "2": 2, "3": 3, "-1": -1, "9": 9, "4097": 4097, "2**64": 2**64, "10**400": 10**400,
    "True": True, "False": False,
    "0.5": 0.5, "2.0": 2.0, "2.5": 2.5, "-0.5": -0.5, "5e-324": 5e-324,
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "np.int64(2)": np.int64(2), "np.float64(0.5)": np.float64(0.5), "np.float32(0.5)": np.float32(0.5),
    "np.int64(0)": np.int64(0), "np.bool_(True)": np.bool_(True), "np.bool_(False)": np.bool_(False),
    "Fraction(1, 2)": Fraction(1, 2), "Fraction(2)": Fraction(2),
    "'2'": "2", "None": None,
}


def _rng():
    return np.random.default_rng(0)


def _scheme(multiplicity):
    return qmac_framework.QmacScheme(
        (0, 1), (0, 1), lambda k, m: (k, m), {}, quantum_core.basis_state(0, (2,)), multiplicity
    )


def _oracle(n):
    a, b = quantum_core.basis_state(0, (2,)), quantum_core.basis_state(1, (2,))
    return symmetry_test.acceptance_error_oracle(n, a, b)


def _reports(**shape):
    shape = dict(count=2, dim=2, num_keys=2, num_messages=2) | shape
    return next(qmac_framework.random_scheme_reports(_rng(), **shape))


_COUNTS = ("1", "2", "3", "9", "4097", "2**64", "10**400")
_SMALL = ("1", "2", "3", "9")
_REALS = ("0.5", "np.float64(0.5)", "np.float32(0.5)", "Fraction(1, 2)")
_REAL_COPIES = ("1", "2", "3", "9", "4097", "2**64", "2.0", "2.5", "np.int64(2)", "Fraction(2)")
_OVERLAPS = ("0", "1", "5e-324") + _REALS
_SIZES = ("3", "9", "4097", "2**64", "10**400", "2.5")

# entry point.argument -> (call with the value, the value ids it accepts)
ENTRY_POINTS = {
    "HashFamily.key_space_size": (
        lambda v: classical_mac.HashFamily(v, (0, 1), (0,), lambda k, m: 0, classical_mac.FamilyKind.CUSTOM), _COUNTS
    ),
    "make_affine_family.p": (classical_mac.make_affine_family, ("2", "3")),
    "make_poly_family.p": (lambda v: classical_mac.make_poly_family(v, 2), ("2", "3")),
    "make_poly_family.blocks": (lambda v: classical_mac.make_poly_family(3, v), _SMALL),
    "key_length_lower_bound.observed_pairs": (
        lambda v: classical_mac.key_length_lower_bound(v, Fraction(1, 2)), ("0",) + _COUNTS[:-1]
    ),
    "key_length_lower_bound.epsilon": (
        lambda v: classical_mac.key_length_lower_bound(1, v), ("1", "5e-324") + _REALS
    ),
    "QmacScheme.multiplicity": (_scheme, _COUNTS),
    "DecisionRule.copies": (lambda v: qmac_framework.DecisionRule("symmetry-test", v), _COUNTS[1:-1]),
    "DecisionRule.copies (projective)": (lambda v: qmac_framework.DecisionRule("projective", v), ("None",)),
    "random_scheme.dim": (lambda v: qmac_framework.random_scheme(_rng(), v, 2, 2), _SMALL),
    "random_scheme.num_keys": (lambda v: qmac_framework.random_scheme(_rng(), 2, v, 2), _SMALL),
    "random_scheme.num_messages": (lambda v: qmac_framework.random_scheme(_rng(), 2, 2, v), _SMALL[1:] + ("4097",)),
    "random_scheme_reports.count": (lambda v: _reports(count=v), _COUNTS[:-2]),
    "random_scheme_reports.dim": (lambda v: _reports(dim=v), _SMALL),
    "random_scheme_reports.num_keys": (lambda v: _reports(num_keys=v), _SMALL),
    "random_scheme_reports.num_messages": (lambda v: _reports(num_messages=v), _SMALL[1:] + ("4097",)),
    "symmetric_projector.d": (lambda v: quantum_core.symmetric_projector(v, 2), _SMALL),
    "symmetric_projector.n": (lambda v: quantum_core.symmetric_projector(2, v), ("1", "2", "3", "9")),
    "haar_unitaries.count": (lambda v: quantum_core.haar_unitaries(v, 2, _rng()), _COUNTS[:-2]),
    "acceptance_error_formula.n": (lambda v: symmetry_test.acceptance_error_formula(v, 0.5), _REAL_COPIES),
    "acceptance_error_formula.lambda_max": (lambda v: symmetry_test.acceptance_error_formula(2, v), _OVERLAPS),
    "acceptance_error_oracle.n": (_oracle, ("1", "2", "3", "9")),
    "feasibility_threshold.tag_count": (lambda v: symmetry_test.feasibility_threshold(v, 0.001), ("2", "3", "9")),
    "feasibility_threshold.delta": (lambda v: symmetry_test.feasibility_threshold(2, v), ("5e-324",) + _REALS),
    "copies_required.tag_count": (lambda v: symmetry_test.copies_required(v, 0.001, 0.0), ("2", "3", "9")),
    "copies_required.delta": (lambda v: symmetry_test.copies_required(2, v, 0.0), _REALS),
    "copies_required.lambda_max": (lambda v: symmetry_test.copies_required(2, 0.5, v), ("0", "5e-324") + _REALS),
    "sweep.t_values": (lambda v: symmetry_test.sweep([v]), _COUNTS[1:-1]),
    "sweep.delta_fracs": (lambda v: symmetry_test.sweep([4], [v]), ("1",) + _REALS),
    "sweep.lambda_fracs": (lambda v: symmetry_test.sweep([4], [0.5], [v]), ("0", "5e-324") + _REALS),
    "sweep.d": (lambda v: symmetry_test.sweep([4], d=v), _COUNTS),
    "sweep.message_space_size": (lambda v: symmetry_test.sweep([4], message_space_size=v), _SIZES),
    # |T| = 2 with delta = 1/|T| solves to a single system: the grid has no row
    "sweep.d (no rows)": (lambda v: symmetry_test.sweep([2], [1.0], [0.0], d=v), _COUNTS),
    "sweep.message_space_size (no rows)": (
        lambda v: symmetry_test.sweep([2], [1.0], [0.0], message_space_size=v), _SIZES
    ),
}
# a numpy integer -> the Python int whose outcome it has
TWINS = {"np.int64(2)": "2", "np.int64(0)": "0"}
CASES = [(entry, value) for entry in ENTRY_POINTS for value in VALUES]


def outcome(call, value) -> str:
    try:
        call(value)
    except ParameterError:
        return "ParameterError"
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc).__name__
    return "ok"


@pytest.mark.parametrize("entry,value", CASES)
def test_outcome_class(entry, value):
    call, accepted = ENTRY_POINTS[entry]
    expected = "ok" if value in accepted or TWINS.get(value) in accepted else "ParameterError"
    assert outcome(call, VALUES[value]) == expected


def test_table_covers_every_value_kind():
    assert len(CASES) == 986
    assert all(set(accepted) <= set(VALUES) for _, accepted in ENTRY_POINTS.values())
