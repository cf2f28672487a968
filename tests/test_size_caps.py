"""Each entry point that allocates from a size argument checks the size first.

An oversized dimension or family table is a ``ParameterError`` raised before
anything is allocated or drawn, not a ``MemoryError`` from the allocation:
``quantum_core._resolve_dims`` holds every state, operator, builder and
tensor product to ``MAX_TOTAL_DIMENSION``, and ``classical_mac._poly_g`` holds
the ``|M| x p`` table of both built-in families to ``MESSAGE_SPACE_CAP``.
"""

import tracemalloc

import numpy as np
import pytest

from authsim import classical_mac, quantum_core
from authsim.classical_mac import make_affine_family, make_poly_family
from authsim.errors import ParameterError
from authsim.quantum_core import PureState, basis_state, haar_unitaries, random_state, tensor
from testkit import CallCounter

DIMENSION = r"^total dimension {} exceeds cap 4096$"
TABLE = r"^family table p\*\*blocks \* p = {} exceeds cap 1048576$"
AMPLITUDES_4097 = np.eye(1, 4097, dtype=complex)[0]
STATE_65 = basis_state(0, (65,))

# (call on a fresh generator, message): the size each would allocate is in its comment
OVERSIZED = {
    "basis-state": (lambda rng: basis_state(0, (2**40,)), DIMENSION.format(2**40)),  # 16 TiB
    "random-state": (lambda rng: random_state((2**40,), rng), DIMENSION.format(2**40)),  # 16 TiB of normals
    "pure-state": (lambda rng: PureState(AMPLITUDES_4097), DIMENSION.format(4097)),
    "haar-unitaries": (lambda rng: haar_unitaries(1, 4097, rng), DIMENSION.format(4097)),  # 256 MiB of normals
    "tensor": (lambda rng: tensor([STATE_65, STATE_65]), DIMENSION.format(65 * 65)),
    "affine-family": (lambda rng: make_affine_family(1048573), TABLE.format(1048573**2)),  # 8 TiB
    "affine-family-1031": (lambda rng: make_affine_family(1031), TABLE.format(1031**2)),  # 8 MiB
    # 2**20 messages, at the old message-space cap: a 16 MiB table and 2**20 tuples
    "poly-family": (lambda rng: make_poly_family(2, 20), TABLE.format(2**21)),
}


@pytest.mark.parametrize("call,message", OVERSIZED.values(), ids=OVERSIZED)
def test_oversized_size_rejected_before_allocating(call, message, monkeypatch):
    # a family past its cap must build no message tuple, and a product past the cap no Kronecker factor
    monkeypatch.setattr(classical_mac.itertools, "product", None)
    counter = CallCounter(monkeypatch)
    counter.count(quantum_core, "_kron")
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=message):
            call(rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert rng.bit_generator.state == before
    assert counter.calls == {"_kron": 0}


def test_largest_affine_family_under_the_table_cap_is_built():
    assert make_affine_family(1021).g.shape == (1021, 1021)  # 1021**2 <= 2**20 < 1031**2
