"""Property tests (hypothesis): simulator invariants over generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qmlfinder.simulator import Gate, gate_matrix

from oracles import product_rot

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rot_angles(draw):
    """Three angles, each a Python float, numpy scalar, 0-d array or (n,) array."""
    n = draw(st.integers(0, 4))
    angle = st.one_of(
        FINITE,
        FINITE.map(np.float64),
        hnp.arrays(np.float64, (), elements=FINITE),
        hnp.arrays(np.float64, (n,), elements=FINITE),
    )
    return draw(angle), draw(angle), draw(angle)


@settings(deadline=None)
@given(rot_angles())
def test_rot_matrix_equals_the_product_form_bit_for_bit(angles):
    got, want = gate_matrix(Gate("ROT", (0,), angles)), product_rot(*angles)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got, want)
