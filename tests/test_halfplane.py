"""Branch behavior of the upper-half-plane square root."""

import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slesim.schemes import sqrt_h


def test_principal_branch_untouched():
    assert sqrt_h(4.0) == 2.0 + 0.0j
    assert sqrt_h(2j) == 1.0 + 1.0j


def test_negative_real_axis():
    # cmath.sqrt(-4) is already 2j; the flip must not undo that
    assert sqrt_h(-4.0) == 2j
    assert sqrt_h(complex(-4.0, 0.0)) == 2j


def test_negative_zero_imag_part():
    # -4 - 0j sits on the branch cut from below; principal sqrt gives -2j
    # and the flip must bring it back up
    w = complex(-4.0, -0.0)
    assert sqrt_h(w) == 2j
    # 4 - 0j is read as a limit from below the positive axis, where the
    # root in the upper half plane tends to -2, as (-2 + 0j) ** 2 = 4 - 0j
    # requires
    assert sqrt_h(complex(4.0, -0.0)) == -2.0
    assert sqrt_h(np.array([complex(4.0, -0.0)]))[0] == -2.0


def test_lower_half_argument():
    # principal sqrt of -2i is 1 - i (lower half); flipped to -1 + i
    assert sqrt_h(-2j) == complex(-1.0, 1.0)


def test_array_matches_scalar_bitwise():
    rng = np.random.default_rng(11)
    w = rng.normal(size=400) + 1j * rng.normal(size=400)
    w = np.concatenate([w, -np.abs(rng.normal(size=100)) + 0j])
    vec = sqrt_h(w)
    for i in range(len(w)):
        s = sqrt_h(complex(w[i]))
        assert s.real == vec[i].real and s.imag == vec[i].imag


finite = st.floats(min_value=-1e8, max_value=1e8,
                   allow_nan=False, allow_infinity=False)


@given(finite, finite)
def test_is_a_square_root(x, y):
    w = complex(x, y)
    s = sqrt_h(w)
    assert abs(s * s - w) <= 1e-9 * (1.0 + abs(w))


@given(finite, finite)
def test_lands_in_closed_upper_half_plane(x, y):
    s = sqrt_h(complex(x, y))
    assert s.imag >= 0.0
    # a root on the real axis lies on the nonnegative ray, unless the sign
    # bit of im(w) reads w as a limit from below the axis: then it lies on
    # the nonpositive ray
    if s.imag == 0.0:
        assert np.signbit(s.real) == np.signbit(y)


@given(st.floats(min_value=-50, max_value=50),
       st.floats(min_value=1e-6, max_value=50),
       st.floats(min_value=0, max_value=25))
def test_drift_flow_pushes_up(x, y, t):
    # im sqrt_h(z^2 - 4t) is nondecreasing in t for z in the open upper
    # half plane: the backward drift moves points away from the line
    z = complex(x, y)
    lifted = sqrt_h(z * z - 4.0 * t)
    assert lifted.imag >= z.imag - 1e-9 * (1.0 + abs(z))


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=16))
def test_principal_root_never_has_a_negative_real_part(parts):
    # sqrt_h and the inlined flip in schemes._nv_steps negate the root
    # exactly when the sign bit of its imaginary part is set; a root left
    # alone never lands on the negative ray because the principal root's
    # real part never carries a sign bit, for finite values, signed zeros,
    # infinities and NaN alike
    w = [complex(x, y) for x, y in parts]
    for s in [cmath.sqrt(v) for v in w] + np.sqrt(np.array(w)).tolist():
        assert not np.signbit(s.real)


def test_rejects_strings():
    with pytest.raises(TypeError):
        sqrt_h("nope")
