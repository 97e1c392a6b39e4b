"""Square-root branch for the closed upper half plane.

Every map in this package that takes a square root needs the root lying in
the closed upper half plane, not the principal root: the slit maps and drift
flows must send H = {im z >= 0} into itself.  ``sqrt_h`` is that branch.  On
the nonnegative real axis it agrees with the ordinary real square root.  The
scalar splitting kernel ``schemes._nv_steps`` inlines the same flip rule, so
a change to the branch must change both.
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = ["sqrt_h"]


def sqrt_h(w):
    """Square root of ``w`` with nonnegative imaginary part.

    Accepts a scalar (returns ``complex``) or a numpy array (elementwise).
    The principal root already lies in the closed upper half plane unless
    ``w`` sits strictly below the real axis or on the cut approached from
    below, so it is computed stably by the C library and flipped in sign
    where needed.  The flip is exact, so ``sqrt_h(w) ** 2`` recovers ``w``
    to the same rounding as the principal root.

    Args:
        w: complex scalar or array.

    Returns:
        Root ``s`` with ``s*s == w`` (to rounding) and ``im(s) >= 0``;
        for real ``w >= 0`` the nonnegative real root.
    """
    if isinstance(w, np.ndarray):
        s = np.sqrt(w.astype(np.complex128, copy=False))
        # The principal root never has a negative real part (not even
        # -0.0), so it needs flipping exactly when it lies strictly below
        # the axis.
        return np.where(s.imag < 0.0, -s, s)
    s = cmath.sqrt(w)
    if s.imag < 0.0:
        s = -s
    return s
