"""Square-root branch for the closed upper half plane.

Every map in this package that takes a square root needs the root lying in
the closed upper half plane, not the principal root: the slit maps and drift
flows must send H = {im z >= 0} into itself.  ``sqrt_h`` is that branch.  On
the nonnegative real axis it agrees with the ordinary real square root, and
the sign of a zero imaginary part decides the side of the cut, so the maps
extend continuously to the negative real axis.  The scalar splitting kernel
``schemes._nv_steps`` inlines the same flip rule, so a change to the branch
must change both.
"""

from __future__ import annotations

import cmath
from math import copysign

import numpy as np

__all__ = ["sqrt_h"]


def sqrt_h(w):
    """Square root of ``w`` with nonnegative imaginary part.

    Accepts a scalar (returns ``complex``) or a numpy array (elementwise).
    The principal root is computed stably by the C library and negated
    exactly when the sign bit of its imaginary part is set, which is when
    ``w`` lies below the real axis or carries a ``-0.0`` imaginary part.
    The flip is exact, so ``sqrt_h(w) ** 2`` recovers ``w`` to the same
    rounding as the principal root.

    The ``-0.0`` rule is what keeps the maps continuous up to the negative
    real axis: for real ``x < 0``, ``(x + 0j) ** 2`` has imaginary part
    ``-0.0``, and the root of ``(x + 0j) ** 2 - c`` must then be the limit
    from the upper half plane, which is ``x``'s side of the axis.  An
    argument ``w`` whose imaginary part is ``-0.0`` is out of scope as a
    point in its own right: it is read as a limit from below the axis, so
    ``sqrt_h(complex(4.0, -0.0))`` is ``-2``, not ``2``.

    Args:
        w: complex scalar or array.

    Returns:
        Root ``s`` with ``s*s == w`` (to rounding) and ``im(s) >= 0``;
        for real ``w >= 0`` with a ``+0.0`` imaginary part the
        nonnegative real root.
    """
    if isinstance(w, np.ndarray):
        s = np.sqrt(w.astype(np.complex128, copy=False))
        return np.where(np.signbit(s.imag), -s, s)
    s = cmath.sqrt(w)
    if s.imag <= 0.0 and copysign(1.0, s.imag) < 0.0:
        s = -s
    return s
