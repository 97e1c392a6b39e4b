"""Square-root branch for the closed upper half plane.

Every map in this package that takes a square root needs the root lying in
the closed upper half plane, not the principal root: the slit maps and drift
flows must send H = {im z >= 0} into itself.  ``sqrt_h`` is that branch.  On
the nonnegative real axis it agrees with the ordinary real square root, and
the sign of a zero imaginary part decides the side of the cut, so the maps
extend continuously to the negative real axis.  The splitting kernels in
``schemes`` step squares, with one root per map, and apply the same flip
rule to each root: the scalar kernel ``_nv_steps`` inlines it, the lane
kernel ``_nv_lanes`` shares its array form, ``_flip_up``, with
``sqrt_h``, and the array kernel ``_nv_array_step`` folds it into the
noise shift as copysign and abs of the root's parts; the array path of
``nv_step`` takes the step's second root and flips it with
``_flip_up``.  A change to the branch must change them too.
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
        # a fresh array even for a 0-d or complex128 ``w``, so the root
        # and the flip can work in place
        s = w.astype(np.complex128)
        return _flip_up(np.sqrt(s, out=s))
    s = cmath.sqrt(w)
    if s.imag <= 0.0 and copysign(1.0, s.imag) < 0.0:
        s = -s
    return s


def _flip_up(s: np.ndarray) -> np.ndarray:
    """Negate in place each root of complex array ``s`` whose imaginary
    part has its sign bit set; returns ``s``.  The array form of the
    ``sqrt_h`` flip."""
    np.negative(s, out=s, where=np.signbit(s.imag))
    return s
