"""One-step integrators for the backward radial SDE on the half plane.

The equation has two equivalent forms:

    unit_noise    dZ = -(2/kappa) / Z dt + dB
    scaled_noise  dZ = -2 / Z dt + sqrt(kappa) dB

They are linked by Brownian scaling: stepping scaled_noise from z and
dividing by sqrt(kappa) equals stepping unit_noise from z / sqrt(kappa)
with the same increments.  Both split into two exactly solvable flows: the
drift flow z -> sqrt_h(z^2 - 4t) (for drift -2/z) and the noise flow
z -> z + sqrt(kappa) u.  The Strang composition of those flows collapses
to one closed form, ``nv_step``, which takes either form and is measure
preserving in the sense that E[Z^2] moves exactly by (kappa - 4) h per
step in the scaled_noise form.

``euler_step``, ``taylor_step`` and ``reference_solve`` step the
unit_noise form, the one in which :mod:`slesim.vfalgebra` writes the
vector fields (drift strength a = 2/kappa).  ``taylor_step`` assembles the
truncated stochastic Taylor sum sum_I (V_I Id)(z) * X^I over words I,
with the operator monomials from :mod:`slesim.vfalgebra` and the
Stratonovich integrals X^I from :mod:`slesim.integrals`.
"""

from __future__ import annotations

import cmath
import functools
from math import copysign, sqrt

import numpy as np

from .brownian import BrownianPath
from .halfplane import sqrt_h
from .integrals import IteratedIntegralTable
from .vfalgebra import LEVEL_CAP, enumerate_level, eval_term

__all__ = [
    "UNIT_NOISE",
    "SCALED_NOISE",
    "REFERENCE_RTOL",
    "flow_drift",
    "flow_noise",
    "nv_step",
    "euler_step",
    "taylor_step",
    "reference_solve",
]

UNIT_NOISE = "unit_noise"
SCALED_NOISE = "scaled_noise"

# Default relative tolerance for "doubling the substeps no longer moves the
# reference"; callers measuring a small error should tighten or rescale it
# to the size of the quantity they resolve.
REFERENCE_RTOL = 1e-8


def flow_drift(z, t):
    """Exact drift flow exp(t V0) z = sqrt_h(z^2 - 4t) for V0 = -2/z.

    Maps the closed upper half plane into itself and never lowers the
    imaginary part.  Accepts scalars or arrays.
    """
    if t < 0.0:
        raise ValueError("flow time must be nonnegative")
    return sqrt_h(z * z - 4.0 * t)


def flow_noise(z, u, kappa):
    """Exact noise flow z + sqrt(kappa) u (horizontal translation)."""
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    return z + sqrt(kappa) * u


def nv_step(z, h, dB, kappa, convention: str = SCALED_NOISE):
    """Strang splitting step in closed form.

    For the default scaled_noise equation this is

        sqrt_h((sqrt_h(z^2 - 2h) + sqrt(kappa) dB)^2 - 2h),

    identical to flow_drift(h/2) then flow_noise(dB) then flow_drift(h/2);
    for unit_noise the drift strength is 2/kappa, giving

        sqrt_h((sqrt_h(z^2 - 2h/kappa) + dB)^2 - 2h/kappa).

    Accepts scalars or arrays for z and dB.
    """
    if h < 0.0:
        raise ValueError("step size must be nonnegative")
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if convention == SCALED_NOISE:
        c = 2.0 * h
        y = sqrt_h(z * z - c) + sqrt(kappa) * dB
    elif convention == UNIT_NOISE:
        if kappa == 0.0:
            raise ValueError("unit_noise requires kappa > 0")
        c = 2.0 * h / kappa
        y = sqrt_h(z * z - c) + dB
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return sqrt_h(y * y - c)


def _nv_steps(z: complex, cs, ds) -> complex:
    """``nv_step`` applied once per pair of ``cs`` and ``ds``, in order.

    Each step is z -> sqrt_h((sqrt_h(z^2 - c) + d)^2 - c), with c the
    drift time (2h, or 2h/kappa for unit_noise) and d the noise
    displacement (sqrt(kappa) dB, or dB).  The same scalar operations as
    ``nv_step`` with the ``sqrt_h`` flip inlined (the root is negated
    exactly when the sign bit of its imaginary part is set), so bit for
    bit equal to a loop of ``nv_step`` calls, without a call per step.
    """
    _sqrt, _copysign = cmath.sqrt, copysign
    for c, d in zip(cs, ds):
        # copysign is called only for a zero imaginary part, so the
        # common cases pay one or two comparisons and no call
        s = _sqrt(z * z - c)
        im = s.imag
        if im <= 0.0 and (im < 0.0 or _copysign(1.0, im) < 0.0):
            s = -s
        y = s + d
        z = _sqrt(y * y - c)
        im = z.imag
        if im <= 0.0 and (im < 0.0 or _copysign(1.0, im) < 0.0):
            z = -z
    return z


def euler_step(z, h, dB, kappa: float):
    """One Euler-Maruyama step of the unit_noise equation; with constant
    diffusion this is also the Milstein step.  Has a pole at z = 0."""
    if h < 0.0:
        raise ValueError("step size must be nonnegative")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return z - (2.0 / kappa) / z * h + dB


@functools.cache
def _truncation_terms(r: int) -> tuple:
    """The nonzero (word, composed term) pairs of length <= r, composed once.

    Words are in deterministic (lexicographic within length) order.  No
    table holds a word longer than LEVEL_CAP, so a cutoff past it is
    refused before any word is composed.
    """
    if r > LEVEL_CAP:
        raise ValueError(f"truncation level {r} needs words longer than "
                         f"LEVEL_CAP = {LEVEL_CAP}")
    return tuple((word, term) for n in range(r + 1)
                 for word, term in enumerate_level(n) if not term.is_zero())


def taylor_step(z, table: IteratedIntegralTable, r: int,
                kappa: float) -> complex:
    """Truncated stochastic Taylor approximation of the unit_noise equation
    over one interval.

    Sums (V_I Id)(z) X^I_{0,t} over words I with length <= r.  At r = 1
    this is exactly the Euler step on the interval's increment.

    Args:
        z: expansion point, im(z) >= 0 away from the pole at 0.
        table: integrals over the step interval, of depth >= r.
        r: truncation level, 0 <= r <= LEVEL_CAP.
        kappa: SLE parameter, > 0.
    """
    if r < 0:
        raise ValueError("truncation level must be nonnegative")
    z = complex(z)
    total = 0j
    for word, term in _truncation_terms(r):
        try:
            entry = table.entries[word]
        except KeyError:
            raise ValueError(
                f"table depth {table.depth} too shallow for word {word}"
            ) from None
        total += eval_term(term, z, kappa) * entry
    return total


def reference_solve(z0, path: BrownianPath, t: float, kappa: float) -> complex:
    """Fine-grid splitting solution of the unit_noise equation, used as
    ground truth.

    Steps the unit_noise splitting map of ``nv_step`` across every sample
    interval of ``path`` inside [0, t].  Convergence is the caller's
    check: refine the path (midpoint passes), solve again, and require
    the two answers to agree, by default to REFERENCE_RTOL relative.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    stop = path.index_of(t)
    # one float64 ufunc per scalar operation of nv_step: the same roundings
    h = np.diff(path.times[:stop + 1])
    dB = np.diff(path.values[:stop + 1])
    return _nv_steps(complex(z0), (2.0 * h / kappa).tolist(), dB.tolist())
