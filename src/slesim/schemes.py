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

Every decision about how that closed form is stepped lives here, in three
kernels: ``_nv_steps`` (one chain, scalar), ``_nv_lanes`` (many chains in
lock step) and ``_nv_array_step`` (one step of many lanes, in place).  The
drift flow is a translation of W = z^2 by -4t, so all three step squares,
w -> (sqrt_h(w - c) + d)^2 - c, with one root per map; a chain takes one
more root at its end.  ``nv_step`` is one step of ``_nv_steps``, or of
``_nv_array_step`` followed by that last root;
``_reference_rows`` solves a block of references on ``_nv_steps`` or
``_nv_lanes``, and ``reference_solve`` is its one-driver case.  The public
flows stay an independent oracle for all of them.  A real-typed start x is
read as complex(x, 0.0), whose square carries the -0.0 that puts x < 0 on
its own side of the cut.

The branch every root takes lives here too: ``sqrt_h`` negates the
principal root exactly when the sign bit of its imaginary part is set.
Each form of that flip is written once: the scalar flip in ``sqrt_h``,
the array flip in ``_flip_up``, the scalar fold into the noise shift
(d - s is (-s) + d bit for bit, decided on the root's argument, whose
sign the root shares) inline in ``_nv_steps``' loop, and the
array fold in ``_shift_up``, which ``_nv_array_step`` and ``_nv_lanes``
share.

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
from .integrals import IteratedIntegralTable
from .vfalgebra import (_check_kappa, _check_level, _check_nonnegative,
                        _check_positive, enumerate_level, eval_term)

__all__ = [
    "sqrt_h",
    "UNIT_NOISE",
    "SCALED_NOISE",
    "flow_drift",
    "flow_noise",
    "nv_step",
    "euler_step",
    "taylor_step",
    "reference_solve",
]

UNIT_NOISE = "unit_noise"
SCALED_NOISE = "scaled_noise"


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


def _shift_up(s: np.ndarray, d, out: np.ndarray) -> None:
    """Write ``sqrt_h``'s flip of the principal roots ``s``, plus ``d``,
    into ``out``, which may be ``s``.

    The array fold of the flip: the real part copysign(re, im) + d and the
    imaginary part |im| are the bits of (-s) + d when the sign bit of im
    is set and of s + d when not, as a principal root's real part has a
    clear sign bit.
    """
    out_re = out.real
    np.copysign(s.real, s.imag, out=out_re)
    np.add(out_re, d, out=out_re)
    np.absolute(s.imag, out=out.imag)


def flow_drift(z, t):
    """Exact drift flow exp(t V0) z = sqrt_h(z^2 - 4t) for V0 = -2/z.

    Maps the closed upper half plane into itself and never lowers the
    imaginary part.  Accepts scalars or arrays; a real-typed z is read as
    complex(z, 0.0) and squared in complex128.
    """
    _check_nonnegative("flow time t", t)
    z = complex(z) if np.ndim(z) == 0 else np.asarray(z, np.complex128)
    return sqrt_h(z * z - 4.0 * t)


def flow_noise(z, u, kappa):
    """Exact noise flow z + sqrt(kappa) u (horizontal translation)."""
    _check_nonnegative("kappa", kappa)
    return z + sqrt(kappa) * u


def nv_step(z, h, dB, kappa, convention: str = SCALED_NOISE):
    """Strang splitting step in closed form.

    For the default scaled_noise equation this is

        sqrt_h((sqrt_h(z^2 - 2h) + sqrt(kappa) dB)^2 - 2h),

    identical to flow_drift(h/2) then flow_noise(dB) then flow_drift(h/2);
    for unit_noise the drift strength is 2/kappa, giving

        sqrt_h((sqrt_h(z^2 - 2h/kappa) + dB)^2 - 2h/kappa).

    Accepts scalars or arrays for z and dB; a real-typed z is read as
    complex(z, 0.0).  Scalars take ``_nv_steps`` over the one step
    ``(c, d)``, c the drift time and d the noise displacement.  When
    either is an array, every element is a lane of one
    ``_nv_array_step`` call over a complex128 buffer of the broadcast
    shape made here; z is broadcast into it and squared there, so a
    scalar z gives the bits of the array of its copies.  The step's
    second root is then taken and flipped in the same buffer, once.

    Raises:
        ValueError: h is not finite and >= 0, or kappa is not finite and
            >= 0 (> 0 for unit_noise).
    """
    _check_nonnegative("step size h", h)
    if convention == SCALED_NOISE:
        _check_nonnegative("kappa", kappa)
        c = 2.0 * h
        dB = sqrt(kappa) * dB
    elif convention == UNIT_NOISE:
        _check_positive("kappa", kappa)
        c = 2.0 * h / kappa
    else:
        raise ValueError(f"unknown convention {convention!r}")
    if np.ndim(z) == np.ndim(dB) == 0:
        # a float noise keeps the kernel in CPython's complex arithmetic
        return _nv_steps(complex(z), ((c, float(dB)),))
    square = np.empty(np.broadcast_shapes(np.shape(z), np.shape(dB)),
                      dtype=np.complex128)
    square[...] = z
    np.multiply(square, square, out=square)
    _nv_array_step(square, c, dB)
    # the root of y*y - c, the second root of the step
    return _flip_up(np.sqrt(square, out=square))


def _nv_array_step(square, c, d) -> int:
    """One ``nv_step`` of many lanes, stepped as their squares, in place.

    ``square`` is a complex128 array holding W = Z^2 for each lane; ``c``
    is the drift time (2h, or 2h/kappa for unit_noise) and ``d`` the
    noise displacements, real and broadcastable to its shape.  The drift
    flow of -2/z translates W by -4t and the noise flow translates Z, so
    a step is w -> (sqrt_h(w - c) + d)^2 - c: one root per lane.  The
    root's ``sqrt_h`` flip folds into the noise shift, ``_shift_up``.

    On return ``square`` holds y*y - c, y being the shifted root: the
    next step's W, and the argument of this step's second root in Z.  A
    caller that wants the lanes takes that root itself,
    ``_flip_up(np.sqrt(square))``, which equals the flows flow_drift(h/2),
    flow_noise, flow_drift(h/2) on the same arrays bit for bit; only a
    NaN, which float64 overflow can make, may carry another sign bit.

    Every pass writes over ``square``, so nothing is allocated; a caller
    that wants the lanes in cache hands over a block of them.  Returns
    the number of lanes stepped, which is the number of complex roots
    taken.
    """
    np.subtract(square, c, out=square)
    np.sqrt(square, out=square)
    # y = the flipped root + d
    _shift_up(square, d, square)
    np.multiply(square, square, out=square)
    np.subtract(square, c, out=square)
    return square.size


def _nv_steps(z: complex, steps) -> complex:
    """``nv_step`` applied once per ``(c, d)`` pair of ``steps``, in
    order, stepped as the square W = z^2.

    c is the drift time (2h, or 2h/kappa for unit_noise) and d the noise
    displacement (sqrt(kappa) dB, or dB).  The drift flow of -2/z
    translates W by -4t and the noise flow translates z, so each step is
    w -> (sqrt_h(w - c) + d)^2 - c, one root, and the chain is

        w = z * z;  per step y = sqrt_h(w - c) + d, w = y * y - c;
        then sqrt_h(w).

    A chain of no steps returns ``z`` as it is.  The scalar NV kernel:
    the scalar path of ``nv_step`` is one of its steps, whose operations
    are those of the closed form in z, and a trace chain and
    ``_reference_rows`` run it over many.  ``steps`` is any iterable of
    pairs, walked once, so a trace hands over its own list of steps,
    reversed.  The ``sqrt_h`` flip (negate the root exactly when the
    sign bit of its imaginary part is set) of each step's root folds
    into the noise shift, as d - s is (-s) + d bit for bit, and is
    decided on the root's argument v = w - c before the root is taken:
    ``cmath.sqrt`` gives its root the sign of v's imaginary part for
    every v without a NaN part, signed zeros and infinities included,
    and where a part is NaN both decisions give a NaN y.  The last root
    is ``sqrt_h(w)`` itself.  So the result
    equals that loop through public ``sqrt_h`` bit for bit, up to the
    sign bit of a NaN part; it rounds
    differently from a loop of one-step calls, which takes a root of
    each w and squares it again.

    ``z`` is a complex, and a trace chain and ``_reference_rows`` hand
    over c and d as complex with a +0.0 imaginary part, so that each of
    w - c, s + d (or d - s) and y*y - c is complex-complex.  CPython
    3.10-3.13 reads a float operand x as complex(x, 0.0) and then does
    the same complex arithmetic, so the float steps of ``nv_step``'s
    one-step path give the same bits, only with that conversion in each
    of those operations.  The +0.0 is the condition: a c whose
    imaginary part is -0.0 would turn a w.imag of -0.0 into +0.0, and
    take the root on the other side of the cut.
    """
    _sqrt, _copysign = cmath.sqrt, copysign
    w = z * z
    c = None
    for c, d in steps:
        # the flip stays inline: a call per map made a 76-map chain about
        # 10% slower as a fold helper and 80% as sqrt_h (2-vCPU Xeon VM);
        # copysign is called only for a zero imaginary part, so the
        # common cases pay one or two comparisons and no call.  The sign
        # bit is read from the root's argument v: cmath.sqrt gives its
        # root the sign of v's imaginary part, signed zeros included
        v = w - c
        im = v.imag
        if im <= 0.0 and (im < 0.0 or _copysign(1.0, im) < 0.0):
            y = d - _sqrt(v)
        else:
            y = _sqrt(v) + d
        w = y * y - c
    # no step leaves the start as it is
    return z if c is None else sqrt_h(w)


# Lane roots are taken by np.sqrt only while both parts of every argument
# lie in [2**-500, 2**500].  There numpy's complex root and cmath.sqrt run
# the same hypot/sqrt algorithm up to exact power-of-two scalings, so they
# agree bit for bit; they can part at a zero part (np.sqrt(1j) differs),
# at subnormal parts and near overflow, where each library rescales its
# own way.
_LANE_BOX = (2.0 ** -500, 2.0 ** 500)


def _nv_lanes(z, cs, ds) -> np.ndarray:
    """``_nv_steps`` for many lanes at once, bit for bit per lane.

    Lane k starts at ``z[k]`` and takes step j with ``cs[j][k]`` and
    ``ds[j][k]``; ``z`` is a sequence of complex starts, ``cs`` and
    ``ds`` are iterables of rows of lanes, one row a step, such as
    (steps, lanes) arrays.  The lanes step their squares W as
    ``_nv_steps`` does, from the first step to the last in one call.
    Each square is formed from real float64 ufuncs in CPython's order
    for a complex product, and c is taken from its real part alone, as
    CPython's complex - float leaves the imaginary part's bits.  Each
    principal root, sqrt(w - c) per step and sqrt(w) at the end, is
    ``np.sqrt`` of the whole lane array; a root whose argument leaves the
    box ``_LANE_BOX`` in any lane is taken lane by lane with
    ``cmath.sqrt``.  A step's root is flipped and shifted by d with
    ``_shift_up``, the last root flipped with ``_flip_up``.
    """
    z = np.array(z, dtype=np.complex128)
    s, w = np.empty_like(z), np.empty_like(z)
    w_re, w_im, w_parts = w.real, w.imag, w.view(np.float64)
    square, size = np.empty(len(z)), np.empty(2 * len(z))
    lo, hi = _LANE_BOX

    def squared(x):
        # w = x * x: re*re - im*im and re*im + im*re
        x_re, x_im = x.real, x.imag
        np.multiply(x_re, x_re, out=w_re)
        np.multiply(x_im, x_im, out=square)
        np.subtract(w_re, square, out=w_re)
        np.multiply(x_re, x_im, out=w_im)
        np.add(w_im, w_im, out=w_im)

    def root(out):
        np.absolute(w_parts, out=size)
        if lo <= size.min() and size.max() <= hi:
            np.sqrt(w, out=out)
        else:
            out[:] = [cmath.sqrt(v) for v in w.tolist()]

    # overflow gives inf and nan silently, as in the scalar kernel
    with np.errstate(all="ignore"):
        squared(z)
        c = None
        for c, d in zip(cs, ds):
            np.subtract(w_re, c, out=w_re)
            root(s)
            # the scalar kernel's y bit for bit: d - s when the sign bit of
            # im is set, else s + d, whose 0.0 added to that im (CPython's
            # complex + float) changes nothing
            _shift_up(s, d, s)
            squared(s)
            np.subtract(w_re, c, out=w_re)
        # no step leaves the starts as they are
        if c is not None:
            root(z)
            _flip_up(z)
    return z


# Below this many drivers, _reference_rows steps each reference on its
# own with the scalar _nv_steps: one step of _nv_lanes makes ~15 numpy
# calls, and one scalar map costs ~0.23 us.  Through _reference_rows on
# one row of 256, 1024 and 2048 steps at every width 8-63 (2-vCPU Xeon
# VM, two runs), the lanes were faster at all three step counts from 46
# drivers on: the scalar tail took 1.03-1.06x the lane time at 46 and
# 1.22-1.44x at 56-63.  At 43-45 the lanes won at some step counts only,
# and at 40 they took 1.07-1.14x the scalar time.
_LANE_CROSSOVER = 46
# Steps per block of the rows _reference_rows feeds to _nv_lanes: bounds
# the (steps, lanes) arrays it builds.
_STEP_BLOCK = 32


def _reference_rows(starts, grids, values, kappa) -> list:
    """Splitting solution of the unit_noise equation on every driver, as
    lists of Python complex.

    Row j's drivers start at ``starts[j]`` and are the rows of
    ``values[j]``, sampled on ``grids[j]``; a row may hold none, and the
    rows that hold any share one number of steps.  Each solution steps
    the unit_noise map of ``nv_step`` across every interval of its row's
    grid, with the drift times of the row computed once for all its
    drivers.  While _LANE_CROSSOVER or more drivers are given, every
    solution is one lane of ``_nv_lanes``; below that, each is its own
    ``_nv_steps`` over the row's drift times zipped with its driver's
    displacements, both converted to complex with a +0.0 imaginary part
    (``_nv_steps``' operand rule: the same bits, with no float-to-complex
    conversion inside the loop).  Both step the square W = z^2 and give
    the bits of its loop through public ``sqrt_h``: w = z*z, per step
    y = sqrt_h(w - c) + d and w = y*y - c, then sqrt_h(w).
    """
    used = [j for j, v in enumerate(values) if len(v)]
    # drift time of each step in each used row: 2h/kappa, as nv_step
    drift = {j: 2.0 * np.diff(grids[j]) / kappa for j in used}
    width = sum(len(values[j]) for j in used)
    if width < _LANE_CROSSOVER:
        # complex steps, as _nv_steps wants them; a row with no driver has
        # no ds, so it looks up no cs
        cs = {j: drift[j].astype(complex).tolist() for j in used}
        return [[_nv_steps(starts[j], zip(cs[j], ds))
                 for ds in np.diff(v, axis=1).astype(complex).tolist()]
                for j, v in enumerate(values)]
    steps = len(drift[used[0]])

    def rows(part):
        # a block of steps at a time keeps the (steps, lanes) arrays small
        for a in range(0, steps, _STEP_BLOCK):
            b = min(a + _STEP_BLOCK, steps)
            block = np.empty((b - a, width))
            lane = 0
            for j in used:
                lanes = slice(lane, lane + len(values[j]))
                block[:, lanes] = part(j, a, b)
                lane = lanes.stop
            yield from block

    z = [starts[j] for j in used for _ in range(len(values[j]))]
    # each driver's noise displacements are its np.diff
    z = _nv_lanes(z, rows(lambda j, a, b: drift[j][a:b, None]),
                  rows(lambda j, a, b: (values[j][:, a + 1:b + 1]
                                        - values[j][:, a:b]).T))
    flat = iter(z.tolist())
    return [[next(flat) for _ in range(len(v))] for v in values]


def euler_step(z, h, dB, kappa: float):
    """One Euler-Maruyama step of the unit_noise equation; with constant
    diffusion this is also the Milstein step.  Has a pole at z = 0."""
    _check_nonnegative("step size h", h)
    _check_kappa(kappa)
    return z - (2.0 / kappa) / z * h + dB


@functools.lru_cache(maxsize=None, typed=True)
def _truncation_terms(r: int) -> tuple:
    """The nonzero (word, composed term) pairs of length <= r, composed once.

    Words are in deterministic (lexicographic within length) order.  No
    table holds a word longer than LEVEL_CAP, so a cutoff past it is
    refused before any word is composed, as are a negative one and one
    that is not an integer.  The cache is typed, so a level that only
    equals an integer, such as 2.0 or True, is checked and never served
    that integer's entry.
    """
    _check_level(r)
    return tuple((word, term) for n in range(r + 1)
                 for word, term in enumerate_level(n) if not term.is_zero())


@functools.lru_cache(maxsize=64, typed=True)
def _taylor_coefficients(z: complex, re_sign: float, im_sign: float, r: int,
                         kappa: float) -> tuple:
    """(word, (V_I Id)(z)) for every pair of ``_truncation_terms(r)``.

    They depend on (z, kappa, r) alone, while a Monte Carlo study sums
    them against the tables of many drivers.  The signs of z's parts
    are part of the key: complex keys treat -0.0 and 0.0 as equal, yet
    a term's value at z can carry that sign.  Typed, as
    ``_truncation_terms``, so a level such as 2.0 reaches its check.
    """
    return tuple((word, eval_term(term, z, kappa))
                 for word, term in _truncation_terms(r))


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
        kappa: SLE parameter, finite and > 0 (checked by ``eval_term``).
    """
    z = complex(z)
    total = 0j
    for word, value in _taylor_coefficients(z, copysign(1.0, z.real),
                                            copysign(1.0, z.imag), r, kappa):
        try:
            entry = table.entries[word]
        except KeyError:
            raise ValueError(
                f"table depth {table.depth} too shallow for word {word}"
            ) from None
        total += value * entry
    return total


def reference_solve(z0, path: BrownianPath, t: float, kappa: float) -> complex:
    """Fine-grid splitting solution of the unit_noise equation, used as
    ground truth.

    Steps the unit_noise splitting map of ``nv_step`` across every sample
    interval of ``path`` inside [0, t]: the one-driver case of
    ``_reference_rows``.  Convergence is the caller's check: refine the
    path (midpoint passes), solve again, and require the two answers to
    agree, as :mod:`slesim.experiments` does for its references.
    """
    _check_positive("kappa", kappa)
    stop = path.index_of(t) + 1
    return _reference_rows([complex(z0)], [path.times[:stop]],
                           [path.values[None, :stop]], kappa)[0][0]
