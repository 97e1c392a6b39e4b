"""Sampled Brownian driver with bridge refinement and exact bookkeeping.

A path is a finite, strictly increasing time grid with one finite sample
per knot and B(0) = 0.  Intervals can be bisected after the fact: the
midpoint sample is drawn from the Brownian bridge conditioned on the two
endpoints, so earlier samples never move.  Every random draw is keyed by
(seed, quantity drawn), not by call order: the initial increments use one
Philox stream, and each midpoint uses a stream keyed by the bit pattern
of its time.  Two runs that bisect the same intervals in different orders
therefore produce bitwise identical samples.  :func:`uniform_blocks` draws
many uniform-grid drivers as rows of one array, each row bit for bit the
path :meth:`BrownianPath.sample_uniform` draws from the same seed.

:func:`philox_stream` defines each stream.  Draws do not build it: each
thread keeps one Philox bit generator and resets it to the stream's
starting state before every draw, which gives the same numbers without
the cost of a constructor per draw.
"""

from __future__ import annotations

import bisect
import struct
import threading
from math import sqrt

import numpy as np

__all__ = ["BrownianPath", "philox_stream", "uniform_blocks"]

_MASK64 = (1 << 64) - 1
# Tag for the initial-increment stream.  Midpoint streams are tagged with the
# float64 bit pattern of the midpoint time, which is never 0 for t > 0.
_TAG_INCREMENTS = 0
# Rows per block of :func:`uniform_blocks`.  Callers keep a few arrays of
# one block's shape alive (the iterated integrals keep one per word prefix),
# so memory stays near 1 MB at 256 intervals whatever the replica count.
_BLOCK_ROWS = 64


def philox_stream(seed: int, tag: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, tag), not by call order."""
    key = np.array([seed & _MASK64, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_local = threading.local()


def _philox():
    """This thread's Philox, its generator and its reset state.

    Setting ``bitgen.state = state`` puts the generator in the state a
    new stream starts in: key ``state["state"]["key"]``, zero counter,
    empty output buffer.  The state setter reads the words one at a time,
    which is cheaper from Python int lists than from numpy arrays.
    """
    try:
        return _local.philox
    except AttributeError:
        bitgen = np.random.Philox()
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                 "buffer": [0, 0, 0, 0],
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _local.philox = bitgen, np.random.Generator(bitgen), state
        return _local.philox


def _normals(seed: int, tag: int, size=None):
    """``philox_stream(seed, tag).standard_normal(size)``, bit for bit."""
    bitgen, gen, state = _philox()
    key = state["state"]["key"]
    key[0] = seed & _MASK64
    key[1] = tag & _MASK64
    bitgen.state = state
    return gen.standard_normal(size)


def _keyed_normals(seed: int, tags) -> list[float]:
    """``[_normals(seed, tag) for tag in tags]``, bit for bit.

    The lookups are hoisted out of the loop, which leaves one reset and
    one draw per tag.  Tags must already lie in [0, 2**64).
    """
    bitgen, gen, state = _philox()
    key = state["state"]["key"]
    key[0] = seed & _MASK64
    normal = gen.standard_normal
    out = []
    for tag in tags:
        key[1] = tag
        bitgen.state = state
        out.append(normal())
    return out


def _time_tag(t: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", t))[0]


def _check_samples(t: np.ndarray, v: np.ndarray) -> None:
    """Raise ValueError unless each row of ``v`` is a driver on grid ``t``.

    ``v`` is one path of samples or a block of them, one path per row.
    """
    if t.ndim != 1 or v.shape[-1:] != t.shape:
        raise ValueError("times must be flat, with one value per time in "
                         "every row")
    if len(t) < 1 or t[0] != 0.0 or (v[..., 0] != 0.0).any():
        raise ValueError("path must start at B(0) = 0")
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise ValueError("times and values must be finite")
    if not (t[:-1] < t[1:]).all():
        raise ValueError("times must be strictly increasing")


def _uniform_grid(T: float, n: int) -> np.ndarray:
    """Knots T * (k / n), k = 0..n; the last one is exactly T.

    Every uniform driver is built on this grid, so its arguments are
    checked here, before anything divides by ``n``.
    """
    if T <= 0.0:
        raise ValueError("horizon must be positive")
    if n < 1:
        raise ValueError("need at least one interval")
    return T * (np.arange(n + 1) / n)


def _uniform_block(T: float, n: int, seeds) -> np.ndarray:
    """One row of samples on the uniform grid per seed.

    Every row is drawn from its own seed's increment stream, and scaling
    and summing are elementwise and sequential along the row, so a row's
    bits do not depend on the other rows or on its position.  ``T`` and
    ``n`` are those of a grid :func:`_uniform_grid` has accepted.
    """
    values = np.empty((len(seeds), n + 1))
    values[:, 0] = 0.0
    for row, seed in zip(values, seeds):
        row[1:] = _normals(seed, _TAG_INCREMENTS, n)
    np.cumsum(values[:, 1:] * sqrt(T / n), axis=1, out=values[:, 1:])
    return values


def _bisect(t: np.ndarray, v: np.ndarray, seeds,
            bridge_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Every interval of grid ``t`` gains its midpoint, in every row of ``v``.

    ``v`` holds one driver per row, sampled on ``t``; row r draws its
    bridge midpoints keyed by ``seeds[r]`` and the bit pattern of the
    midpoint time, exactly as :meth:`BrownianPath.insert_midpoint`
    would, scaled by ``bridge_scale``.  Returns the refined grid and
    values.  If some interval cannot be bisected in float64, raises
    ValueError.
    """
    t0, t1 = t[:-1], t[1:]
    # one float64 ufunc per scalar operation: the same roundings
    tm = 0.5 * (t0 + t1)
    stuck = np.flatnonzero(~((t0 < tm) & (tm < t1)))
    if stuck.size:
        i = stuck[0]
        raise ValueError(f"interval ({float(t0[i])!r}, "
                         f"{float(t1[i])!r}) cannot be bisected in "
                         "float64")
    sd = np.sqrt(0.25 * (t1 - t0)) * bridge_scale
    # a zero-width bridge draws nothing
    live = np.flatnonzero(sd)
    tags = tm[live].view(np.uint64).tolist()
    xi = np.zeros((len(v), len(tm)))
    for row, seed in zip(xi, seeds):
        row[live] = _keyed_normals(seed, tags)
    times = np.empty(2 * len(t) - 1)
    values = np.empty((len(v), len(times)))
    times[0::2], times[1::2] = t, tm
    values[:, 0::2] = v
    # the midpoint 0.5 * (left + right) + sd * xi, formed in place
    mid = values[:, 1::2]
    np.add(v[:, :-1], v[:, 1:], out=mid)
    mid *= 0.5
    xi *= sd
    mid += xi
    return times, values


def uniform_blocks(T: float, n: int, seeds):
    """Uniform-grid drivers for many seeds, a bounded block at a time.

    Yields ``(rows, times, values)``: ``rows`` is the slice of ``seeds``
    the block covers, ``times`` the grid k*T/n that all drivers share,
    and ``values[r]`` equals ``BrownianPath.sample_uniform(T, n,
    seeds[rows][r]).values`` bit for bit.
    """
    times = _uniform_grid(T, n)
    for start in range(0, len(seeds), _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, len(seeds)))
        yield rows, times, _uniform_block(T, n, seeds[rows])


class BrownianPath:
    """Piecewise-sampled Brownian motion on [0, T].

    Construct from existing samples with ``BrownianPath(times, values,
    seed)``, or with :meth:`sample_uniform` or :meth:`zeros`.  ``seed``
    keys the bridge draws of later refinements.
    """

    def __init__(self, times, values, seed: int, bridge_scale: float = 1.0):
        # float64 copies: the caller's sequences are never aliased
        t = np.array(times, dtype=np.float64)
        v = np.array(values, dtype=np.float64)
        if t.shape != v.shape:
            raise ValueError("times and values must be flat and of equal "
                             "length")
        _check_samples(t, v)
        self._times = t.tolist()
        self._values = v.tolist()
        self.seed = int(seed)
        self._bridge_scale = float(bridge_scale)
        self._cache: tuple[np.ndarray, np.ndarray] | None = (t, v)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def sample_uniform(cls, T: float, n: int, seed: int) -> "BrownianPath":
        """Sample B on the uniform grid k*T/n, k = 0..n.

        Args:
            T: horizon, > 0.
            n: number of intervals, >= 1.
            seed: stream key; equal seeds give bitwise-equal paths.
        """
        times = _uniform_grid(T, n)
        return cls(times, _uniform_block(T, n, [seed])[0], seed)

    @classmethod
    def zeros(cls, T: float, n: int) -> "BrownianPath":
        """The identically-zero driver; stays zero under refinement."""
        return cls(_uniform_grid(T, n), np.zeros(n + 1), seed=0,
                   bridge_scale=0.0)

    # ------------------------------------------------------------------
    # accessors

    @property
    def horizon(self) -> float:
        return self._times[-1]

    @property
    def times(self) -> np.ndarray:
        self._refresh()
        return self._cache[0]

    @property
    def values(self) -> np.ndarray:
        self._refresh()
        return self._cache[1]

    def _refresh(self) -> None:
        if self._cache is None:
            self._cache = (np.array(self._times), np.array(self._values))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def n_intervals(self) -> int:
        return len(self._times) - 1

    def sample(self, i: int) -> tuple[float, float]:
        """(time, value) of knot ``i``; supports negative indices."""
        return self._times[i], self._values[i]

    def index_of(self, t: float) -> int:
        """Index of sampled time ``t`` (exact match) or ValueError."""
        i = bisect.bisect_left(self._times, t)
        if i == len(self._times) or self._times[i] != t:
            raise ValueError(f"time {t!r} is not a sampled time")
        return i

    def value_at(self, t: float) -> float:
        return self._values[self.index_of(t)]

    # ------------------------------------------------------------------
    # mutation and derived paths

    def insert_midpoint(self, i: int) -> "BrownianPath":
        """Bisect interval ``i``, drawing the bridge midpoint; returns self.

        The draw is keyed by the midpoint time, so it does not depend on
        how many other intervals were bisected first.  Existing samples
        are untouched.
        """
        if not 0 <= i < self.n_intervals:
            raise IndexError(f"interval index {i} out of range")
        t0, t1 = self._times[i], self._times[i + 1]
        tm = 0.5 * (t0 + t1)
        if not t0 < tm < t1:
            raise ValueError(f"interval ({t0!r}, {t1!r}) cannot be bisected "
                             "in float64")
        mean = 0.5 * (self._values[i] + self._values[i + 1])
        sd = sqrt(0.25 * (t1 - t0)) * self._bridge_scale
        xi = _normals(self.seed, _time_tag(tm)) if sd else 0.0
        self._times.insert(i + 1, tm)
        self._values.insert(i + 1, mean + sd * xi)
        self._cache = None
        return self

    def refine(self) -> "BrownianPath":
        """One full bisection pass: every interval gains its midpoint.

        Bit for bit the same as :meth:`insert_midpoint` on every interval,
        done in one array pass, :func:`_bisect`, which also refines blocks
        of drivers that share a grid.  If some interval cannot be bisected
        in float64, raises ValueError and leaves the path unchanged.
        """
        times, values = _bisect(self.times, self.values[None, :],
                                [self.seed], self._bridge_scale)
        values = values[0]
        self._times = times.tolist()
        self._values = values.tolist()
        self._cache = (times, values)
        return self
