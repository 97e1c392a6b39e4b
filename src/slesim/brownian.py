"""Sampled Brownian driver with bridge refinement and exact bookkeeping.

A path is a finite, strictly increasing time grid with one finite sample
per knot and B(0) = 0.  Intervals can be bisected after the fact: the
midpoint sample is drawn from the Brownian bridge conditioned on the two
endpoints, so earlier samples never move.  Every draw of a driver is keyed
by (seed, quantity drawn), not by call order, and :func:`philox_stream`
defines each keyed stream.  The initial increments are the first n normals
of the stream of tag 0.  A :class:`BrownianPath` midpoint is the first
normal of the stream tagged with the bit pattern of its time, so two runs
that bisect the same intervals in different orders produce bitwise
identical samples.  :func:`_uniform_block` draws many uniform-grid drivers
as rows of one array, one replica per row; the row of replica 0 is bit
for bit the path :meth:`BrownianPath.sample_uniform` draws from the same
seed.

Every keyed stream is ``Philox(key=(seed, tag), counter=(0, 0, 0,
replica))``: the key names the quantity drawn and the counter's last word
the replica.  A :class:`BrownianPath` is replica 0.  The reference
drivers of ``experiments._reference_errors`` are replicas 1 and up, one
per reference, drawn as the rows of :func:`_uniform_block` and refined
only by whole bisection passes, :func:`_bisect`, so their midpoints are
keyed by (seed, doubling) in place of time: at doubling d, a replica's n
midpoints, in interval order, are the first n normals of its stream of
tag d.  Every keyed draw goes through :func:`_normals`: each thread keeps
one Philox bit generator and resets it to the stream's starting state
before every draw, one reset per midpoint of a path or per row of a pass.

Two sets of draws are not keyed: :func:`_sfc64_stream` is a sequential
SFC64 generator seeded by (seed, tag), from which
``experiments.moment_preservation`` reads its increment matrix and
``experiments.divergence_probe`` its drivers, each in order.  Neither is
ever refined, so no draw of them is asked for on its own: they need no
key, and SFC64 draws normals faster than Philox.
:func:`_scale_increments` turns rows of normals into the increments of
uniform-grid drivers, and :func:`_sum_increments` sums them into the
drivers' samples; ``integrals._walk_lanes`` sums ``divergence_probe``'s
increments the same way, one interval at a time across its drivers.
"""

from __future__ import annotations

import bisect
import struct
import threading
from math import sqrt

import numpy as np

from .vfalgebra import (_check_count, _check_nonnegative, _check_positive,
                        _check_seed)

__all__ = ["BrownianPath", "philox_stream"]

_MASK64 = (1 << 64) - 1
# Tag for the initial-increment stream.  A path's midpoint streams are
# tagged with the float64 bit pattern of the midpoint time, which is never
# 0 for t > 0; a reference pass's with its doubling, 1 or more.
_TAG_INCREMENTS = 0


def philox_stream(seed: int, tag: int,
                  replica: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, tag), not by call order,
    with ``replica`` in the last word of its starting counter.

    ``seed`` is any integer but a bool (``vfalgebra._check_seed``); only
    its low 64 bits count.  ``replica`` is an integer in [0, 2**64): 0
    for a :class:`BrownianPath`, 1 and up for the reference drivers of
    ``experiments._reference_errors``.  A stream carries into the
    counter's last word only after 2**192 blocks of draws, so two
    replicas' streams do not overlap."""
    key = np.array([_check_seed(seed), tag & _MASK64], dtype=np.uint64)
    _check_count("replica", replica, 0)
    counter = np.array([0, 0, 0, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _sfc64_stream(seed: int, tag: int) -> np.random.Generator:
    """Sequential SFC64 generator seeded by (seed, tag), for a matrix of
    draws that no key addresses.

    No draw of it is ever asked for on its own: after a ziggurat
    rejection, a draw's position in the stream depends on every draw
    before it, so Philox's keying would buy nothing, and SFC64 draws
    normals in about two thirds of Philox's time.  The seed is checked like
    :func:`philox_stream`'s before anything is drawn."""
    entropy = np.random.SeedSequence([_check_seed(seed), tag & _MASK64])
    return np.random.Generator(np.random.SFC64(entropy))


_local = threading.local()


def _philox():
    """This thread's Philox, its generator and its reset state.

    Setting ``bitgen.state = state`` puts the generator in the state a
    new stream starts in: key ``state["state"]["key"]``, counter
    ``state["state"]["counter"]``, empty output buffer.  The state setter
    reads the words one at a time, which is cheaper from Python int lists
    than from numpy arrays.
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


def _normals(seed: int, tag: int, replica: int = 0, out=None):
    """``philox_stream(seed, tag, replica).standard_normal(out=out)``, bit
    for bit: one normal without ``out``, else ``out`` filled."""
    bitgen, gen, state = _philox()
    key = state["state"]["key"]
    key[0] = seed & _MASK64
    key[1] = tag & _MASK64
    state["state"]["counter"][3] = replica
    bitgen.state = state
    return gen.standard_normal(out=out)


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
    _check_positive("horizon T", T)
    _check_count("interval count n", n, 1)
    return T * (np.arange(n + 1) / n)


def _scale_increments(noise: np.ndarray, T: float) -> np.ndarray:
    """Rows of n standard normals, scaled in place by sqrt(T / n) into
    the increments of drivers on the uniform grid; returns ``noise``."""
    noise *= sqrt(T / noise.shape[1])
    return noise


def _sum_increments(noise: np.ndarray, T: float,
                    out: np.ndarray) -> np.ndarray:
    """The driver rule: row r of ``out`` becomes B(0) = 0 followed by the
    running sums, in order along the row, of the increments
    :func:`_scale_increments` makes of ``noise[r]``; returns ``out``.

    ``noise`` holds rows of n standard normals and is scaled in place.
    Scaling and summing are elementwise and sequential along the row, so
    a row's bits do not depend on the other rows or on its position.
    """
    out[:, 0] = 0.0
    np.cumsum(_scale_increments(noise, T), axis=1, out=out[:, 1:])
    return out


def _normal_rows(seed: int, tag: int, replicas, n: int) -> np.ndarray:
    """Row r is the first n normals of ``philox_stream(seed, tag,
    replicas[r])``, drawn into the row: one reset stream per row."""
    out = np.empty((len(replicas), n))
    for row, replica in zip(out, replicas):
        _normals(seed, tag, replica, row)
    return out


def _uniform_block(T: float, n: int, seed: int, replicas) -> np.ndarray:
    """One row of samples on the uniform grid per replica.

    Every row is drawn from its replica's increment stream and summed by
    :func:`_sum_increments`.  ``T`` and ``n`` are those of a grid
    :func:`_uniform_grid` has accepted, ``seed`` one that
    ``vfalgebra._check_seed`` has.
    """
    return _sum_increments(_normal_rows(seed, _TAG_INCREMENTS, replicas, n),
                           T, np.empty((len(replicas), n + 1)))


def _midpoints(t: np.ndarray) -> np.ndarray:
    """``0.5 * (t0 + t1)`` for every interval (t0, t1) of grid ``t``.

    Raises ValueError if some interval has no float64 midpoint.
    """
    t0, t1 = t[:-1], t[1:]
    tm = 0.5 * (t0 + t1)
    stuck = np.flatnonzero(~((t0 < tm) & (tm < t1)))
    if stuck.size:
        i = stuck[0]
        raise ValueError(f"interval ({float(t0[i])!r}, "
                         f"{float(t1[i])!r}) cannot be bisected in "
                         "float64")
    return tm


def _bridge(t: np.ndarray, tm: np.ndarray, v: np.ndarray,
            noise) -> tuple[np.ndarray, np.ndarray]:
    """Grid ``t`` with its midpoints ``tm`` between its knots, and each row
    of ``v`` with the midpoints ``0.5 * (left + right) + noise``.

    One float64 ufunc per scalar operation of
    :meth:`BrownianPath.insert_midpoint`: the same roundings.
    """
    times = np.empty(2 * len(t) - 1)
    times[0::2], times[1::2] = t, tm
    values = np.empty((len(v), len(times)))
    values[:, 0::2] = v
    mid = values[:, 1::2]
    np.add(v[:, :-1], v[:, 1:], out=mid)
    mid *= 0.5
    mid += noise
    return times, values


def _bisect(t: np.ndarray, v: np.ndarray, seed: int, replicas,
            doubling: int) -> tuple[np.ndarray, np.ndarray]:
    """Every interval of grid ``t`` gains its midpoint, in every row of ``v``.

    ``v`` holds one driver per row, sampled on ``t``.  Row r reads its
    bridge normals, in interval order, from the stream of replica
    ``replicas[r]`` and tag ``doubling``, and scales each by
    ``sqrt(0.25 * (t1 - t0))``.  Returns the refined grid and values.  If
    some interval cannot be bisected in float64, raises ValueError.
    """
    tm = _midpoints(t)
    xi = _normal_rows(seed, doubling, replicas, len(tm))
    xi *= np.sqrt(0.25 * np.diff(t))
    return _bridge(t, tm, v, xi)


class BrownianPath:
    """Piecewise-sampled Brownian motion on [0, T].

    Construct from existing samples with ``BrownianPath(times, values,
    seed)``, or with :meth:`sample_uniform` or :meth:`zeros`.  ``seed``
    keys the bridge draws of later refinements: any integer but a bool,
    of which only the low 64 bits count.  The samples are kept
    once, as lists; :attr:`times` and :attr:`values` build arrays from
    them.
    """

    def __init__(self, times, values, seed: int, bridge_scale: float = 1.0):
        # float64 copies: the caller's sequences are never aliased
        t = np.array(times, dtype=np.float64)
        v = np.array(values, dtype=np.float64)
        if t.shape != v.shape:
            raise ValueError("times and values must be flat and of equal "
                             "length")
        _check_samples(t, v)
        _check_nonnegative("bridge_scale", bridge_scale)
        self._times = t.tolist()
        self._values = v.tolist()
        self.seed = _check_seed(seed)
        self._bridge_scale = float(bridge_scale)

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
        return cls(times, _uniform_block(T, n, _check_seed(seed), [0])[0],
                   seed)

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
        """The sample times as a new array; writing to it leaves the path
        as it was."""
        return np.array(self._times)

    @property
    def values(self) -> np.ndarray:
        """The samples as a new array, like :attr:`times`."""
        return np.array(self._values)

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
        return self

    def refine(self) -> "BrownianPath":
        """One full bisection pass: every interval gains its midpoint.

        Bit for bit the same as :meth:`insert_midpoint` on every interval,
        with the grid arithmetic done on arrays in one pass and one keyed
        draw per midpoint.  If some interval cannot be bisected in
        float64, raises ValueError and leaves the path unchanged.
        """
        t = self.times
        tm = _midpoints(t)
        sd = np.sqrt(0.25 * np.diff(t)) * self._bridge_scale
        # a zero-width bridge draws nothing
        xi = [_normals(self.seed, tag) if s else 0.0
              for s, tag in zip(sd.tolist(), tm.view(np.uint64).tolist())]
        times, values = _bridge(t, tm, self.values[None, :], sd * xi)
        self._times = times.tolist()
        self._values = values[0].tolist()
        return self
