"""Sampled Brownian driver with bridge refinement and exact bookkeeping.

A path is a finite, strictly increasing time grid with one finite sample
per knot and B(0) = 0.  Intervals can be bisected after the fact: the
midpoint sample is drawn from the Brownian bridge conditioned on the two
endpoints, so earlier samples never move.  Every draw of a driver is keyed
by (seed, quantity drawn), not by call order: the initial increments use one
Philox stream, and each midpoint uses a stream keyed by the bit pattern
of its time.  Two runs that bisect the same intervals in different orders
therefore produce bitwise identical samples.  :func:`_uniform_block` draws
many uniform-grid drivers as rows of one array, each row bit for bit the
path :meth:`BrownianPath.sample_uniform` draws from the same seed.

:func:`philox_stream` defines each stream; a midpoint is its first
standard normal.  :meth:`BrownianPath.insert_midpoint` and the increments
draw through :func:`_normals`: each thread keeps one Philox bit generator
and resets it to the stream's starting state before every draw.  A
bisection pass, :func:`_bisect`, draws all of its midpoints, for every
driver of a block, at once (:func:`_block_normals`): numpy uint64 array
arithmetic gives each key's first Philox4x64-10 word, and numpy's own
ziggurat fast path, one multiply and a sign, turns about 98.5% of those
words into the draw; the rest draw through :func:`_normals`.  The
ziggurat tables are read from the installed numpy on first use by
steering its ``standard_normal`` with chosen words, then checked against
its scalar draws, so the bits are numpy's whatever its version.

Two sets of draws are not keyed: :func:`_sfc64_stream` is a sequential
SFC64 generator seeded by (seed, tag), from which
``experiments.moment_preservation`` reads its increment matrix and
``experiments.divergence_probe`` its drivers, each in order.  Neither is
ever refined, so no draw of them is asked for on its own: they need no
key, and SFC64 draws normals faster than Philox.
:func:`_sum_increments` turns rows of normals into uniform-grid drivers,
for keyed and sequential draws alike.
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
_MASK32 = (1 << 32) - 1
_RABITS_MAX = (1 << 52) - 1
_LIMB, _MASK52, _BYTE, _ONE = (np.uint64(m) for m in
                               (_MASK32, _RABITS_MAX, 0xFF, 1))
_SHIFT8, _SHIFT9, _SHIFT32 = np.uint64(8), np.uint64(9), np.uint64(32)
# Philox4x64-10 as numpy runs it (Salmon et al., SC 2011): round
# multipliers, key increments and round count.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Keys per block of _block_normals.  Its ~300 uint64 ufuncs run fastest
# while their 32 KB operands stay in cache: 0.20 us per key at 4096-8192
# keys, 0.32-0.43 us at 16384 (2-vCPU Xeon VM).
_KEY_BLOCK = 1 << 12
# Tag for the initial-increment stream.  Midpoint streams are tagged with the
# float64 bit pattern of the midpoint time, which is never 0 for t > 0.
_TAG_INCREMENTS = 0


def philox_stream(seed: int, tag: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, tag), not by call order.

    ``seed`` is any integer but a bool (``vfalgebra._check_seed``); only
    its low 64 bits count."""
    key = np.array([_check_seed(seed), tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def _mulhi(m: int, x: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product of the constant ``m`` and ``x``.

    Built from 32-bit limbs, so no partial sum leaves uint64.
    """
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    x_lo, x_hi = x & _LIMB, x >> _SHIFT32
    w1 = x_hi * m_lo
    w1 += (x_lo * m_lo) >> _SHIFT32
    w2 = x_lo * m_hi
    w2 += w1 & _LIMB
    hi = x_hi * m_hi
    hi += w1 >> _SHIFT32
    hi += w2 >> _SHIFT32
    return hi


def _philox_words(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """First word of Philox4x64-10 at counter (1, 0, 0, 0), key (k0, k1).

    The uint64 arrays ``k0`` and ``k1`` broadcast against each other.  A
    reset stream's first draw runs the block at counter (1, 0, 0, 0), so
    this is the first word of ``philox_stream(k0, k1)``.  uint64 array
    arithmetic wraps modulo 2**64, as the C code does.
    """
    m0, m1 = _PHILOX_M
    w0, w1 = np.uint64(_PHILOX_W[0]), np.uint64(_PHILOX_W[1])
    # round 1: counter words 1-3 are 0, so the products are M0 and 0
    c0, c1, c2, c3 = k0, np.uint64(0), k1, np.uint64(m0)
    for _ in range(_PHILOX_ROUNDS - 2):
        k0 = k0 + w0
        k1 = k1 + w1
        c0, c1, c2, c3 = (_mulhi(m1, c2) ^ c1 ^ k0, c2 * np.uint64(m1),
                          _mulhi(m0, c0) ^ c3 ^ k1, c0 * np.uint64(m0))
    # the last round's first word needs one product
    return _mulhi(m1, c2) ^ c1 ^ (k0 + w0)


def _ziggurat(u: np.ndarray, wi: np.ndarray,
              ki: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``standard_normal`` fast path on each first word ``u``.

    Returns the draws and a mask of the words it decides; any other
    word makes numpy draw more words, and its draw here is meaningless.
    """
    idx = (u & _BYTE).astype(np.intp)
    rabits = (u >> _SHIFT9) & _MASK52
    x = rabits.astype(np.float64)
    x *= wi[idx]
    np.negative(x, out=x, where=((u >> _SHIFT8) & _ONE).astype(bool))
    return x, rabits < ki[idx]


def _derive_tables() -> tuple[np.ndarray, np.ndarray, int]:
    """numpy's ziggurat tables ``wi`` and ``ki``, read by steered draws.

    An SFC64 in state (u, 0, 0, 0) returns u as its first word and counts
    its words in state word 3, so a ``standard_normal`` drawn from it
    shows whether word u alone decided the draw.  Word u has level ``i =
    u & 0xff`` and ``rabits = (u >> 9) & (2**52 - 1)``, and it decides the
    draw iff ``rabits < ki[i]``.  So ``wi[i]`` is the draw at rabits 1
    (at level 1, where ki is 0, the first acceptance test passes too), and
    ``ki[i]`` is the first rabits that needs a second word.  For i >= 2
    numpy's tables put ``ki[i]`` within +1 of ``wi[i-1] / wi[i] * 2**52``,
    which two or three draws confirm; other levels are bisected.  Also
    returns the number of steered draws.
    """
    bitgen = np.random.SFC64()
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    draws = 0

    def draw(u: int) -> tuple[float, bool]:
        nonlocal draws
        draws += 1
        state["state"]["state"][:] = (u, 0, 0, 0)
        bitgen.state = state
        x = gen.standard_normal()
        return x, int(bitgen.state["state"]["state"][3]) == 1

    def fast(i: int, rabits: int) -> bool:
        return rabits <= _RABITS_MAX and draw(i | rabits << 9)[1]

    wi = np.array([draw(i | 1 << 9)[0] for i in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for i in range(256):
        guess = int(wi[i - 1] / wi[i] * 2.0 ** 52) if i >= 2 else 0
        if guess and fast(i, guess - 1) and not fast(i, guess):
            ki[i] = guess
        elif guess and fast(i, guess) and not fast(i, guess + 1):
            ki[i] = guess + 1
        else:
            lo, hi = 0, _RABITS_MAX + 1
            while lo < hi:
                mid = (lo + hi) // 2
                if fast(i, mid):
                    lo = mid + 1
                else:
                    hi = mid
            ki[i] = lo
    return wi, ki, draws


def _checked(wi: np.ndarray, ki: np.ndarray) -> np.ndarray:
    """``ki``, or all zeros if the tables miss numpy's draws on some key.

    The check keys span high and low seeds and 256 tags.  A zero ``ki``
    sends every key to the scalar draw, which is right whatever numpy
    does.
    """
    seeds = [0, 1, 0x5DEECE66D, _MASK64]
    tags = np.arange(256, dtype=np.uint64)
    x, fast = _ziggurat(_philox_words(
        np.array(seeds, dtype=np.uint64)[:, None], tags[None, :]), wi, ki)
    want = np.array([[_normals(s, t) for t in tags.tolist()] for s in seeds])
    if (x.view(np.uint64)[fast] != want.view(np.uint64)[fast]).any():
        return np.zeros_like(ki)
    return ki


_tables: tuple[np.ndarray, np.ndarray] | None = None
_tables_lock = threading.Lock()


def _zig_tables() -> tuple[np.ndarray, np.ndarray]:
    """``(wi, ki)`` for :func:`_ziggurat`, derived once per process."""
    global _tables
    with _tables_lock:
        if _tables is None:
            wi, ki, _ = _derive_tables()
            _tables = wi, _checked(wi, ki)
        return _tables


def _block_normals(seeds, tags: np.ndarray) -> np.ndarray:
    """``[[_normals(s, t) for t in tags] for s in seeds]``, bit for bit.

    ``seeds`` are ints, ``tags`` a uint64 array.  Each key's first Philox
    word comes from :func:`_philox_words` and most keys' draw from
    :func:`_ziggurat`, a block of rows at a time; the words the fast
    path does not decide, about 1.5% of them, draw through
    :func:`_normals`.
    """
    wi, ki = _zig_tables()
    seeds = [int(s) & _MASK64 for s in seeds]
    out = np.empty((len(seeds), len(tags)))
    step = max(1, _KEY_BLOCK // max(1, len(tags)))
    for a in range(0, len(seeds), step):
        k0 = np.array(seeds[a:a + step], dtype=np.uint64)[:, None]
        x, fast = _ziggurat(_philox_words(k0, tags[None, :]), wi, ki)
        for r, j in zip(*np.nonzero(~fast)):
            x[r, j] = _normals(seeds[a + r], int(tags[j]))
        out[a:a + step] = x
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
    _check_positive("horizon T", T)
    _check_count("interval count n", n, 1)
    return T * (np.arange(n + 1) / n)


def _sum_increments(noise: np.ndarray, T: float,
                    out: np.ndarray) -> np.ndarray:
    """The driver rule: row r of ``out`` becomes B(0) = 0 followed by the
    running sums, in order along the row, of the increments
    ``sqrt(T / n) * noise[r]``; returns ``out``.

    ``noise`` holds rows of n standard normals and is scaled in place.
    Scaling and summing are elementwise and sequential along the row, so
    a row's bits do not depend on the other rows or on its position.
    """
    noise *= sqrt(T / noise.shape[1])
    out[:, 0] = 0.0
    np.cumsum(noise, axis=1, out=out[:, 1:])
    return out


def _uniform_block(T: float, n: int, seeds) -> np.ndarray:
    """One row of samples on the uniform grid per seed.

    Every row is drawn from its own seed's increment stream and summed by
    :func:`_sum_increments`.  ``T`` and ``n`` are those of a grid
    :func:`_uniform_grid` has accepted.
    """
    noise = np.empty((len(seeds), n))
    for row, seed in zip(noise, seeds):
        row[:] = _normals(seed, _TAG_INCREMENTS, n)
    return _sum_increments(noise, T, np.empty((len(seeds), n + 1)))


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
    xi = np.zeros((len(v), len(tm)))
    xi[:, live] = _block_normals(seeds, tm[live].view(np.uint64))
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
        return cls(times, _uniform_block(T, n, [_check_seed(seed)])[0], seed)

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
        done in one array pass, :func:`_bisect`, which also refines blocks
        of drivers that share a grid.  If some interval cannot be bisected
        in float64, raises ValueError and leaves the path unchanged.
        """
        times, values = _bisect(self.times, self.values[None, :],
                                [self.seed], self._bridge_scale)
        self._times = times.tolist()
        self._values = values[0].tolist()
        return self
