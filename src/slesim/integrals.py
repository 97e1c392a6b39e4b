"""Iterated integrals of the time-plus-driver lift of a sampled path.

Entries are indexed by words over {0, 1}: letter 0 integrates against dt,
letter 1 against dB, innermost letter first, so the entry for word w + (j,)
is the running integral of the entry for w against coordinate j.  Integrals
are taken over the piecewise-linear interpolation of the samples on the
driver's own grid, i.e. in the Stratonovich (geometric) sense, which is
the only sense the Taylor steps need.  Each dt or dB leg uses the mean of
the two endpoint values of the integrand on every sub-interval, which is
exact whenever the integrand is linear there - in particular every entry
up to length 2 is exact for the piecewise-linear path, e.g. the (1, 1)
entry telescopes to B(t)^2 / 2.

One prefix walk, behind :func:`word_entries`, integrates chosen words
on any number of drivers that share one grid, one row per driver: it
walks the rows a bounded block at a time and integrates each distinct
word prefix once per block, parents before children.  The table builder
behind :func:`compute_table` lists every word up to a length and only
formats the rows :func:`word_entries` returns.  The quadrature is
made of separate real float64 ufuncs and a sequential cumsum along each
row, so every row rounds exactly as :func:`iterated_integral`, the
prefix chain of one word on one driver, which stays apart as the
independent reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .brownian import BrownianPath, _check_samples
from .vfalgebra import (_check_level, _check_positive, _check_seed,
                        _check_word, _is_integer_type)

__all__ = [
    "IteratedIntegralTable",
    "compute_table",
    "iterated_integral",
    "word_entries",
    "derive_seeds",
]

# Rows per block of the prefix walk: :func:`word_entries` alone blocks
# the rows it integrates, and ``divergence_probe`` draws its drivers this
# many at a time.  The walk keeps a few arrays of one block's shape alive
# (one per word prefix still to extend), so memory stays near 1 MB at 256
# intervals whatever the number of rows.
_BLOCK_ROWS = 64


@dataclass
class IteratedIntegralTable:
    """All iterated integrals over [0, t] up to a word length.

    ``entries`` runs through the words by length, lexicographically
    within a length; ``resolution`` is the number of driver intervals in
    [0, t] the quadrature ran over.
    """

    entries: dict = field(repr=False)
    resolution: int

    @property
    def depth(self) -> int:
        return max(len(w) for w in self.entries)


def _midpoints(fw: np.ndarray) -> np.ndarray:
    """The mean of the integrand's two endpoint values on every
    sub-interval, along the last axis."""
    return 0.5 * (fw[..., :-1] + fw[..., 1:])


def _integrate(avg: np.ndarray, leg: np.ndarray) -> np.ndarray:
    """Running integral, starting from 0, of the integrand whose
    :func:`_midpoints` are ``avg``, against ``leg``.

    The quadrature rule: on every sub-interval the mean of the integrand's
    two endpoint values times the leg, summed in order along the last
    axis.  Leading axes hold rows (drivers) and broadcast; each row is
    rounded exactly as it would be on its own.
    """
    step = avg * leg
    out = np.zeros(step.shape[:-1] + (step.shape[-1] + 1,))
    step.cumsum(axis=-1, out=out[..., 1:])
    return out


def _plan(words) -> tuple[tuple[tuple, tuple], ...]:
    """(parent, letters) for the prefix walk over every prefix of ``words``.

    Parents come by length, lexicographically within a length, each with
    the letters that extend it to a prefix of some word.
    """
    prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
    parents = sorted({q[:-1] for q in prefixes}, key=lambda q: (len(q), q))
    return tuple((p, tuple(j for j in (0, 1) if p + (j,) in prefixes))
                 for p in parents)


def _walk(legs, plan) -> dict:
    """End value of the running integral of the empty word and of every
    prefix in ``plan``.

    Keys come in the order the walk makes them: by length, and
    lexicographically within a length.  Only the running arrays of
    parents still to be integrated are kept: a parent's array is dropped
    once its children are made, and any other prefix is reduced to its
    end value as soon as it is made.
    """
    parents = {p for p, _ in plan}
    running = {(): np.ones(len(legs[0]) + 1)}
    # copies: a view of the last entry would keep the whole array alive
    ends = {(): running[()][..., -1].copy()}
    for p, letters in plan:
        avg = _midpoints(running.pop(p))
        for j in letters:
            q = p + (j,)
            running[q] = _integrate(avg, legs[j])
            ends[q] = running[q][..., -1].copy()
            if q not in parents:
                del running[q]
    return ends


def _grid(path: BrownianPath, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample grid of the path restricted to [0, t]."""
    stop = path.index_of(t)
    return path.times[: stop + 1], path.values[: stop + 1]


def _tables(times: np.ndarray, values: np.ndarray, r: int):
    """One :class:`IteratedIntegralTable` per row of ``values``, in order.

    Row ``i`` is a driver on grid ``times``; its table holds every word
    of length <= r over [0, times[-1]], by length and lexicographically
    within a length.  The entries are the rows of :func:`word_entries`,
    which walks the drivers a bounded block at a time; this only formats
    them.
    """
    words = [w for n in range(r + 1)
             for w in itertools.product((0, 1), repeat=n)]
    for row in word_entries(times, values, words).tolist():
        yield IteratedIntegralTable(dict(zip(words, row)), len(times) - 1)


def compute_table(path: BrownianPath, t: float,
                  r: int) -> IteratedIntegralTable:
    """All entries for words of length <= r over [0, t].

    Args:
        path: sampled driver; ``t`` must be one of its sample times.
        t: horizon, finite and > 0.
        r: maximum word length, 0 <= r <= LEVEL_CAP (memory and time
            are O(2^r * intervals in [0, t])).

    Returns:
        IteratedIntegralTable with 2^(r+1) - 1 entries.

    Raises:
        ValueError: r is outside [0, LEVEL_CAP], t is not finite and > 0,
            or t is not a sample time of the path.
    """
    _check_level(r)
    _check_positive("horizon t", t)
    times, values = _grid(path, t)
    return next(_tables(times, values[None, :], r))


def iterated_integral(path: BrownianPath, t: float, word) -> float:
    """Single entry without building the whole table (prefix chain only)."""
    word = _check_word(word)
    times, values = _grid(path, t)
    legs = (np.diff(times), np.diff(values))
    fw = np.ones(len(times))
    for j in word:
        fw = _integrate(_midpoints(fw), legs[j])
    return float(fw[-1])


def word_entries(times, values, words) -> np.ndarray:
    """Stratonovich entries over [0, times[-1]] for any number of drivers.

    Args:
        times: grid shared by every driver: flat, finite, strictly
            increasing, starting at 0.
        values: one driver per row, sampled on ``times``; finite, each
            row starting at 0.
        words: words over {0, 1}; repeats and the empty word are allowed.

    Returns:
        Array of shape (rows, len(words)); row ``i`` equals
        ``iterated_integral`` of each word on driver ``i`` bit for bit.
        Rows are walked _BLOCK_ROWS at a time, so memory stays bounded
        whatever their number.  Each distinct word prefix is integrated
        once per block; prefixes made only of 0s depend on the grid alone
        and stay flat.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must hold one driver per row")
    _check_samples(times, values)
    words = [_check_word(w) for w in words]
    legs, plan = np.diff(times), _plan(words)
    entries = np.empty((len(values), len(words)))
    for a in range(0, len(values), _BLOCK_ROWS):
        block = values[a:a + _BLOCK_ROWS]
        ends = _walk((legs, np.diff(block, axis=-1)), plan)
        # a flat prefix's end is one scalar: it broadcasts to every row
        for k, w in enumerate(words):
            entries[a:a + len(block), k] = ends[w]
    return entries


# The hash of numpy's seed sequence (numpy/random/bit_generator.pyx) for a
# pool of four uint32 words.  Its multipliers do not depend on the entropy:
# the k-th hashmix xors with _HASH_A[k] and multiplies by _HASH_A[k + 1].
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HASH_A = [_INIT_A * _MULT_A ** k & _M32 for k in range(17)]
_HASH_B = [_INIT_B * _MULT_B ** k & _M32 for k in range(3)]


def _fold(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> 16)


def derive_seeds(seed: int, indices) -> np.ndarray:
    """Stable per-replica sub-seeds; independent of evaluation order.

    Entry k is the first uint64 word that numpy's seed sequence generates
    from the entropy ``(seed & (2**64 - 1), indices[k])``, bit for bit;
    the hash runs for the whole block at once in uint32 array arithmetic.

    Args:
        seed: any integer but a bool (``vfalgebra._check_seed``); only
            its low 64 bits count.
        indices: integers in [0, 2**64), not bools
            (``vfalgebra._is_integer_type``).

    Returns:
        uint64 array, one sub-seed per index.
    """
    seed = _check_seed(seed)
    idx = list(indices)
    # one test per type present, not per index: blocks run to thousands
    if not all(map(_is_integer_type, set(map(type, idx)))):
        raise ValueError("indices must be integers, not bools or floats")
    if idx and (min(idx) < 0 or max(idx) >= 1 << 64):
        raise ValueError("indices must lie in [0, 2**64)")
    idx = np.array(idx, dtype=np.uint64)
    # The seed sequence writes the seed and the index as 1 or 2 uint32
    # words each (1 below 2**32) and hashes 0 into the pool words past
    # them.  So the index as 2 words, the high one 0 below 2**32, padded
    # with 0 to the pool's 4 words, hashes the same, and no entropy is
    # left to mix in past the pool.
    words = [seed & _M32, seed >> 32] if seed >> 32 else [seed]
    pool = [np.full(len(idx), w, dtype=np.uint32) for w in words]
    pool += [(idx & _M32).astype(np.uint32), (idx >> 32).astype(np.uint32)]
    pool += [np.zeros(len(idx), dtype=np.uint32)] * (4 - len(pool))
    consts = itertools.pairwise(_HASH_A)

    def hashmix(v):
        x, m = next(consts)
        return _fold((v ^ x) * m)

    pool = [hashmix(w) for w in pool]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _fold(_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src]))
    lo, hi = (_fold((pool[k] ^ _HASH_B[k]) * _HASH_B[k + 1]).astype(np.uint64)
              for k in (0, 1))
    return lo | hi << 32
