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

One prefix walk serves both :func:`compute_table` (every word up to a
length, on one driver) and :func:`word_entries` (chosen words on a block
of drivers that share one grid, one row per driver): it integrates each
distinct word prefix once, parents before children.  The quadrature is
made of separate real float64 ufuncs and a sequential cumsum along each
row, so every row rounds exactly as :func:`iterated_integral`, the
prefix chain of one word on one driver, which stays apart as the
independent reference.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .brownian import BrownianPath, _check_samples
from .vfalgebra import LEVEL_CAP, _check_word

__all__ = [
    "IteratedIntegralTable",
    "compute_table",
    "iterated_integral",
    "word_entries",
    "derive_seed",
]

@dataclass
class IteratedIntegralTable:
    """All iterated integrals over [0, t] up to a word length.

    ``entries`` runs through the words by length, lexicographically
    within a length; ``resolution`` is the number of driver intervals in
    [0, t] the quadrature ran over.
    """

    entries: dict = field(repr=False)
    resolution: int

    def entry(self, word) -> float:
        return self.entries[tuple(word)]

    @property
    def depth(self) -> int:
        return max(len(w) for w in self.entries)


def _integrate(fw: np.ndarray, legs) -> list[np.ndarray]:
    """Running integrals of ``fw`` against each leg, starting from 0.

    The quadrature rule: on every sub-interval the mean of the integrand's
    two endpoint values times the leg, summed in order along the last
    axis.  Leading axes hold rows (drivers) and broadcast; each row is
    rounded exactly as it would be on its own.
    """
    avg = 0.5 * (fw[..., :-1] + fw[..., 1:])
    outs = []
    for leg in legs:
        step = avg * leg
        out = np.zeros(step.shape[:-1] + (step.shape[-1] + 1,))
        step.cumsum(axis=-1, out=out[..., 1:])
        outs.append(out)
    return outs


def _plan(words) -> tuple[tuple[tuple, tuple], ...]:
    """(parent, letters) for the prefix walk over every prefix of ``words``.

    Parents come by length, lexicographically within a length, each with
    the letters that extend it to a prefix of some word.
    """
    prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
    parents = sorted({q[:-1] for q in prefixes}, key=lambda q: (len(q), q))
    return tuple((p, tuple(j for j in (0, 1) if p + (j,) in prefixes))
                 for p in parents)


@functools.cache
def _full_plan(r: int) -> tuple[tuple[tuple, tuple], ...]:
    # the prefixes of the words of length r are all words of length <= r
    return _plan(itertools.product((0, 1), repeat=r))


def _walk(legs, plan) -> dict:
    """Running integral of the empty word and of every prefix in ``plan``.

    Keys come in the order the walk makes them: by length, and
    lexicographically within a length.
    """
    running = {(): np.ones(len(legs[0]) + 1)}
    for p, letters in plan:
        outs = _integrate(running[p], [legs[j] for j in letters])
        for j, out in zip(letters, outs):
            running[p + (j,)] = out
    return running


def _grid(path: BrownianPath, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample grid of the path restricted to [0, t]."""
    stop = path.index_of(t)
    return path.times[: stop + 1], path.values[: stop + 1]


def compute_table(path: BrownianPath, t: float,
                  r: int) -> IteratedIntegralTable:
    """All entries for words of length <= r over [0, t].

    Args:
        path: sampled driver; ``t`` must be one of its sample times.
        t: horizon, > 0.
        r: maximum word length, 0 <= r <= LEVEL_CAP (memory and time
            are O(2^r * intervals in [0, t])).

    Returns:
        IteratedIntegralTable with 2^(r+1) - 1 entries.
    """
    if r < 0 or r > LEVEL_CAP:
        raise ValueError(f"word length bound {r} outside [0, {LEVEL_CAP}]")
    if t <= 0.0:
        raise ValueError("horizon must be positive")
    times, values = _grid(path, t)
    running = _walk((np.diff(times), np.diff(values)), _full_plan(r))
    return IteratedIntegralTable(
        entries={w: float(fw[-1]) for w, fw in running.items()},
        resolution=len(times) - 1)


def iterated_integral(path: BrownianPath, t: float, word) -> float:
    """Single entry without building the whole table (prefix chain only)."""
    word = _check_word(word)
    times, values = _grid(path, t)
    legs = (np.diff(times), np.diff(values))
    fw = np.ones(len(times))
    for j in word:
        fw, = _integrate(fw, (legs[j],))
    return float(fw[-1])


def word_entries(times, values, words) -> np.ndarray:
    """Stratonovich entries over [0, times[-1]] for a block of drivers.

    Args:
        times: grid shared by every driver: flat, finite, strictly
            increasing, starting at 0.
        values: one driver per row, sampled on ``times``; finite, each
            row starting at 0.
        words: words over {0, 1}; repeats and the empty word are allowed.

    Returns:
        Array of shape (rows, len(words)); row ``i`` equals
        ``iterated_integral`` of each word on driver ``i`` bit for bit.
        Each distinct word prefix is integrated once for the whole block;
        prefixes made only of 0s depend on the grid alone and stay flat.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must hold one driver per row")
    _check_samples(times, values)
    words = [_check_word(w) for w in words]
    running = _walk((np.diff(times), np.diff(values, axis=-1)), _plan(words))
    entries = np.empty((len(values), len(words)))
    for k, w in enumerate(words):
        entries[:, k] = running[w][..., -1]
    return entries


def derive_seed(seed: int, index: int) -> int:
    """Stable per-replica sub-seed; independent of evaluation order."""
    ss = np.random.SeedSequence((seed & ((1 << 64) - 1), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])
