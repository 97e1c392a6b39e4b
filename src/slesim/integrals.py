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

:func:`word_entries` evaluates words on a block of drivers that share one
grid, one row per driver, integrating each distinct word prefix once for
the whole block.  The quadrature is made of separate real float64 ufuncs
and a sequential cumsum along each row, so every row rounds exactly as
:func:`iterated_integral` on that driver alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .brownian import BrownianPath, _check_samples, uniform_blocks
from .vfalgebra import LEVEL_CAP

__all__ = [
    "IteratedIntegralTable",
    "compute_table",
    "iterated_integral",
    "word_entries",
    "l2_scaling_samples",
    "l2_scaling_estimate",
    "derive_seed",
]

@dataclass
class IteratedIntegralTable:
    """All iterated integrals over [0, horizon] up to a word length.

    ``resolution`` is the number of driver intervals in [0, horizon] the
    quadrature ran over.
    """

    horizon: float
    entries: dict = field(repr=False)
    resolution: int

    def entry(self, word) -> float:
        return self.entries[tuple(word)]

    @property
    def depth(self) -> int:
        return max(len(w) for w in self.entries)


def _check_letters(word: tuple) -> None:
    if any(letter not in (0, 1) for letter in word):
        raise ValueError(f"word letters must be 0 or 1, got {word!r}")


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
    legs = (np.diff(times), np.diff(values))

    entries: dict = {(): 1.0}
    running = {(): np.ones(len(times))}
    for _ in range(r):
        nxt: dict = {}
        for w, fw in running.items():
            for j, out in enumerate(_integrate(fw, legs)):
                nxt[w + (j,)] = out
                entries[w + (j,)] = float(out[-1])
        running = nxt  # only the newest level feeds the next one

    return IteratedIntegralTable(horizon=t, entries=entries,
                                 resolution=len(times) - 1)


def iterated_integral(path: BrownianPath, t: float, word) -> float:
    """Single entry without building the whole table (prefix chain only)."""
    word = tuple(word)
    _check_letters(word)
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
    words = [tuple(w) for w in words]
    for w in words:
        _check_letters(w)
    legs = (np.diff(times), np.diff(values, axis=-1))
    prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
    running = {(): np.ones(len(times))}
    # parents by length, so each one is integrated before its children
    for p in sorted({q[:-1] for q in prefixes}, key=len):
        letters = [j for j in (0, 1) if p + (j,) in prefixes]
        for j, out in zip(letters,
                          _integrate(running[p], [legs[j] for j in letters])):
            running[p + (j,)] = out
    entries = np.empty((len(values), len(words)))
    for k, w in enumerate(words):
        entries[:, k] = running[w][..., -1]
    return entries


def derive_seed(seed: int, index: int) -> int:
    """Stable per-replica sub-seed; independent of evaluation order."""
    ss = np.random.SeedSequence((seed & ((1 << 64) - 1), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def l2_scaling_samples(word, t: float, replicas: int, resolution: int,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-replica entries at horizons t and 1, coupled by rescaling.

    Each replica draws one unit-horizon path and evaluates the word's entry
    on it and on its Brownian rescaling to horizon t, so the two samples
    come from the same underlying realization.
    """
    if t <= 0.0:
        raise ValueError("horizon must be positive")
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    words = [tuple(word)]
    # the arithmetic of BrownianPath.rescale(c), one ufunc per operation
    c = 1.0 / t
    rc = sqrt(c)
    at_t = np.empty(replicas)
    at_1 = np.empty(replicas)
    seeds = [derive_seed(seed, i) for i in range(replicas)]
    for rows, times, values in uniform_blocks(1.0, resolution, seeds):
        at_1[rows] = word_entries(times, values, words)[:, 0]
        at_t[rows] = word_entries(times / c, values / rc, words)[:, 0]
    return at_t, at_1


def l2_scaling_estimate(word, t: float, replicas: int, resolution: int,
                        seed: int) -> tuple[float, float]:
    """Monte Carlo L^2 norms of a word's entry at horizons t and 1.

    The ratio estimates t^deg(word): the coupling in
    :func:`l2_scaling_samples` makes the exponent estimate exact up to
    rounding for the piecewise-linear lift.
    """
    at_t, at_1 = l2_scaling_samples(word, t, replicas, resolution, seed)
    return (sqrt(float(np.mean(np.square(at_t)))),
            sqrt(float(np.mean(np.square(at_1)))))
