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

The prefix walk integrates chosen words on any number of drivers that
share one grid, each distinct word prefix once, parents before children,
in one of two layouts.  :func:`word_entries` walks row-major, one row
per driver, a bounded block of rows at a time, each running integral a
cumsum along its row; the table builder behind :func:`compute_table`
lists every word up to a length and only formats its rows.
``_walk_lanes`` walks time-major: one interval at a time across a block
of drivers, its lanes, summing the driver from its increments on the
way; ``experiments.divergence_probe`` walks its drivers so.  Either way
the quadrature is made of separate real float64 ufuncs, and each running
integral adds in order along the time axis, so every driver rounds
exactly as :func:`iterated_integral`, the prefix chain of one word on
one driver, which stays apart as the independent reference.  The lanes
pay a few numpy calls per prefix and interval: cheap across a thousand
drivers, but not across the few rows of a table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .brownian import BrownianPath, _check_samples
from .vfalgebra import _check_level, _check_positive, _check_word

__all__ = [
    "IteratedIntegralTable",
    "compute_table",
    "iterated_integral",
    "word_entries",
]

# Rows per block of the row-major walk: :func:`word_entries` alone blocks
# the rows it integrates.  The walk keeps a few arrays of one block's
# shape alive (one per word prefix still to extend), so memory stays near
# 1 MB at 256 intervals whatever the number of rows.
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


def _walk_lanes(dt, increments, plan) -> dict:
    """:func:`_walk`'s end values, walked time-major across lanes.

    Row ``i`` of ``increments`` is lane ``i``: the n increments x_k of a
    driver on the grid of interval lengths ``dt``, that is B(0) = 0
    followed by their running sums, as ``brownian._sum_increments`` makes
    it.  For each interval k in turn, every lane at once: B_{k+1} = B_k
    + x_k and dB_k = B_{k+1} - B_k, then, parents first, every prefix
    that depends on the driver gains the midpoint 0.5 * (old + new) of
    its parent times its leg (dt_k or dB_k).  Each lane does the float64
    operations of its row in :func:`_walk` (and of ``np.diff`` of the
    driver) in the same order, so its bits are the row's; the adds of one
    interval do not depend on each other and run as SIMD, where a
    ``cumsum`` along a row is a chain of dependent adds.  As in a
    ``cumsum``, the first step is the running value itself: it is added
    to -0.0, which leaves every float as it is, while the midpoints read
    B(0) and every prefix at time 0 as +0.0.  Prefixes made only of 0s
    stay 1-D over time, as in :func:`_walk`.

    Raises ValueError if some driver is not finite.
    """
    # NaN and infinities show in the least and greatest increment, and
    # reading those allocates no mask of the block
    if not np.isfinite([increments.min(), increments.max()]).all():
        raise ValueError("driver increments must be finite")
    add, mul = np.add, np.multiply
    dt = np.asarray(dt, dtype=np.float64)
    lanes = len(increments)
    flat = {(): np.ones(len(dt) + 1)}
    ends = {(): flat[()][-1].copy()}
    # run[q] holds the lanes of prefix q (of B for the empty word) before
    # and after interval k, in rows k % 2 and 1 - k % 2
    run = {(): np.zeros((2, lanes))}
    groups = []
    for p, letters in plan:
        children = []
        for j in letters:
            q = p + (j,)
            if 1 in q:
                run[q] = np.zeros((2, lanes))
                children.append((j, run[q]))
            else:
                flat[q] = _integrate(_midpoints(flat[p]), dt)
                ends[q] = flat[q][-1].copy()
        if children and 1 in p:
            groups.append((run[p], None, children))
        elif children:
            # a flat parent's midpoints are one float per interval
            groups.append((None, _midpoints(flat[p]).tolist(), children))
    unset = np.full(lanes, -0.0)
    b, dB = run[()], np.empty(lanes)
    avg, step = np.empty(lanes), np.empty(lanes)
    for k, h in enumerate(dt.tolist()):
        was, now = k & 1, 1 - (k & 1)
        add(b[was] if k else unset, increments[:, k], out=b[now])
        np.subtract(b[now], b[was], out=dB)
        for parent, mids, children in groups:
            if mids is None:
                add(parent[was], parent[now], out=avg)
                mul(avg, 0.5, out=avg)
            for j, r in children:
                if mids is None:
                    mul(avg, dB if j else h, out=step)
                else:
                    mul(dB, mids[k], out=step)
                add(r[was] if k else unset, step, out=r[now])
    final = len(dt) & 1
    for q, r in run.items():
        if q:
            ends[q] = r[final]
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
