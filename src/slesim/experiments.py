"""Desk-scale Monte Carlo studies of the splitting and Taylor schemes.

Each experiment returns an :class:`ExperimentReport` that is a bitwise
deterministic function of (config, seed): every random draw is keyed by
seed and replica index, except ``moment_preservation``'s increment
matrix and ``divergence_probe``'s drivers, which nothing refines: each
is read in order from one SFC64 stream seeded by seed and its own tag;
every replica's arithmetic is independent of the others (also where
replicas step together as the lanes of one array), results are
collected in replica order, and reductions use numpy's fixed-order
pairwise summation.  ``moment_preservation`` reduces a fixed
block of replicas at a time, in order: pairwise sums within a block, and
the blocks' sums and squared deviations merged one after another by the
rule of Chan, Golub & LeVeque.  Reports are written as CSV plus a JSON
sidecar; only the sidecar carries wall-clock metadata.

Ground truth for one-step error measurements is the fine-grid splitting
solution, accepted only once one more dyadic refinement of the driver
moves it by at most a small fraction of the error being measured (the
flat REFERENCE_RTOL fallback covers the degenerate case of a vanishing
error).  That acceptance rule is decided here; how the references are
stepped is :func:`slesim.schemes._reference_rows`'s.
"""

from __future__ import annotations

import cmath
import json
import time
from dataclasses import dataclass, field
from math import isfinite, log, nan, sqrt

import numpy as np

from .brownian import (_bisect, _sfc64_stream, _sum_increments,
                       _uniform_block, _uniform_grid)
from .integrals import _BLOCK_ROWS, _tables, derive_seeds, word_entries
from .schemes import (UNIT_NOISE, _nv_array_step, _reference_rows,
                      euler_step, nv_step, taylor_step)
from .vfalgebra import (_check_count, _check_level, _check_nonnegative,
                        _check_positive, compose, deg, eval_term, format_word)

__all__ = [
    "ExperimentReport",
    "REFERENCE_RTOL",
    "ReferenceConvergenceError",
    "epsilon_scaling",
    "divergence_probe",
    "moment_preservation",
    "scheme_comparison",
    "write_report_csv",
    "write_report_sidecar",
]

# Reference must move by at most this fraction of the measured error when
# the driver is refined once more; see the module docstring.
REF_ERROR_FRACTION = 0.05
# Relative floor of that budget, for an error that vanishes: "doubling
# the substeps no longer moves the reference" to this relative size.
REFERENCE_RTOL = 1e-8
_MAX_DOUBLINGS = 10

# Tags of the sequential streams (brownian._sfc64_stream) that
# moment_preservation draws its increment matrix from and divergence_probe
# its drivers from.
_TAG_MATRIX = 0xE1
_TAG_DRIVERS = 0xD1
# Replicas per block of moment_preservation, the one place lanes are
# blocked: a block's increments, squares and deviations (about 1.3 MB at
# 16 steps) are drawn, stepped and reduced while they stay in cache, and
# the next block draws and steps in the same buffers.
_NOISE_BLOCK = 8192


class ReferenceConvergenceError(RuntimeError):
    """Reference did not settle within the refinement budget."""


@dataclass
class ExperimentReport:
    """Rows plus the provenance needed to reproduce them exactly.

    ``seed`` is None for a report that draws nothing (``taylor_terms``),
    as ``fit`` is None for a report with no log-log fit.  ``stats`` holds
    run diagnostics (a trace's point count and work counters) for the
    sidecar; it never reaches the CSV.
    """

    name: str
    rows: list
    fit: tuple | None
    config: dict
    seed: int | None
    stats: dict = field(default_factory=dict)


def _loglog_fit(xs, ys) -> tuple[float, float, float]:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0.0 else 1.0
    return float(slope), float(intercept), r2


def _l2_and_stderr(samples: np.ndarray) -> tuple[float, float]:
    """sqrt(mean of squares) and its delta-method standard error."""
    sq = np.square(samples)
    m = float(np.mean(sq))
    if m == 0.0:
        return 0.0, 0.0
    se_m = float(np.std(sq)) / sqrt(len(sq))
    return sqrt(m), se_m / (2.0 * sqrt(m))


def _reference_errors(starts, horizons, substeps: int, kappa: float,
                      depth: int, probes, seed: int,
                      replicas: int) -> tuple[list, list]:
    """Probe errors of every replica of every row against its reference.

    Row j starts at ``starts[j]`` and ends at ``horizons[j]``; its replica
    i draws its driver on ``substeps`` uniform intervals from the sub-seed
    of index ``j * replicas + i`` (see :func:`derive_seeds`).  A replica's
    reference is the splitting solution on its driver, refined one
    bisection pass at a time until one more pass moves it by at most
    REF_ERROR_FRACTION of the smallest error it is probed with, or by
    REFERENCE_RTOL relative, whichever is larger.  ``probes(z0, t, table,
    b)`` returns the approximations to measure on the driver as refined so
    far: ``table`` holds its iterated integrals up to length ``depth``
    over [0, t], ``b`` its value at t.  Accepted errors are final: a
    driver is not refined after its errors are probed.

    Every replica of every row is a lane, and all lanes double together.
    The drivers of a row share one grid at every doubling, so they are the
    rows of one array; :func:`slesim.schemes._reference_rows` steps their
    references.

    Returns ``(errors, doublings)``: ``errors[j]`` is an array of shape
    (replicas, number of probes) in replica order, and entry k of
    ``doublings[j]`` counts the replicas of row j accepted after k
    doublings.  Raises ReferenceConvergenceError for the first replica,
    in (row, replica) order, still moving after _MAX_DOUBLINGS doublings.
    """
    rows = range(len(horizons))
    seeds = [derive_seeds(seed, range(j * replicas, (j + 1) * replicas))
             .tolist() for j in rows]
    grids = [_uniform_grid(t, substeps) for t in horizons]
    # per row: the replicas still moving, their drivers (values[j][k] is
    # replica live[j][k] on grids[j]) and their references so far
    live = [list(range(replicas)) for _ in rows]
    values = [_uniform_block(horizons[j], substeps, seeds[j]) for j in rows]
    refs = _reference_rows(starts, grids, values, kappa)
    errors = [[None] * replicas for _ in rows]
    accepted_at = [[0] * replicas for _ in rows]
    for doubling in range(1, _MAX_DOUBLINGS + 1):
        for j in rows:
            if live[j]:
                grids[j], values[j] = _bisect(
                    grids[j], values[j], [seeds[j][i] for i in live[j]])
        finer = _reference_rows(starts, grids, values, kappa)
        moving = []
        for j in rows:
            keep = []
            ends = values[j][:, -1].tolist()
            for k, table in enumerate(_tables(grids[j], values[j], depth)):
                new = finer[j][k]
                errs = tuple(abs(new - approx) for approx in
                             probes(starts[j], horizons[j], table, ends[k]))
                moved = abs(new - refs[j][k])
                budget = max(REF_ERROR_FRACTION * min(errs),
                             REFERENCE_RTOL * abs(new))
                if moved <= budget:
                    errors[j][live[j][k]] = errs
                    accepted_at[j][live[j][k]] = doubling
                else:
                    keep.append(k)
                    moving.append((moved, budget))
            live[j] = [live[j][k] for k in keep]
            values[j] = values[j][keep]
            refs[j] = [finer[j][k] for k in keep]
        if not moving:
            break
    else:
        moved, budget = moving[0]
        raise ReferenceConvergenceError(
            f"reference still moving by {moved:.3g} after {_MAX_DOUBLINGS} "
            f"refinements (budget {budget:.3g})")
    return ([np.array(e) for e in errors],
            [np.bincount(d).tolist() for d in accepted_at])


# ---------------------------------------------------------------------------
# experiments


def epsilon_scaling(eps_list, delta: float, r: int, kappa: float,
                    replicas: int, seed: int,
                    substeps: int = 128) -> ExperimentReport:
    """L^2 one-step Taylor error at horizon eps^(2+delta) from z0 = i eps.

    For each eps the truncated Taylor sum (level ``r``) over the whole
    interval is compared against the converged reference on the same
    driver; the log-log fit of error against eps is attached when at
    least three eps values are given.
    """
    _check_positive("delta", delta)
    # one replica would report a standard error of 0, an exact answer
    _check_count("replicas", replicas, 2)
    _check_count("substeps", substeps, 1)
    eps_list = [float(e) for e in eps_list]
    if not all(0.0 < e < 1.0 for e in eps_list):
        raise ValueError("eps values must lie in (0, 1)")
    # a repeat adds no point to the log-log fit, only weight
    if len(set(eps_list)) < len(eps_list):
        raise ValueError("eps values must be distinct")
    _check_positive("kappa", kappa)
    # refuses a level no Taylor step takes, before any driver is drawn
    _check_level(r)

    def probes(z0, t, table, b) -> tuple:
        return (taylor_step(z0, table, r, kappa),)

    horizons = [eps ** (2.0 + delta) for eps in eps_list]
    errors, doublings = _reference_errors(
        [complex(0.0, eps) for eps in eps_list], horizons, substeps, kappa,
        r, probes, seed, replicas)
    rows = []
    for eps, t, errs in zip(eps_list, horizons, errors):
        l2, se = _l2_and_stderr(errs[:, 0])
        rows.append({"eps": eps, "horizon": t, "l2_error": l2,
                     "stderr": se, "replicas": replicas})

    fit = None
    if len(eps_list) >= 3:
        fit = _loglog_fit([row["eps"] for row in rows],
                          [row["l2_error"] for row in rows])
    config = {"eps_list": eps_list, "delta": delta, "r": r, "kappa": kappa,
              "replicas": replicas, "substeps": substeps}
    return ExperimentReport("epsilon_scaling", rows, fit, config, seed,
                            {"reference_doublings": doublings})


def divergence_probe(eps: float, delta: float, words, replicas: int,
                     seed: int, kappa: float = 2.0,
                     resolution: int = 256) -> ExperimentReport:
    """Taylor-term magnitudes at the long horizon eps^(2-delta).

    Each word's contribution (V_I Id)(i eps) X^I is measured in L^2 at
    eps and at eps/2; the two-point slope in the ``exponent`` column
    cancels the word's constant, while ``exponent_one_point`` is the raw
    log(estimate)/log(eps), which carries that constant as a bias.  Words
    whose symbolic term vanishes are recorded in the config and skipped;
    a list in which every term vanishes is refused before any draw.

    The drivers are never refined, so they need no keyed draws: every
    driver at eps, in replica order, then every one at eps/2, reads its
    ``resolution`` standard normals in order from one sequential SFC64
    stream, ``brownian._sfc64_stream(seed, _TAG_DRIVERS)``.  They are
    drawn ``_BLOCK_ROWS`` at a time, the rows ``word_entries`` walks
    together, into one reused buffer and summed by
    ``brownian._sum_increments``, so the bytes do not depend on the block
    size.  A float overflow or a division by an estimate that underflowed
    to 0 raises ``OverflowError`` or ``ZeroDivisionError``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < delta < 2.0:
        raise ValueError("delta must lie in (0, 2)")
    _check_count("replicas", replicas, 2)
    _check_count("resolution", resolution, 1)
    _check_positive("kappa", kappa)
    words = [tuple(w) for w in words]
    terms = {w: compose(w) for w in words}
    skipped = [format_word(w) for w in words if terms[w].is_zero()]
    live = [w for w in words if not terms[w].is_zero()]
    if not live:
        raise ValueError("every word's Taylor term vanishes")
    levels = [eps, 0.5 * eps]
    horizons = [e ** (2.0 - delta) for e in levels]

    # integrals[lvl][:, k] is word k over the replicas, in replica order;
    # one driver per (replica, eps level), shared by all words
    gen = _sfc64_stream(seed, _TAG_DRIVERS)
    noise = np.empty((min(_BLOCK_ROWS, replicas), resolution))
    block = np.empty((len(noise), resolution + 1))
    integrals = []
    for t in horizons:
        times = _uniform_grid(t, resolution)
        entries = np.empty((replicas, len(live)))
        for a in range(0, replicas, _BLOCK_ROWS):
            n = min(_BLOCK_ROWS, replicas - a)
            values = _sum_increments(gen.standard_normal(out=noise[:n]), t,
                                     block[:n])
            entries[a:a + n] = word_entries(times, values, live)
        integrals.append(entries)

    rows = []
    for k, w in enumerate(live):
        est = []
        rel_se = []
        for lvl, e in enumerate(levels):
            coeff = abs(eval_term(terms[w], complex(0.0, e), kappa))
            norm, se = _l2_and_stderr(integrals[lvl][:, k])
            est.append(coeff * norm)
            rel_se.append(se / norm if norm > 0.0 else 0.0)
        exponent = log(est[0] / est[1]) / log(2.0)
        rows.append({
            "word": format_word(w),
            "deg": float(deg(w)),
            "estimate": est[0],
            "stderr": est[0] * rel_se[0],
            "exponent": exponent,
            "exponent_stderr": sqrt(rel_se[0] ** 2 + rel_se[1] ** 2) / log(2.0),
            "exponent_one_point": log(est[0]) / log(eps),
            "theory_exponent": 1.0 - delta * float(deg(w)),
        })

    config = {"eps": eps, "delta": delta, "kappa": kappa,
              "words": [format_word(w) for w in words],
              "skipped_words": skipped, "replicas": replicas,
              "resolution": resolution}
    return ExperimentReport("divergence_probe", rows, None, config, seed)


def moment_preservation(kappa: float, z0: complex, T: float, n_steps: int,
                        replicas: int, seed: int) -> ExperimentReport:
    """Sample mean of Z^2 under splitting steps against z0^2 + (kappa-4) t.

    The splitting step preserves this second-moment recursion exactly in
    expectation, so deviations are pure Monte Carlo noise; each row
    reports the deviation in standard errors.  Only Z^2 is read, so the
    lanes are stepped as W = Z^2 by ``schemes._nv_array_step``, one
    complex root per lane and step; ``stats["complex_roots"]`` counts
    them (n_steps * replicas).

    The ``(replicas, n_steps)`` standard normal matrix is read row by
    row from one sequential SFC64 stream, ``brownian._sfc64_stream(seed,
    _TAG_MATRIX)``: no entry is drawn on its own, so it needs no Philox
    key, and SFC64 draws faster.  The replicas run ``_NOISE_BLOCK`` at a
    time, in order, so memory does not grow with their count.  A block
    of n replicas draws its rows of the matrix into the one
    noise buffer and scales it by the row of each step's sqrt(h), then
    by sqrt(kappa); each step is one ``_nv_array_step`` call over the
    block's squares.  After each step it keeps two numbers: its sum of
    W (``np.sum`` of the real parts and of the imaginary parts) and its
    spread, ``np.sum`` of ``np.square`` of the float64 view of W minus
    the block's mean (each sum over n).  The spreads merge block by
    block, in order, by the rule of Chan, Golub & LeVeque (1983).  A
    row's mean is the merged sum over ``replicas``, each part on its own,
    and its standard error sqrt(spread / replicas / replicas).  Float64
    overflow follows numpy's error state (the CLI makes it raise
    FloatingPointError); when it is ignored, an overflowed row has a NaN
    deviation.
    """
    _check_positive("horizon T", T)
    _check_nonnegative("kappa", kappa)
    _check_count("n_steps", n_steps, 1)
    _check_count("replicas", replicas, 2)
    z0 = complex(z0)
    # Python complex arithmetic: no numpy overflow warning comes first
    if not cmath.isfinite(z0 * z0):
        raise ValueError("z0 and its square must be finite")
    times = _uniform_grid(T, n_steps).tolist()
    hs = [b - a for a, b in zip(times, times[1:])]
    gen = _sfc64_stream(seed, _TAG_MATRIX)
    root_h, root_kappa = np.sqrt(hs), sqrt(kappa)
    sizes = [min(_NOISE_BLOCK, replicas - a)
             for a in range(0, replicas, _NOISE_BLOCK)]
    # sums[k, j] and spreads[k, j]: block j's sum of W after step k, and
    # its sum of squared deviations from the block's mean
    sums = np.empty((n_steps, len(sizes)), dtype=np.complex128)
    spreads = np.empty((n_steps, len(sizes)))
    noise = np.empty((sizes[0], n_steps))
    square = np.empty(sizes[0], dtype=np.complex128)
    deviation = np.empty_like(square)
    roots = 0
    for j, n in enumerate(sizes):
        incs = gen.standard_normal(out=noise[:n])
        # sqrt(kappa) * (sqrt(h) * x), the displacements of nv_step: the
        # two roundings of a step's scaling, one contiguous pass each
        incs *= root_h
        incs *= root_kappa
        # only Z^2 is read, so the lanes are stepped as their squares, in
        # place, one complex root per lane and step
        w = square[:n]
        w.fill(z0)
        w *= w
        centred = deviation[:n]
        parts = centred.view(np.float64)
        for k, h in enumerate(hs):
            roots += _nv_array_step(w, 2.0 * h, incs[:, k])
            re, im = w.real.sum(), w.imag.sum()
            sums[k, j] = complex(re, im)
            np.subtract(w, complex(re / n, im / n), out=centred)
            np.square(parts, out=parts)
            spreads[k, j] = parts.sum()

    # Chan, Golub & LeVeque: m lanes of sum S and spread Q followed by n
    # lanes of sum s and spread q have spread
    # Q + q + |(n/m) S - s|^2 m / (n (m + n))
    total, spread = sums[:, 0].copy(), spreads[:, 0].copy()
    m = sizes[0]
    for j, n in enumerate(sizes[1:], 1):
        gap = total * (n / m) - sums[:, j]
        spread += spreads[:, j]
        spread += (gap.real * gap.real + gap.imag * gap.imag) * (
            m / (n * (m + n)))
        total += sums[:, j]
        m += n

    rows = []
    for k in range(n_steps):
        t = times[k + 1]
        mean = complex(total[k].real / replicas, total[k].imag / replicas)
        se = sqrt(spread[k] / replicas / replicas)
        target = z0 * z0 + (kappa - 4.0) * t
        # only an exact 0 (no spread at all) gives 0; a NaN or overflowed
        # se gives NaN, never a deviation that reads as a pass
        if se == 0.0:
            dev = 0.0
        elif isfinite(se):
            dev = abs(mean - target) / se
        else:
            dev = nan
        rows.append({"t": t, "mean_re": mean.real, "mean_im": mean.imag,
                     "target_re": target.real, "target_im": target.imag,
                     "stderr": se, "deviation_se": dev})
    config = {"kappa": kappa, "z0": [z0.real, z0.imag], "T": T,
              "n_steps": n_steps, "replicas": replicas}
    return ExperimentReport("moment_preservation", rows, None, config, seed,
                            {"complex_roots": roots})


def scheme_comparison(kappa: float, eps: float, horizons, replicas: int,
                      seed: int, substeps: int = 128) -> ExperimentReport:
    """One-step L^2 errors of Euler, Taylor (levels 2 and 3), and the
    splitting step from z0 = i eps, per horizon."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    _check_count("replicas", replicas, 2)
    _check_count("substeps", substeps, 1)
    horizons = [float(t) for t in horizons]
    for t in horizons:
        _check_positive("horizon", t)
    _check_positive("kappa", kappa)

    def probes(z0, t, table, b) -> tuple:
        return (euler_step(z0, t, b, kappa),
                taylor_step(z0, table, 2, kappa),
                taylor_step(z0, table, 3, kappa),
                nv_step(z0, t, b, kappa, UNIT_NOISE))

    errors, doublings = _reference_errors(
        [complex(0.0, eps)] * len(horizons), horizons, substeps, kappa, 3,
        probes, seed, replicas)
    labels = ("euler_l2", "taylor2_l2", "taylor3_l2", "nv_l2")
    rows = []
    for t, errs in zip(horizons, errors):
        row = {"horizon": t}
        for col, label in enumerate(labels):
            row[label] = _l2_and_stderr(errs[:, col])[0]
        rows.append(row)

    config = {"kappa": kappa, "eps": eps, "horizons": horizons,
              "replicas": replicas, "substeps": substeps}
    return ExperimentReport("scheme_comparison", rows, None, config, seed,
                            {"reference_doublings": doublings})


# ---------------------------------------------------------------------------
# report output


def write_report_csv(report: ExperimentReport, filename) -> None:
    """Rows as CSV; each cell is ``str`` of its value, which for a
    Python float is the round-trip ``repr``."""
    if not report.rows:
        raise ValueError("report has no rows")
    keys = list(report.rows[0].keys())
    line = ",".join(["{}"] * len(keys)) + "\n"
    with open(filename, "w", encoding="ascii") as fh:
        fh.write(",".join(keys) + "\n")
        for row in report.rows:
            fh.write(line.format(*map(row.__getitem__, keys)))


def write_report_sidecar(report: ExperimentReport, filename,
                         runtime_seconds: float) -> None:
    """Config echo sufficient to reproduce the run; holds the only
    wall-clock metadata, so CSV bytes stay run-independent."""
    payload = {
        "name": report.name,
        "seed": report.seed,
        "config": report.config,
        "fit": (None if report.fit is None else
                {"slope": report.fit[0], "intercept": report.fit[1],
                 "r2": report.fit[2]}),
        "stats": report.stats,
        "runtime_seconds": runtime_seconds,
        "created_unix": time.time(),
    }
    with open(filename, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
