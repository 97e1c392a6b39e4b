"""Desk-scale Monte Carlo studies of the splitting and Taylor schemes.

Each experiment returns an :class:`ExperimentReport` that is a bitwise
deterministic function of (config, seed): every random draw is keyed by
seed and replica index, replicas run serially in index order, and
reductions use numpy's fixed-order pairwise summation.  Reports are
written as CSV plus a JSON sidecar; only the sidecar carries wall-clock
metadata.

Ground truth for one-step error measurements is the fine-grid splitting
solution, accepted only once one more dyadic refinement of the driver
moves it by at most a small fraction of the error being measured (the
flat REFERENCE_RTOL fallback covers the degenerate case of a vanishing
error).
"""

from __future__ import annotations

import cmath
import json
import time
from dataclasses import dataclass, field
from functools import partial
from math import log, sqrt

import numpy as np

from .brownian import (BrownianPath, _uniform_grid, philox_stream,
                       uniform_blocks)
from .integrals import compute_table, derive_seed, word_entries
from .schemes import (REFERENCE_RTOL, SCALED_NOISE, UNIT_NOISE, euler_step,
                      nv_step, reference_solve, taylor_step)
from .vfalgebra import compose, deg, eval_term, format_word

__all__ = [
    "ExperimentReport",
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
_MAX_DOUBLINGS = 10

# Stream tag for experiments that draw increment matrices directly.
_TAG_MATRIX = 0xE1


class ReferenceConvergenceError(RuntimeError):
    """Reference did not settle within the refinement budget."""


@dataclass
class ExperimentReport:
    """Rows plus the provenance needed to reproduce them exactly.

    ``stats`` holds run diagnostics (a trace's point count and work
    counters) for the sidecar; it never reaches the CSV.
    """

    name: str
    rows: list
    fit: tuple | None
    config: dict
    seed: int
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


def _converged_reference(z0: complex, path: BrownianPath, t: float,
                         kappa: float, probes) -> tuple[complex, tuple]:
    """Refine the driver until the reference stops moving.

    ``probes`` maps the candidate reference to the tuple of errors the
    caller measures against it, on the driver as refined so far; the
    change under one more refinement must stay below REF_ERROR_FRACTION
    of the smallest of them (or below REFERENCE_RTOL relative, whichever
    is larger).  Returns the accepted reference and its errors, which
    are final: the driver is not refined after they are probed.
    """
    ref = reference_solve(z0, path, t, kappa)
    for _ in range(_MAX_DOUBLINGS):
        path.refine()
        finer = reference_solve(z0, path, t, kappa)
        errors = probes(finer)
        moved = abs(finer - ref)
        budget = max(REF_ERROR_FRACTION * min(errors),
                     REFERENCE_RTOL * abs(finer))
        if moved <= budget:
            return finer, errors
        ref = finer
    raise ReferenceConvergenceError(
        f"reference still moving by {moved:.3g} after {_MAX_DOUBLINGS} "
        f"refinements (budget {budget:.3g})")


def _reference_errors(z0: complex, t: float, substeps: int,
                      kappa: float, probes, seed: int, first: int,
                      replicas: int) -> np.ndarray:
    """Probe errors of every replica against its converged reference.

    Replica i draws its driver on ``substeps`` uniform intervals of [0, t]
    from ``derive_seed(seed, first + i)``; ``probes(z0, path, t, ref)``
    returns the errors measured against the candidate reference ``ref``
    (see :func:`_converged_reference`).  Returns an array of shape
    (replicas, number of errors), in replica order.
    """
    errors = []
    for i in range(replicas):
        path = BrownianPath.sample_uniform(t, substeps,
                                           derive_seed(seed, first + i))
        errors.append(_converged_reference(z0, path, t, kappa,
                                           partial(probes, z0, path, t))[1])
    return np.array(errors)


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
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0.0 or e >= 1.0 for e in eps_list):
        raise ValueError("eps values must lie in (0, 1)")
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")

    def probes(z0, path, t, ref) -> tuple:
        table = compute_table(path, t, r)
        return (abs(ref - taylor_step(z0, table, r, kappa)),)

    rows = []
    for j, eps in enumerate(eps_list):
        t = eps ** (2.0 + delta)
        errors = _reference_errors(complex(0.0, eps), t, substeps, kappa,
                                   probes, seed, j * replicas, replicas)
        l2, se = _l2_and_stderr(errors[:, 0])
        rows.append({"eps": eps, "horizon": t, "l2_error": l2,
                     "stderr": se, "replicas": replicas})

    fit = None
    if len(eps_list) >= 3:
        fit = _loglog_fit([row["eps"] for row in rows],
                          [row["l2_error"] for row in rows])
    config = {"eps_list": eps_list, "delta": delta, "r": r, "kappa": kappa,
              "replicas": replicas, "substeps": substeps}
    return ExperimentReport("epsilon_scaling", rows, fit, config, seed)


def divergence_probe(eps: float, delta: float, words, replicas: int,
                     seed: int, kappa: float = 2.0,
                     resolution: int = 256) -> ExperimentReport:
    """Taylor-term magnitudes at the long horizon eps^(2-delta).

    Each word's contribution (V_I Id)(i eps) X^I is measured in L^2 at
    eps and at eps/2; the two-point slope in the ``exponent`` column
    cancels the word's constant, while ``exponent_one_point`` is the raw
    log(estimate)/log(eps), which carries that constant as a bias.  Words
    whose symbolic term vanishes are recorded in the config and skipped.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < delta < 2.0:
        raise ValueError("delta must lie in (0, 2)")
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    words = [tuple(w) for w in words]
    terms = {w: compose(w) for w in words}
    skipped = [format_word(w) for w in words if terms[w].is_zero()]
    live = [w for w in words if not terms[w].is_zero()]
    levels = [eps, 0.5 * eps]
    horizons = [e ** (2.0 - delta) for e in levels]

    # integrals[lvl][:, k] is word k over the replicas, in replica order;
    # one driver per (replica, eps level), shared by all words
    integrals = []
    for lvl, t in enumerate(horizons):
        seeds = [derive_seed(seed, lvl * replicas + i)
                 for i in range(replicas)]
        entries = np.empty((replicas, len(live)))
        for rows, times, values in uniform_blocks(t, resolution, seeds):
            entries[rows] = word_entries(times, values, live)
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
    reports the deviation in standard errors.
    """
    if not T > 0.0 or n_steps < 1 or replicas < 2:
        raise ValueError("need T > 0, n_steps >= 1, replicas >= 2")
    if not kappa >= 0.0:
        raise ValueError("kappa must be nonnegative")
    z0 = complex(z0)
    if not cmath.isfinite(z0):
        raise ValueError("z0 must be finite")
    times = _uniform_grid(T, n_steps).tolist()
    incs = philox_stream(seed, _TAG_MATRIX).standard_normal(
        (replicas, n_steps))

    z = np.full(replicas, z0, dtype=np.complex128)
    rows = []
    for k in range(n_steps):
        t = times[k + 1]
        h = t - times[k]
        z = nv_step(z, h, sqrt(h) * incs[:, k], kappa, SCALED_NOISE)
        square = z * z
        mean = complex(np.mean(square))
        target = z0 * z0 + (kappa - 4.0) * t
        se = sqrt((float(np.var(square.real))
                   + float(np.var(square.imag))) / replicas)
        # a NaN se stays NaN; only an exact 0 (no spread at all) gives 0
        dev = abs(mean - target) / se if se != 0.0 else 0.0
        rows.append({"t": t, "mean_re": mean.real, "mean_im": mean.imag,
                     "target_re": target.real, "target_im": target.imag,
                     "stderr": se, "deviation_se": dev})
    config = {"kappa": kappa, "z0": [z0.real, z0.imag], "T": T,
              "n_steps": n_steps, "replicas": replicas}
    return ExperimentReport("moment_preservation", rows, None, config, seed)


def scheme_comparison(kappa: float, eps: float, horizons, replicas: int,
                      seed: int, substeps: int = 128) -> ExperimentReport:
    """One-step L^2 errors of Euler, Taylor (levels 2 and 3), and the
    splitting step from z0 = i eps, per horizon."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    horizons = [float(t) for t in horizons]
    if any(t <= 0.0 for t in horizons):
        raise ValueError("horizons must be positive")
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")

    def probes(z0, path, t, ref) -> tuple:
        table = compute_table(path, t, 3)
        b = path.value_at(t)
        return tuple(abs(ref - a) for a in (
            euler_step(z0, t, b, kappa),
            taylor_step(z0, table, 2, kappa),
            taylor_step(z0, table, 3, kappa),
            nv_step(z0, t, b, kappa, UNIT_NOISE)))

    rows = []
    for j, t in enumerate(horizons):
        errs = _reference_errors(complex(0.0, eps), t, substeps, kappa,
                                 probes, seed, j * replicas, replicas)
        labels = ("euler_l2", "taylor2_l2", "taylor3_l2", "nv_l2")
        row = {"horizon": t}
        for col, label in enumerate(labels):
            row[label] = _l2_and_stderr(errs[:, col])[0]
        rows.append(row)

    config = {"kappa": kappa, "eps": eps, "horizons": horizons,
              "replicas": replicas, "substeps": substeps}
    return ExperimentReport("scheme_comparison", rows, None, config, seed)


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
