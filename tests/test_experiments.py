"""Monte Carlo experiment drivers: determinism, statistics, file output."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from slesim import experiments
from slesim.brownian import BrownianPath, philox_stream
from slesim.cli import main
from slesim.experiments import (ReferenceConvergenceError,
                                _converged_reference, divergence_probe,
                                epsilon_scaling, moment_preservation,
                                scheme_comparison, write_report_csv,
                                write_report_sidecar)
from slesim.schemes import SCALED_NOISE, nv_step

EPS3 = [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]


def test_epsilon_scaling_is_deterministic():
    a = epsilon_scaling(EPS3, 0.5, 2, 2.0, 25, seed=9, substeps=32)
    b = epsilon_scaling(EPS3, 0.5, 2, 2.0, 25, seed=9, substeps=32)
    assert a.rows == b.rows
    assert a.fit == b.fit
    c = epsilon_scaling(EPS3, 0.5, 2, 2.0, 25, seed=10, substeps=32)
    assert c.rows != a.rows


def test_epsilon_scaling_errors_shrink():
    report = epsilon_scaling(EPS3, 0.5, 2, 2.0, 40, seed=1, substeps=32)
    errs = [row["l2_error"] for row in report.rows]
    assert errs[0] > errs[1] > errs[2] > 0.0
    slope, _, r2 = report.fit
    assert slope > 1.2
    assert 0.0 < r2 <= 1.0
    assert [row["eps"] for row in report.rows] == EPS3
    assert report.rows[0]["horizon"] == EPS3[0] ** 2.5


def test_epsilon_scaling_fit_needs_three_points():
    report = epsilon_scaling(EPS3[:2], 0.5, 2, 2.0, 25, seed=2, substeps=32)
    assert report.fit is None


def test_epsilon_scaling_validation():
    with pytest.raises(ValueError):
        epsilon_scaling(EPS3, -0.5, 2, 2.0, 10, seed=0)
    with pytest.raises(ValueError):
        epsilon_scaling([1.5], 0.5, 2, 2.0, 10, seed=0)
    with pytest.raises(ValueError):
        epsilon_scaling(EPS3, 0.5, 2, 2.0, 0, seed=0)


def test_divergence_deterministic_words_are_exact():
    eps, delta = 2.0 ** -6, 0.5
    report = divergence_probe(eps, delta, [(0,), (0, 0)], 50, seed=3,
                              resolution=64)
    by_word = {row["word"]: row for row in report.rows}
    # X^(0) = t and X^(0,0) = t^2/2 carry no randomness, so the estimates
    # collapse to eps^(1-delta*deg) times the hand constant
    assert abs(by_word["0"]["estimate"] - eps ** 0.5) < 1e-12
    assert abs(by_word["00"]["estimate"] - 0.5) < 1e-12
    # rounding in the per-replica cumulative sums leaves ulp-level spread
    assert by_word["0"]["stderr"] <= 1e-12
    assert by_word["00"]["stderr"] <= 1e-12
    for row in report.rows:
        assert abs(row["exponent"] - row["theory_exponent"]) < 1e-9
        assert row["exponent_stderr"] <= 1e-12


def test_divergence_skips_vanishing_words():
    report = divergence_probe(0.125, 0.5, [(1, 1), (0,), (0, 1)], 50,
                              seed=4, resolution=32)
    assert report.config["skipped_words"] == ["11", "01"]
    assert [row["word"] for row in report.rows] == ["0"]


def test_divergence_magnitudes_grow_with_degree():
    report = divergence_probe(2.0 ** -6, 0.5, [(1,), (0,), (1, 0), (0, 0)],
                              400, seed=5, resolution=64)
    est = [row["estimate"] for row in report.rows]
    degs = [row["deg"] for row in report.rows]
    assert degs == sorted(degs)
    assert est == sorted(est)


def test_divergence_validation():
    with pytest.raises(ValueError):
        divergence_probe(1.5, 0.5, [(0,)], 10, seed=0)
    with pytest.raises(ValueError):
        divergence_probe(0.1, 2.5, [(0,)], 10, seed=0)
    with pytest.raises(ValueError):
        divergence_probe(0.1, 0.5, [(0,)], 1, seed=0)


def test_moment_targets_and_deviations():
    report = moment_preservation(2.0, 1j, 1.0, 8, 4000, seed=6)
    assert len(report.rows) == 8
    for k, row in enumerate(report.rows):
        t = (k + 1) / 8.0
        assert row["t"] == t
        assert row["target_re"] == -1.0 - 2.0 * t
        assert row["target_im"] == 0.0
        assert row["deviation_se"] <= 5.0
    assert report.rows[-1]["target_re"] == -3.0


def test_moment_stderr_scales_like_inverse_root_replicas():
    small = moment_preservation(2.0, 1j, 1.0, 4, 2000, seed=8)
    large = moment_preservation(2.0, 1j, 1.0, 4, 8000, seed=8)
    for s, l in zip(small.rows, large.rows):
        ratio = s["stderr"] / l["stderr"]
        assert 1.7 <= ratio <= 2.3


def test_moment_rows_equal_stored_matrix_recomputation():
    # reference: keep every step's Z^2 in one (steps, replicas) matrix,
    # then reduce each row
    kappa, z0, T, n_steps, replicas, seed = 2.0, 0.5 + 1j, 1.0, 8, 2000, 3
    report = moment_preservation(kappa, z0, T, n_steps, replicas, seed)
    incs = philox_stream(seed, experiments._TAG_MATRIX).standard_normal(
        (replicas, n_steps))
    times = (T * (np.arange(n_steps + 1) / n_steps)).tolist()
    z = np.full(replicas, z0, dtype=np.complex128)
    squares = np.empty((n_steps, replicas), dtype=np.complex128)
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        z = nv_step(z, h, math.sqrt(h) * incs[:, k], kappa, SCALED_NOISE)
        squares[k] = z * z
    assert len(report.rows) == n_steps
    for k, row in enumerate(report.rows):
        mean = complex(np.mean(squares[k]))
        target = z0 * z0 + (kappa - 4.0) * times[k + 1]
        se = math.sqrt((float(np.var(squares[k].real))
                        + float(np.var(squares[k].imag))) / replicas)
        assert row == {"t": times[k + 1], "mean_re": mean.real,
                       "mean_im": mean.imag, "target_re": target.real,
                       "target_im": target.imag, "stderr": se,
                       "deviation_se": abs(mean - target) / se}


def test_moment_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        moment_preservation(2.0, 1j, 0.0, 4, 100, seed=0)
    with pytest.raises(ValueError):
        moment_preservation(2.0, 1j, 1.0, 0, 100, seed=0)
    with pytest.raises(ValueError):
        moment_preservation(2.0, 1j, 1.0, 4, 1, seed=0)
    with pytest.raises(ValueError, match="kappa"):
        moment_preservation(math.nan, 1j, 1.0, 4, 100, seed=0)
    # refused before any arithmetic, so no RuntimeWarning comes first;
    # 1e200j is finite but its square overflows
    for z0 in (complex(math.inf, 1.0), complex(0.0, math.nan), 1e200j):
        with pytest.raises(ValueError, match="z0"):
            moment_preservation(2.0, z0, 1.0, 2, 100, seed=0)
    out = tmp_path / "new"
    assert main(["moments", "--z0-im", "1e200", "--replicas", "100",
                 "--steps", "2", "--out", str(out)]) == 1
    assert "z0" in capsys.readouterr().err
    assert not out.exists()


def test_moment_nan_stderr_is_not_a_pass():
    # a huge finite kappa overflows the noise displacement squared; the
    # NaN standard error must not turn into a deviation of 0 standard
    # errors
    with np.errstate(over="ignore", invalid="ignore"):
        row = moment_preservation(1e308, 1j, 1.0, 2, 100, seed=0).rows[0]
    assert math.isnan(row["stderr"])
    assert math.isnan(row["deviation_se"])


def test_scheme_comparison_crossover():
    eps = 2.0 ** -6
    report = scheme_comparison(2.0, eps, [eps ** 2.5, eps ** 1.75], 60,
                               seed=11, substeps=64)
    short, long_ = report.rows
    # near-field: higher truncation wins; far field: it diverges while
    # the splitting step stays accurate
    assert short["taylor3_l2"] < short["taylor2_l2"] < short["euler_l2"]
    assert long_["taylor3_l2"] > long_["taylor2_l2"] > long_["euler_l2"]
    assert long_["nv_l2"] < long_["euler_l2"]
    assert short["horizon"] == eps ** 2.5


def test_scheme_comparison_deterministic():
    eps = 2.0 ** -5
    a = scheme_comparison(2.0, eps, [eps ** 2.0], 30, seed=12, substeps=32)
    b = scheme_comparison(2.0, eps, [eps ** 2.0], 30, seed=12, substeps=32)
    assert a.rows == b.rows


def test_epsilon_scaling_probes_taylor_once_per_refinement(monkeypatch):
    # each reference doubling probes the Taylor error once; the accepted
    # probe is the replica's error, so nothing is recomputed afterwards
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "compute_table",
                        counted("compute_table", experiments.compute_table))
    monkeypatch.setattr(experiments, "taylor_step",
                        counted("taylor_step", experiments.taylor_step))
    monkeypatch.setattr(BrownianPath, "refine",
                        counted("refine", BrownianPath.refine))
    epsilon_scaling(EPS3, 0.5, 2, 2.0, 7, seed=9, substeps=32)
    assert calls["refine"] >= 3 * 7
    assert calls["compute_table"] == calls["refine"]
    assert calls["taylor_step"] == calls["refine"]


def test_replica_seeds_build_no_seed_sequence(monkeypatch):
    # every replica's sub-seed comes from one block hash per eps level
    built = Counter()
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built["SeedSequence"] += 1
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    np.random.SeedSequence(0)  # the patch counts
    assert built["SeedSequence"] == 1
    divergence_probe(0.125, 0.5, [(1,), (0, 1)], 5, seed=2, resolution=8)
    epsilon_scaling(EPS3, 0.5, 2, 2.0, 3, seed=4, substeps=8)
    assert built["SeedSequence"] == 1


def test_reference_convergence_error():
    # an impossible budget (zero measured error forces the flat relative
    # floor) cannot be met within the doubling limit on a rough driver
    path = BrownianPath.sample_uniform(1.0, 4, seed=13)
    with pytest.raises(ReferenceConvergenceError):
        _converged_reference(1j, path, 1.0, 6.0, lambda ref: (0.0,))


def test_report_csv_roundtrip(tmp_path):
    report = moment_preservation(2.0, 1j, 1.0, 3, 200, seed=14)
    target = tmp_path / "report.csv"
    write_report_csv(report, target)
    lines = target.read_text().splitlines()
    assert lines[0] == ",".join(report.rows[0].keys())
    assert len(lines) == len(report.rows) + 1
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    for key, value in report.rows[0].items():
        assert float(first[key]) == value  # repr round-trips exactly


def test_report_sidecar(tmp_path):
    report = epsilon_scaling(EPS3, 0.5, 2, 2.0, 25, seed=15, substeps=32)
    target = tmp_path / "report.json"
    write_report_sidecar(report, target, 1.25)
    payload = json.loads(target.read_text())
    assert payload["name"] == "epsilon_scaling"
    assert payload["seed"] == 15
    assert payload["config"]["delta"] == 0.5
    assert payload["runtime_seconds"] == 1.25
    assert payload["stats"] == {}
    assert "created_unix" in payload
    assert payload["fit"]["slope"] == report.fit[0]
