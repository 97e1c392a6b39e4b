"""Monte Carlo experiment drivers: determinism, statistics, file output."""

import json
import math
import tracemalloc
from collections import Counter
from itertools import accumulate, count

import numpy as np
import pytest

from slesim import experiments, schemes
from slesim.brownian import BrownianPath, _sfc64_stream, philox_stream
from slesim.cli import main
from slesim.experiments import (ReferenceConvergenceError,
                                divergence_probe, epsilon_scaling,
                                moment_preservation, scheme_comparison,
                                write_report_csv, write_report_sidecar)
from slesim.integrals import compute_table, word_entries
from slesim.schemes import (flow_drift, flow_noise, reference_solve, sqrt_h,
                            taylor_step)
from slesim.vfalgebra import compose, eval_term

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


@pytest.mark.parametrize("eps", [[0.25, 0.25, 0.25], [0.25, 0.125, 0.25]])
def test_epsilon_scaling_rejects_repeated_eps(eps):
    # three equal eps used to fit a line of slope 1.374 with r2 0
    with pytest.raises(ValueError, match="distinct"):
        epsilon_scaling(eps, 0.5, 2, 2.0, 4, seed=0, substeps=8)


def _forbid_draws(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a driver was drawn")

    # keyed drivers (scaling, compare) and sequential ones (divergence)
    monkeypatch.setattr(experiments, "_uniform_block", no_draws)
    monkeypatch.setattr(experiments, "_sfc64_stream", no_draws)


@pytest.mark.parametrize("r", [13, -1])
def test_epsilon_scaling_rejects_level_before_drawing(monkeypatch, r):
    # r = 13 used to solve, double and probe 16,383 word prefixes first
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="truncation level"):
        epsilon_scaling(EPS3, 0.5, r, 2.0, 4, seed=0, substeps=8)


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


def test_divergence_rejects_all_vanishing_words(monkeypatch):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="vanishes"):
        divergence_probe(0.125, 0.5, [(0, 1), (1, 1)], 50, seed=4)


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan])
def test_divergence_refuses_kappa_before_drawing(monkeypatch, kappa):
    # kappa = 0 used to raise only once every driver was drawn and
    # integrated, and NaN was not refused at all: its rows came out NaN
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError, match="kappa"):
        divergence_probe(0.125, 0.5, [(0,), (1,)], 50, seed=4, kappa=kappa)


@pytest.mark.parametrize("resolution, message", [
    (256, "the horizon 4.75e-163 ** (2 - delta) = 1e-323 is too small "
          "for 256 float64 intervals"),
    (1, "the horizon 2.375e-163 ** (2 - delta) = 0.0 is too small for 1 "),
])
def test_divergence_refuses_an_underflowed_grid_before_drawing(
        monkeypatch, resolution, message):
    # eps^1.99 = 1e-323 holds one float64 interval but not 256, and
    # (eps/2)^1.99 underflows to 0: either used to be refused only after
    # a level's first block was drawn, as "times must be strictly
    # increasing"
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError) as info:
        divergence_probe(4.75e-163, 0.01, [(1,)], 2, 0,
                         resolution=resolution)
    assert str(info.value).startswith("eps = 4.75e-163, delta = 0.01: ")
    assert message in str(info.value)


@pytest.mark.parametrize("run", [
    lambda: divergence_probe(0.125, 0.5, [(1,)], 4, 0, kappa=5e-324),
    lambda: epsilon_scaling(EPS3, 0.5, 2, 5e-324, 4, seed=0, substeps=8),
    lambda: scheme_comparison(5e-324, 0.125, [0.01], 4, 0, substeps=8),
], ids=["divergence", "scaling", "compare"])
def test_kappa_whose_a_overflows_is_refused_before_drawing(monkeypatch, run):
    # a = 2 / kappa is inf below kappa of about 1.1e-308: divergence used
    # to write inf and nan rows, and scaling and compare blamed a
    # reference still moving by nan
    _forbid_draws(monkeypatch)
    with pytest.raises(OverflowError, match=r"kappa = 5e-324, a = inf"):
        run()


def test_divergence_bytes_do_not_depend_on_the_block_size(monkeypatch,
                                                          tmp_path):
    # 150 = 21 * 7 + 3 replicas: with blocks of 7 drivers the last is
    # short, where the default draws and walks them all as one block
    def csv_bytes(name):
        report = divergence_probe(0.125, 0.5, [(1,), (1, 0), (0, 0)], 150,
                                  seed=8, resolution=16)
        write_report_csv(report, tmp_path / name)
        return (tmp_path / name).read_bytes()

    default = csv_bytes("default.csv")
    monkeypatch.setattr(experiments, "_DRIVER_LANES", 7)
    assert csv_bytes("seven.csv") == default


def test_divergence_drivers_are_the_stream_rows_in_order():
    # every driver at eps, replica by replica, then every one at eps/2,
    # each row of the one stream scaled by sqrt(t / n) and summed from 0
    eps, delta, kappa, replicas, n = 0.125, 0.5, 3.0, 70, 16
    words = [(1,), (1, 0), (1, 0, 0)]
    report = divergence_probe(eps, delta, words, replicas, seed=6,
                              kappa=kappa, resolution=n)
    gen = _sfc64_stream(6, experiments._TAG_DRIVERS)
    est, rel_se = [], []
    for e in (eps, 0.5 * eps):
        t = e ** (2.0 - delta)
        drivers = [np.concatenate(([0.0], np.cumsum(x * math.sqrt(t / n))))
                   for x in gen.standard_normal((replicas, n))]
        entries = word_entries(t * (np.arange(n + 1) / n), drivers, words)
        norms = [experiments._l2_and_stderr(col) for col in entries.T]
        est.append([abs(eval_term(compose(w), complex(0.0, e), kappa)) * m
                    for w, (m, _) in zip(words, norms)])
        rel_se.append([se / m for m, se in norms])
    assert [row["word"] for row in report.rows] == ["1", "10", "100"]
    for k, row in enumerate(report.rows):
        assert row["estimate"] == est[0][k]
        assert row["stderr"] == est[0][k] * rel_se[0][k]
        assert row["exponent"] == (math.log(est[0][k] / est[1][k])
                                   / math.log(2.0))


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


def test_moment_memory_does_not_grow_with_replicas():
    # a block of replicas is drawn, stepped and reduced at a time: 200k
    # replicas over 16 steps would hold 25.6 MB of increments at once.
    # One block's buffers and a first call's setup trace about 2.1 MB; a
    # second live block of increments (1 MB) would break the bound
    tracemalloc.start()
    try:
        moment_preservation(2.0, 1j, 1.0, 16, 200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6e6


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


@pytest.mark.parametrize("block, replicas", [(7, 30), (None, 8197)])
def test_block_increments_equal_one_matrix_draw(monkeypatch, block,
                                                replicas):
    # each block of replicas draws its rows of the one (replicas, steps)
    # matrix; at kappa 1 and steps of 1/4 the kernel's displacements are
    # the draws times 0.5 exactly.  Neither replica count is a multiple of
    # the block, so the last block is short
    if block is not None:
        monkeypatch.setattr(experiments, "_NOISE_BLOCK", block)
    block = experiments._NOISE_BLOCK
    assert replicas % block != 0
    kernel = experiments._nv_array_step
    seen = []

    def record(square, c, d):
        seen.append(2.0 * d)
        return kernel(square, c, d)

    monkeypatch.setattr(experiments, "_nv_array_step", record)
    moment_preservation(1.0, 1j, 1.0, 4, replicas, 9)
    want = _sfc64_stream(9, experiments._TAG_MATRIX).standard_normal(
        (replicas, 4))
    starts = range(0, replicas, block)
    assert len(seen) == 4 * len(starts)
    for j, a in enumerate(starts):
        for k in range(4):
            assert seen[4 * j + k].tobytes() == want[a:a + block, k].tobytes()


def test_block_displacements_round_sqrt_h_then_sqrt_kappa(monkeypatch):
    # every displacement the kernel gets is sqrt(kappa) * (sqrt(h) * x),
    # two roundings in that order.  At kappa 2 and steps of about 1/3
    # neither factor scales exactly, so one product sqrt(h) * sqrt(kappa)
    # rounds some lanes differently; 8197 replicas leave a short last block
    replicas, steps = 8197, 3
    kernel = experiments._nv_array_step
    seen = []

    def record(square, c, d):
        seen.append(d.copy())
        return kernel(square, c, d)

    monkeypatch.setattr(experiments, "_nv_array_step", record)
    moment_preservation(2.0, 1j, 1.0, steps, replicas, 9)
    draws = _sfc64_stream(9, experiments._TAG_MATRIX).standard_normal(
        (replicas, steps))
    times = experiments._uniform_grid(1.0, steps).tolist()
    block = experiments._NOISE_BLOCK
    starts = range(0, replicas, block)
    assert len(starts) == 2
    assert len(seen) == steps * len(starts)
    merged = 0
    for j, a in enumerate(starts):
        for k in range(steps):
            root_h = math.sqrt(times[k + 1] - times[k])
            x = draws[a:a + block, k]
            assert seen[steps * j + k].tobytes() == \
                ((x * root_h) * math.sqrt(2.0)).tobytes()
            merged += int(np.sum(x * (root_h * math.sqrt(2.0))
                                 != (x * root_h) * math.sqrt(2.0)))
    # the configuration tells the two orders apart
    assert merged > 0


def _rows_by_block_rule(squares, kappa, z0, times):
    # the reduction moment_preservation documents, over a (steps,
    # replicas) matrix of W: per block of _NOISE_BLOCK lanes its sum and
    # its spread about its mean, merged in block order by the rule of
    # Chan, Golub & LeVeque
    block = experiments._NOISE_BLOCK
    replicas = squares.shape[1]
    rows = []
    for k, w_k in enumerate(squares):
        m = 0
        for a in range(0, replicas, block):
            w = w_k[a:a + block]
            n = len(w)
            re, im = w.real.sum(), w.imag.sum()
            spread_n = np.square((w - complex(re / n, im / n))
                                 .view(np.float64)).sum()
            if m == 0:
                total, spread = complex(re, im), spread_n
            else:
                gap = total * (n / m) - complex(re, im)
                spread += spread_n
                spread += (gap.real * gap.real + gap.imag * gap.imag) * (
                    m / (n * (m + n)))
                total += complex(re, im)
            m += n
        mean = complex(total.real / replicas, total.imag / replicas)
        target = z0 * z0 + (kappa - 4.0) * times[k + 1]
        se = math.sqrt(spread / replicas / replicas)
        rows.append({"t": times[k + 1], "mean_re": mean.real,
                     "mean_im": mean.imag, "target_re": target.real,
                     "target_im": target.imag, "stderr": se,
                     "deviation_se": abs(mean - target) / se})
    return rows


def _assert_rows_near_full_row_reduction(rows, squares, kappa, z0, times):
    # the block rule rounds apart from np.mean and np.var over the full
    # row only in the last bits; the deviation's numerator is a small
    # difference, so it gets the looser bound
    replicas = squares.shape[1]
    assert len(rows) == len(squares)
    for k, (row, w) in enumerate(zip(rows, squares)):
        mean = complex(np.mean(w))
        se = math.sqrt((float(np.var(w.real))
                        + float(np.var(w.imag))) / replicas)
        target = z0 * z0 + (kappa - 4.0) * times[k + 1]
        got = complex(row["mean_re"], row["mean_im"])
        assert abs(got - mean) <= 1e-13 * abs(mean)
        assert abs(row["stderr"] - se) <= 1e-13 * se
        dev = abs(mean - target) / se
        assert abs(row["deviation_se"] - dev) <= 1e-9 * dev


def test_moment_rows_equal_stored_matrix_recomputation(monkeypatch):
    # reference: keep every step's W = Z^2 in one (steps, replicas)
    # matrix, then reduce each row by the documented block rule; each
    # step translates W by the drift flow, w -> (sqrt_h(w - 2h) +
    # sqrt(kappa) dB)^2 - 2h, through public sqrt_h and flow_noise.  The
    # default block holds all 2000 replicas; blocks of 7 and 300 merge
    kappa, z0, T, n_steps, replicas, seed = 2.0, 0.5 + 1j, 1.0, 8, 2000, 3
    incs = _sfc64_stream(seed, experiments._TAG_MATRIX).standard_normal(
        (replicas, n_steps))
    times = (T * (np.arange(n_steps + 1) / n_steps)).tolist()
    z = np.full(replicas, z0, dtype=np.complex128)
    w = z * z
    squares = np.empty((n_steps, replicas), dtype=np.complex128)
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        y = flow_noise(sqrt_h(w - 2.0 * h), math.sqrt(h) * incs[:, k], kappa)
        w = y * y - 2.0 * h
        squares[k] = w
    for block in (experiments._NOISE_BLOCK, 7, 300):
        monkeypatch.setattr(experiments, "_NOISE_BLOCK", block)
        report = moment_preservation(kappa, z0, T, n_steps, replicas, seed)
        assert len(report.rows) == n_steps
        assert report.rows == _rows_by_block_rule(squares, kappa, z0, times)
        _assert_rows_near_full_row_reduction(report.rows, squares, kappa,
                                             z0, times)


def _moment_squares_by(step, v, T, n_steps, replicas, seed):
    # v, square = step(v, h, noise) on fresh arrays from the start v, with
    # square the Z^2 each row reads; returns the grid and the (steps,
    # replicas) matrix of those squares
    incs = _sfc64_stream(seed, experiments._TAG_MATRIX).standard_normal(
        (replicas, n_steps))
    times = (T * (np.arange(n_steps + 1) / n_steps)).tolist()
    squares = np.empty((n_steps, replicas), dtype=np.complex128)
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        v, squares[k] = step(v, h, math.sqrt(h) * incs[:, k])
    return times, squares


def _moment_squares_by_flows(kappa, z0, T, n_steps, replicas, seed):
    # each step as nv_step's three flows on Z, through public sqrt_h
    def step(z, h, noise):
        z = flow_drift(flow_noise(flow_drift(z, h / 2), noise, kappa), h / 2)
        return z, z * z

    z = np.full(replicas, z0, dtype=np.complex128)
    return _moment_squares_by(step, z, T, n_steps, replicas, seed)


def _moment_squares_in_w(kappa, z0, T, n_steps, replicas, seed):
    # each step on W = Z^2, from the numpy square of the z0 copies: the
    # drift flow translates W by -4t, so a step is one public sqrt_h
    # between two translations
    def step(w, h, noise):
        y = flow_noise(sqrt_h(w - 2.0 * h), noise, kappa)
        w = y * y - 2.0 * h
        return w, w

    z = np.full(replicas, z0, dtype=np.complex128)
    return _moment_squares_by(step, z * z, T, n_steps, replicas, seed)


@pytest.mark.parametrize("replicas", [30, 8197])
def test_moment_rows_follow_the_block_rule(replicas):
    # the rows are those stepped in W through the public maps and reduced
    # by the block rule, one block at 30 replicas; 8197 replicas merge a
    # block of 5 into the default block
    kappa, z0, T, n_steps, seed = 6.0, -0.3 + 0.7j, 0.5, 5, 12
    args = (kappa, z0, T, n_steps, replicas, seed)
    times, squares = _moment_squares_in_w(*args)
    want = _rows_by_block_rule(squares, kappa, z0, times)
    assert moment_preservation(*args).rows == want
    _assert_rows_near_full_row_reduction(want, squares, kappa, z0, times)


@pytest.mark.parametrize("args", [(6.0, -0.3 + 0.7j, 0.5, 5, 8197, 12),
                                  (2.0, 0.5 + 1j, 1.0, 8, 2000, 3),
                                  (0.5, -1.5 + 0.05j, 2.0, 16, 500, 7)])
def test_moment_means_stay_with_the_flows_in_z(args):
    # stepping W and not Z rounds differently, by a few ulps of each row
    # mean; the NV flows in Z are the independent oracle
    times, squares = _moment_squares_by_flows(*args)
    got = moment_preservation(*args).rows
    want = _rows_by_block_rule(squares, args[0], args[1], times)
    assert len(got) == len(want) == args[3]
    for a, b in zip(got, want):
        mean = complex(a["mean_re"], a["mean_im"])
        exact = complex(b["mean_re"], b["mean_im"])
        assert abs(mean - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("kappa, T", [(2.0, math.inf), (math.inf, 1.0)])
def test_moment_refuses_non_finite_horizon_and_kappa(monkeypatch, kappa, T):
    # both used to give NaN rows with RuntimeWarnings; they are refused
    # before any increment is drawn
    def no_draws(*args):
        raise AssertionError("increments were drawn")

    monkeypatch.setattr(experiments, "_sfc64_stream", no_draws)
    with pytest.raises(ValueError, match="finite"):
        moment_preservation(kappa, 1j, T, 4, 100, 0)


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


def test_moment_overflowed_stderr_is_not_a_pass():
    # both starts pass the finite-square check, and the spread of Z^2
    # overflows: an infinite standard error must not turn into a
    # deviation of 0 standard errors.  At 1e153 i the exact spread, about
    # 4e308, is past the float64 maximum.  At 1e150 i it is only 4e302;
    # there the 100 equal real parts of W sum pairwise to a mean one ulp
    # off, and that deviation, about 1.5e284, overflows when squared
    for z0 in (1e150j, 1e153j):
        with np.errstate(over="ignore", invalid="ignore"):
            row = moment_preservation(2.0, z0, 1.0, 2, 100, seed=0).rows[0]
        assert row["stderr"] == math.inf
        assert math.isnan(row["deviation_se"])


@pytest.mark.parametrize("flags,cause", [
    # the squared one-ulp deviation of a rounded mean, not the spread of
    # Z^2 (see test_moment_overflowed_stderr_is_not_a_pass)
    (["--z0-im", "1e150"], "overflow encountered in square"),
    (["--kappa", "1e308"], "overflow encountered in multiply"),
    (["--T", "1e308"], "overflow encountered in multiply"),
    # the spread of Z^2 itself is past the float64 maximum
    (["--z0-im", "1e153"], "overflow encountered in square"),
])
def test_moment_overflow_exits_two(tmp_path, capsys, flags, cause):
    # finite flags whose run leaves float64: a numerical failure with no
    # RuntimeWarning (pytest makes one an error) and no output
    out = tmp_path / "new"
    assert main(["moments", *flags, "--replicas", "100", "--steps", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: the run left the float64 range" in err
    assert cause in err
    assert not out.exists()


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
    # each reference doubling probes each replica's Taylor error once; the
    # accepted probe is the replica's error, so nothing is recomputed
    # afterwards
    calls = _counting(monkeypatch, experiments, "taylor_step")
    report = epsilon_scaling(EPS3, 0.5, 2, 2.0, 7, seed=9, substeps=32)
    refinements = sum(k * n for counts in report.stats["reference_doublings"]
                      for k, n in enumerate(counts))
    assert refinements >= 3 * 7
    assert len(calls) == refinements


def test_replica_seeds_build_no_seed_sequence(monkeypatch):
    # a keyed replica is a word of its streams' starting counter, not a
    # hashed sub-seed; divergence drivers come from one SFC64 stream,
    # seeded by one SeedSequence whatever the replica count
    built = Counter()
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built["SeedSequence"] += 1
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    np.random.SeedSequence(0)  # the patch counts
    assert built["SeedSequence"] == 1
    for replicas in (5, 500):
        built.clear()
        divergence_probe(0.125, 0.5, [(1,), (0, 1)], replicas, seed=2,
                         resolution=8)
        assert built["SeedSequence"] == 1
    built.clear()
    epsilon_scaling(EPS3, 0.5, 2, 2.0, 3, seed=4, substeps=8)
    assert built["SeedSequence"] == 0


def _replica_drivers(seed, replica, t, substeps):
    """One reference replica's driver on [0, t] as drawn, then after each
    doubling: the oracle of the draw rule.

    The driver is built here from ``philox_stream``, not by ``brownian``:
    its increments are the first normals of the replica's stream of tag
    0, and at doubling d each interval (t0, t1), in order, gains the
    bridge midpoint of the next normal of its stream of tag d.  Yields
    (times, values) as lists.
    """
    times = [t * (k / substeps) for k in range(substeps + 1)]
    incs = philox_stream(seed, 0, replica).standard_normal(substeps)
    values = [0.0, *accumulate((incs * math.sqrt(t / substeps)).tolist())]
    for doubling in count(1):
        yield times, values
        xi = philox_stream(seed, doubling,
                           replica).standard_normal(len(times) - 1)
        tm = [0.5 * (t0 + t1) for t0, t1 in zip(times, times[1:])]
        vm = [0.5 * (v0 + v1) + math.sqrt(0.25 * (t1 - t0)) * x
              for v0, v1, t0, t1, x in zip(values, values[1:], times,
                                           times[1:], xi.tolist())]
        times = [s for pair in zip(times, tm) for s in pair] + times[-1:]
        values = [s for pair in zip(values, vm) for s in pair] + values[-1:]


def _scalar_reference(z0, t, substeps, kappa, depth, probes, seed, replica):
    """One replica's reference loop on its own driver, built by
    :func:`_replica_drivers`: the oracle.

    Returns (errors, doublings) or raises ReferenceConvergenceError, as
    the per-replica loop did before every replica of a run stepped
    together.
    """
    drivers = _replica_drivers(seed, replica, t, substeps)
    times, values = next(drivers)
    ref = reference_solve(z0, BrownianPath(times, values, seed), t, kappa)
    for doubling in range(1, experiments._MAX_DOUBLINGS + 1):
        times, values = next(drivers)
        path = BrownianPath(times, values, seed)
        finer = reference_solve(z0, path, t, kappa)
        errors = tuple(abs(finer - a) for a in probes(
            z0, t, compute_table(path, t, depth), values[-1]))
        moved = abs(finer - ref)
        budget = max(experiments.REF_ERROR_FRACTION * min(errors),
                     experiments.REFERENCE_RTOL * abs(finer))
        if moved <= budget:
            return errors, doubling
        ref = finer
    raise ReferenceConvergenceError(
        f"reference still moving by {moved:.3g} after "
        f"{experiments._MAX_DOUBLINGS} refinements (budget {budget:.3g})")


def _taylor2(z0, t, table, b):
    return (taylor_step(z0, table, 2, 2.0), complex(b))


_LANE_RUN = ([0.125j, 0.0625j], [0.125 ** 2.5, 0.0625 ** 2.5], 8, 2.0, 2,
             _taylor2)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_lane_loop_equals_scalar_loop(monkeypatch):
    # 2 rows of 40 lanes: the lane kernel runs the first doublings, the
    # scalar tail the rest; every error and every doubling count must be
    # the per-replica loop's
    starts, horizons, substeps, kappa, depth, probes = _LANE_RUN
    lane_calls = _counting(monkeypatch, schemes, "_nv_lanes")
    tail_calls = _counting(monkeypatch, schemes, "_nv_steps")
    errors, doublings = experiments._reference_errors(
        starts, horizons, substeps, kappa, depth, probes, 5, 40)
    assert lane_calls and tail_calls
    for j, (z0, t) in enumerate(zip(starts, horizons)):
        want = [_scalar_reference(z0, t, substeps, kappa, depth, probes, 5,
                                  1 + j * 40 + i) for i in range(40)]
        assert errors[j].tolist() == [list(e) for e, _ in want]
        assert doublings[j] == np.bincount([d for _, d in want]).tolist()


def test_scalar_tail_builds_no_path(monkeypatch):
    # 9 lanes, all below schemes._LANE_CROSSOVER: every reference is the
    # scalar tail's, stepped on the row's arrays
    built = []
    init = BrownianPath.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BrownianPath, "__init__", counting)
    tail_calls = _counting(monkeypatch, schemes, "_nv_steps")
    epsilon_scaling(EPS3, 0.5, 2, 2.0, 3, seed=4, substeps=8)
    assert tail_calls and not built


def _record_drivers(monkeypatch):
    """Collects, per call of ``_reference_rows``, copies of the (grid,
    drivers) of every row: the drivers as drawn, then after each
    doubling."""
    calls = []
    reference_rows = experiments._reference_rows

    def recording(starts, grids, values, kappa):
        calls.append([(t.copy(), v.copy()) for t, v in zip(grids, values)])
        return reference_rows(starts, grids, values, kappa)

    monkeypatch.setattr(experiments, "_reference_rows", recording)
    return calls


def test_reference_drivers_are_their_replicas_streams(monkeypatch):
    # no budget is ever met, so every replica stays live for both
    # doublings; replica i of row j, as drawn and after each doubling,
    # is rebuilt from philox_stream(seed, tag, 1 + j * replicas + i) alone
    monkeypatch.setattr(experiments, "_MAX_DOUBLINGS", 2)
    monkeypatch.setattr(experiments, "REF_ERROR_FRACTION", -1.0)
    monkeypatch.setattr(experiments, "REFERENCE_RTOL", -1.0)
    calls = _record_drivers(monkeypatch)
    seed, replicas, substeps = 2 ** 64 - 3, 3, 4
    with pytest.raises(ReferenceConvergenceError):
        epsilon_scaling(EPS3, 0.5, 2, 2.0, replicas, seed, substeps)
    assert len(calls) == 3
    for j, eps in enumerate(EPS3):
        for i in range(replicas):
            want = _replica_drivers(seed, 1 + j * replicas + i,
                                    eps ** 2.5, substeps)
            for call, (times, values) in zip(calls, want):
                grid, drivers = call[j]
                assert grid.tobytes() == np.array(times).tobytes()
                assert drivers[i].tobytes() == np.array(values).tobytes()


def test_no_reference_replica_draws_a_paths_stream(monkeypatch):
    # a BrownianPath is replica 0 of its seed; the references are 1 and
    # up, so no increment of any of them is one of the path's
    calls = _record_drivers(monkeypatch)
    seed, substeps = 7, 8
    epsilon_scaling(EPS3, 0.5, 2, 2.0, 30, seed, substeps)
    for eps, (times, drivers) in zip(EPS3, calls[0]):
        path = BrownianPath.sample_uniform(eps ** 2.5, substeps, seed)
        assert times.tolist() == path.times.tolist()
        shared = np.intersect1d(np.diff(drivers), np.diff(path.values))
        assert shared.size == 0


def test_reference_convergence_error(monkeypatch):
    # one doubling allowed: row 0 is probed against a far point, so its
    # budget is loose and all its lanes converge; in row 1 replica 0 is
    # the first lane still moving, which must name the error although
    # later lanes fail too
    monkeypatch.setattr(experiments, "_MAX_DOUBLINGS", 1)
    starts, horizons, substeps, kappa, depth, _ = _LANE_RUN

    def probes(z0, t, table, b):
        return ((z0 + 1e3,) if z0 == starts[0]
                else _taylor2(z0, t, table, b))

    failures = []
    for k in range(80):
        try:
            _scalar_reference(starts[k // 40], horizons[k // 40], substeps,
                              kappa, depth, probes, 11, 1 + k)
        except ReferenceConvergenceError as exc:
            failures.append((k, str(exc)))
    assert failures[0][0] == 40 and len(failures) > 1
    with pytest.raises(ReferenceConvergenceError) as caught:
        experiments._reference_errors(starts, horizons, substeps, kappa,
                                      depth, probes, 11, 40)
    assert str(caught.value) == failures[0][1]


def test_reference_convergence_error_exits_two(monkeypatch, tmp_path,
                                               capsys):
    monkeypatch.setattr(experiments, "_MAX_DOUBLINGS", 1)
    out = tmp_path / "out"
    assert main(["scaling", "--replicas", "20", "--out", str(out)]) == 2
    assert "numerical failure: reference still moving" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("run", [
    lambda: epsilon_scaling(EPS3, 0.5, 2, 2.0, 30, seed=3, substeps=16),
    lambda: scheme_comparison(2.0, 0.125, [0.01, 0.02], 30, seed=3,
                              substeps=16)])
def test_reference_doublings_are_deterministic(run):
    a, b = run(), run()
    assert a.stats == b.stats
    doublings = a.stats["reference_doublings"]
    assert len(doublings) == len(a.rows)
    for counts in doublings:
        assert counts[0] == 0 and sum(counts) == 30


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
    assert payload["stats"] == report.stats
    assert len(payload["stats"]["reference_doublings"]) == 3
    assert "created_unix" in payload
    assert payload["fit"]["slope"] == report.fit[0]
