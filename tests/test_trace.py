"""Adaptive trace builder: exactness, gap control, determinism."""

import math
import statistics

import pytest

from slesim import trace
from slesim.brownian import BrownianPath
from slesim.cli import main
from slesim.schemes import flow_drift, flow_noise, nv_step, sqrt_h
from slesim.trace import (TraceRefinementError, TraceResult, build_trace,
                          render_svg)


def test_zero_noise_trace_is_the_square_root_curve():
    # with a flat driver every partition telescopes to 2i sqrt(t)
    path = BrownianPath.zeros(1.0, 16)
    result = build_trace(path, 1.0, kappa=2.0, tolerance=0.3)
    for t, z in result.points:
        assert abs(z - 2j * math.sqrt(t)) <= 1e-10


def test_zero_noise_any_kappa():
    for kappa in (0.0, 8.0 / 3.0, 6.0):
        path = BrownianPath.zeros(0.7, 8)
        result = build_trace(path, 0.7, kappa=kappa, tolerance=0.4)
        for t, z in result.points:
            assert abs(z - 2j * math.sqrt(t)) <= 1e-10


def _build(kappa=8.0 / 3.0, seed=7, tolerance=0.1, T=1.0, n_init=16,
           **kw):
    path = BrownianPath.sample_uniform(T, n_init, seed=seed)
    return build_trace(path, T, kappa=kappa, tolerance=tolerance, **kw)


def _assert_points_are_final_chains(result, path, kappa):
    # every accepted point is the full backward chain over the final
    # partition, bit for bit, so a second evaluation pass changes nothing.
    # The chain steps W = z^2 with public functions, not through the
    # sweep's kernel: the drift flow for time h/2 translates W by -2h, the
    # noise flow translates z, and each root goes through sqrt_h.  The
    # loop of the three flows in z, two roots a map, agrees to rounding
    tt = [t for t, _ in result.points]
    bb = [path.value_at(t) for t in tt]
    chains, flows = [], []
    for k in range(len(tt)):
        w = z = 0j
        for i in reversed(range(k)):
            h, du = tt[i + 1] - tt[i], bb[i] - bb[i + 1]
            y = flow_noise(sqrt_h(w - 2.0 * h), du, kappa)
            w = y * y - 2.0 * h
            z = flow_drift(flow_noise(flow_drift(z, h / 2), du, kappa),
                           h / 2)
        chains.append(sqrt_h(w))
        flows.append(z)
    assert [z for _, z in result.points] == chains
    assert max(abs(a - b) for a, b in zip(chains, flows)) <= 1e-12


@pytest.mark.parametrize("kappa,seed,tolerance,n_init", [
    (8.0 / 3.0, 7, 0.1, 16), (6.0, 3, 0.05, 16), (6.0, 8, 0.16, 64),
    (4.0, 11, 0.1, 5)])
def test_points_equal_chains_over_final_partition(kappa, seed, tolerance,
                                                  n_init):
    # whole-path bisection passes until the grid has at least n_init
    # intervals: the initial partition of the sweep
    path = BrownianPath.sample_uniform(1.0, 4, seed=seed)
    while path.n_intervals < n_init:
        path.refine()
    n = path.n_intervals
    result = build_trace(path, 1.0, kappa=kappa, tolerance=tolerance)
    assert len(result) > n + 1  # some intervals were bisected
    _assert_points_are_final_chains(result, path, kappa)


def test_chain_map_applications_count_rejected_candidates():
    # without bisection every candidate is accepted: the two counts agree
    flat = build_trace(BrownianPath.zeros(1.0, 8), 1.0, kappa=2.0,
                       tolerance=10.0)
    assert flat.stats["chain_map_applications"] == \
        flat.stats["map_evaluations"] == 8 * 9 // 2
    result = _build(seed=11)
    assert (result.stats["chain_map_applications"]
            > result.stats["map_evaluations"])


def test_complex_roots_are_one_per_map_and_one_per_chain(monkeypatch):
    # each candidate chain steps W = z^2: one root per map, one at its end
    lengths = []
    kernel = trace._nv_steps

    def counted(z, steps):
        steps = list(steps)
        lengths.append(len(steps))
        return kernel(z, steps)

    monkeypatch.setattr(trace, "_nv_steps", counted)
    for kw in ({"seed": 11}, {"kappa": 6.0, "seed": 3, "tolerance": 0.05}):
        lengths.clear()
        stats = _build(**kw).stats
        assert stats["chain_map_applications"] == sum(lengths)
        assert stats["complex_roots"] == sum(lengths) + len(lengths)
        assert stats["complex_roots"] == \
            stats["chain_map_applications"] + len(lengths)


def _exact_chain(mpmath, cs, ds):
    # f_0(...f_{k-1}(0)) in the working precision of mpmath, each map in
    # z with sqrt_h read as "negate the root when its im < 0"
    def sqrt_h_exact(w):
        s = mpmath.sqrt(w)
        return -s if s.imag < 0 else s

    z = mpmath.mpc(0)
    for c, d in zip(reversed(cs), reversed(ds)):
        c, d = mpmath.mpf(c), mpmath.mpf(d)
        z = sqrt_h_exact((sqrt_h_exact(z * z - c) + d) ** 2 - c)
    return z


def test_trace_points_match_a_50_digit_chain():
    # the final partitions of seeds 8-15 at the benchmark's kappa 6,
    # tolerance 0.16 and 64 intervals, 6 prefixes each: 48 chains,
    # against the same maps in 50 digits, whose float64 drift times and
    # displacements are read exactly.  The sweep's W chains must be
    # accurate to 1e-13, and in the median no less accurate than the loop
    # of nv_step calls, which steps z with two roots a map
    mpmath = pytest.importorskip("mpmath")
    kappa = 6.0
    sweep, z_loop = [], []
    with mpmath.workdps(50):
        for seed in range(8, 16):
            path = BrownianPath.sample_uniform(1.0, 64, seed=seed)
            result = build_trace(path, 1.0, kappa=kappa, tolerance=0.16)
            tt, bb = path.times.tolist(), path.values.tolist()
            n = len(tt) - 1
            for k in (round(n * j / 6) for j in range(1, 7)):
                cs = [2.0 * (tt[i + 1] - tt[i]) for i in range(k)]
                ds = [math.sqrt(kappa) * (bb[i] - bb[i + 1])
                      for i in range(k)]
                exact = _exact_chain(mpmath, cs, ds)
                z = 0j
                for i in reversed(range(k)):
                    z = nv_step(z, tt[i + 1] - tt[i], bb[i] - bb[i + 1],
                                kappa)
                sweep.append(float(abs(result.points[k][1] - exact)))
                z_loop.append(float(abs(z - exact)))
    assert len(sweep) == 48
    assert max(sweep) <= 1e-13
    assert statistics.median(sweep) <= statistics.median(z_loop)


def test_gap_bound_holds_everywhere():
    result = _build(tolerance=0.1)
    zs = [z for _, z in result.points]
    gaps = [abs(b - a) for a, b in zip(zs, zs[1:])]
    assert max(gaps) < 0.1
    assert result.points[0] == (0.0, 0j)


def test_points_stay_in_closed_half_plane():
    for kappa in (8.0 / 3.0, 6.0):
        result = _build(kappa=kappa, tolerance=0.15)
        assert min(z.imag for _, z in result.points) >= 0.0


def test_partition_is_sorted_and_matches_points():
    path = BrownianPath.sample_uniform(1.0, 16, seed=7)
    result = build_trace(path, 1.0, kappa=8.0 / 3.0, tolerance=0.1)
    times = [t for t, _ in result.points]
    assert times == path.times.tolist()  # the driver's final grid
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[0] == 0.0 and times[-1] == 1.0


def test_point_count_grows_as_tolerance_halves():
    counts = [len(_build(tolerance=tol, seed=3))
              for tol in (0.4, 0.2, 0.1, 0.05)]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_rougher_kappa_needs_more_points():
    dilute = _build(kappa=8.0 / 3.0, seed=5, tolerance=0.08)
    dense = _build(kappa=6.0, seed=5, tolerance=0.08)
    assert len(dense) > len(dilute)


def test_map_evaluation_count_is_triangular():
    result = _build(seed=11)
    n = len(result) - 1
    assert result.stats["map_evaluations"] == n * (n + 1) // 2
    assert result.stats["refinement_depth_max"] >= 0


def test_same_seed_same_trace():
    a = _build(seed=13)
    b = _build(seed=13)
    assert a.points == b.points


def test_rebuild_on_refined_path_is_stable():
    # the builder mutates its driver; a second pass over the settled
    # partition must accept every interval and reproduce the points
    path = BrownianPath.sample_uniform(1.0, 16, seed=19)
    first = build_trace(path, 1.0, kappa=8.0 / 3.0, tolerance=0.1)
    second = build_trace(path, 1.0, kappa=8.0 / 3.0, tolerance=0.1)
    assert first.points == second.points


def test_shift_translates_by_final_driver_value():
    kappa = 6.0
    a = BrownianPath.sample_uniform(1.0, 16, seed=23)
    b = BrownianPath.sample_uniform(1.0, 16, seed=23)
    plain = build_trace(a, 1.0, kappa=kappa, tolerance=0.2)
    shifted = build_trace(b, 1.0, kappa=kappa, tolerance=0.2,
                          apply_shift=True)
    want = math.sqrt(kappa) * a.value_at(1.0)  # schedule independent
    for (_, zp), (_, zs) in zip(plain.points, shifted.points):
        delta = zs - zp
        assert delta.imag == 0.0  # horizontal translation only
        assert abs(delta - want) <= 1e-12 * max(1.0, abs(want))


def test_refinement_budget_error():
    path = BrownianPath.sample_uniform(1.0, 4, seed=29)
    with pytest.raises(TraceRefinementError) as info:
        build_trace(path, 1.0, kappa=6.0, tolerance=1e-4, max_depth=3)
    err = info.value
    assert err.depth == 3
    assert err.gap > 1e-4
    assert err.interval[0] < err.interval[1]
    assert str(err).endswith("after 3 bisections")  # budget, not float64


def test_float64_limit_is_a_refinement_error():
    # the first interval is (0, 5e-324): adjacent float64 times, so it has
    # no midpoint to bisect at although the depth budget is not spent
    path = BrownianPath([0.0, 5e-324, 1.0], [0.0, 10.0, 10.0], seed=0)
    with pytest.raises(TraceRefinementError) as info:
        build_trace(path, 1.0, kappa=6.0, tolerance=0.1)
    err = info.value
    assert err.interval == (0.0, 5e-324)
    assert err.depth == 0 and err.gap >= 0.1
    assert isinstance(err.__cause__, ValueError)
    assert str(err).endswith("after 0 bisections; its endpoints are "
                             "adjacent float64 times")
    assert path.times.tolist() == [0.0, 5e-324, 1.0]  # nothing inserted


def test_seed_2_failure_is_not_round_off():
    # at the README configuration with a budget of 60, seed 2 bisects one
    # interval down to adjacent float64 times.  The accepted point at its
    # left end a and the last six rejected candidates, each one map from a
    # to a later midpoint, are float chains within 1e-12 of the same maps
    # in 50 digits, and every exact gap is still at least the tolerance:
    # the failure is the trace's, not float64 round-off's
    mpmath = pytest.importorskip("mpmath")
    kappa, tolerance = 6.0, 0.02
    path = BrownianPath.sample_uniform(1.0, 64, seed=2)
    with pytest.raises(TraceRefinementError) as info:
        build_trace(path, 1.0, kappa=kappa, tolerance=tolerance,
                    max_depth=60)
    a, b = info.value.interval
    assert (a, b) == (0.6506828813559679, 0.650682881355968)
    i = path.index_of(a)
    tt, bb = path.times.tolist(), path.values.tolist()
    assert tt[i + 1] == b
    root = math.sqrt(kappa)
    cs = [2.0 * (tt[k + 1] - tt[k]) for k in range(i)]
    ds = [root * (bb[k] - bb[k + 1]) for k in range(i)]

    def chains(cs, ds):
        # the sweep's float chain and the 50-digit one over the same maps
        return (trace._nv_steps(0j, zip(reversed(cs), reversed(ds))),
                _exact_chain(mpmath, cs, ds))

    with mpmath.workdps(50):
        point, exact_point = chains(cs, ds)
        assert abs(point - exact_point) <= 1e-12
        for j in range(6):
            z, exact = chains(cs + [2.0 * (tt[i + 1 + j] - a)],
                              ds + [root * (bb[i] - bb[i + 1 + j])])
            assert abs(z - exact) <= 1e-12
            assert abs(exact - exact_point) >= tolerance


@pytest.mark.parametrize("max_depth", [math.nan, math.inf, -math.inf, 2.5,
                                       -1])
def test_max_depth_must_be_a_nonnegative_integer(max_depth):
    # refused before any bisection, so the path keeps its samples
    path = BrownianPath.sample_uniform(1.0, 64, seed=8)
    times = path.times.tolist()
    with pytest.raises(ValueError, match="max_depth"):
        build_trace(path, 1.0, kappa=6.0, tolerance=0.16,
                    max_depth=max_depth)
    assert path.times.tolist() == times


def test_build_validation():
    path = BrownianPath.sample_uniform(1.0, 8, seed=1)
    with pytest.raises(ValueError):
        build_trace(path, -1.0, kappa=2.0)
    with pytest.raises(ValueError):
        build_trace(path, 2.0, kappa=2.0)  # beyond the driver horizon
    with pytest.raises(ValueError):
        build_trace(path, 0.3, kappa=2.0)  # 0.3 is not a sample time
    with pytest.raises(ValueError):
        build_trace(path, 1.0, kappa=-1.0)
    # NaN fails every check written as "not (valid)"
    for kw in ({"kappa": math.nan}, {"kappa": 2.0, "tolerance": math.nan}):
        with pytest.raises(ValueError):
            build_trace(path, 1.0, **kw)


@pytest.mark.parametrize("seed", [31, 0, 2])
def test_slit_map_matches_manual_composition(seed):
    # the trace point at t_2 is f_0(f_1(0)) with reversed increments: bit
    # for bit the chain in W = z^2 through public functions, and to
    # rounding the loop of nv_step calls, which squares each rounded root
    # again and so parts from it in the last bit on some seeds
    path = BrownianPath.sample_uniform(0.5, 2, seed=seed)
    kappa = 6.0
    result = build_trace(path, 0.5, kappa=kappa, tolerance=10.0)
    assert len(result) == 3
    tt = path.times.tolist()
    bb = path.values.tolist()
    w = z = 0j
    for i in (1, 0):
        h = tt[i + 1] - tt[i]
        du = bb[i] - bb[i + 1]
        y = flow_noise(sqrt_h(w - 2.0 * h), du, kappa)
        w = y * y - 2.0 * h
        z = nv_step(z, h, du, kappa)
    assert result.points[2][1] == sqrt_h(w)
    assert abs(result.points[2][1] - z) <= 1e-12 * abs(z)


def test_svg_rendering_is_deterministic():
    result = _build(seed=37, tolerance=0.2)
    first = render_svg(result)
    second = render_svg(result)
    assert first == second
    assert first.startswith("<svg")
    assert "<polyline" in first and 'width="800"' in first


def test_svg_rejects_empty_result():
    empty = TraceResult(points=[], stats={})
    with pytest.raises(ValueError):
        render_svg(empty)


def test_csv_output(tmp_path, capsys):
    # the trace CSV is the CLI's trace.csv, written by the report writer
    result = _build(seed=41, tolerance=0.2)
    assert main(["trace", "--kappa", repr(8.0 / 3.0), "--n-init", "16",
                 "--tolerance", "0.2", "--seed", "41",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == len(result) + 1
    t, re, im = lines[1].split(",")
    assert float(t) == 0.0 and float(re) == 0.0 and float(im) == 0.0
    # repr round-trip: parsing a row reproduces the point exactly
    t, re, im = lines[-1].split(",")
    assert complex(float(re), float(im)) == result.points[-1][1]
    assert float(t) == result.points[-1][0]
