"""Adaptive trace builder: exactness, gap control, determinism."""

import cmath
import copy
import math
import pickle
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


class _SqrtDriver(BrownianPath):
    """The driver c sqrt(t) on n uniform intervals of [0, 1], exact at
    every knot: a bisection inserts c sqrt(tm), not a bridge draw."""

    def __init__(self, c, n):
        times = [k / n for k in range(n + 1)]
        super().__init__(times, [c * math.sqrt(t) for t in times], seed=0,
                         bridge_scale=0.0)
        self.c = c

    def insert_midpoint(self, i):
        super().insert_midpoint(i)
        self._values[i + 1] = self.c * math.sqrt(self._times[i + 1])
        return self


def _slit_tip(c):
    # gamma(1) of the Loewner chain driven by c sqrt(t): a straight slit
    # at angle pi alpha (Kager, Nienhuis & Kadanoff, J. Stat. Phys. 115,
    # 2004), and gamma(t) = sqrt(t) gamma(1) by scaling; 2i at c = 0
    r = math.sqrt(c * c + 16.0)
    alpha = (1.0 - c / r) / 2.0
    return (r * alpha ** alpha * (1.0 - alpha) ** (1.0 - alpha)
            * cmath.exp(1j * math.pi * alpha))


def _sqrt_driver_trace(c, n, tolerance):
    # kappa 1, so the chain's noise is the driver's own increments
    return build_trace(_SqrtDriver(c, n), 1.0, kappa=1.0,
                       tolerance=tolerance)


@pytest.mark.parametrize("c", [1.0, -1.0, 4.0])
def test_sqrt_driver_traces_the_slit_of_minus_c_sqrt_t(c):
    # the points are the trace of the driver -sqrt(kappa) B: with no
    # refinement, the tip at n = 512 lies on the -c slit, far from the +c
    # one (7.4e-6 against 1.58 at c = 1, 3.2e-5 against 6.68 at c = 4)
    tip = _sqrt_driver_trace(c, 512, 1e9).points[-1][1]
    assert abs(tip - _slit_tip(-c)) <= 1e-4
    assert abs(tip - _slit_tip(c)) >= 1.0


@pytest.mark.parametrize("c", [1.0, 4.0])
def test_sqrt_driver_tip_error_is_of_order_three_halves(c):
    # uniform partitions, no refinement: the tip error falls about 8x per
    # 4x in n (4.86e-4, 5.99e-5, 7.40e-6 at c = 1; 2.37e-3, 2.69e-4,
    # 3.17e-5 at c = 4)
    errors = [abs(_sqrt_driver_trace(c, n, 1e9).points[-1][1]
                  - _slit_tip(-c)) for n in (32, 128, 512)]
    assert all(7.0 <= a / b <= 9.0 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("c,bound", [(1.0, 0.05), (4.0, 0.15)])
def test_sqrt_driver_point_error_is_a_fixed_fraction_of_tol(c, bound):
    # the gap rule from 64 intervals: the sup point error is 0.0365 tol at
    # c = 1 and 0.1151 tol at c = 4, at every tolerance of the ladder
    for tolerance in (0.16, 0.08, 0.04, 0.02):
        result = _sqrt_driver_trace(c, 64, tolerance)
        error = max(abs(z - math.sqrt(t) * _slit_tip(-c))
                    for t, z in result.points)
        assert error <= bound * tolerance


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


def test_float64_limit_is_a_refinement_error():
    # the first interval is (0, 5e-324), narrower than ulp(1), the float64
    # resolution of the horizon: refused without an attempt to bisect it
    path = BrownianPath([0.0, 5e-324, 1.0], [0.0, 10.0, 10.0], seed=0)
    with pytest.raises(TraceRefinementError) as info:
        build_trace(path, 1.0, kappa=6.0, tolerance=0.1)
    err = info.value
    assert err.interval == (0.0, 5e-324)
    assert err.depth == 0 and err.gap >= 0.1
    assert err.__cause__ is None
    assert str(err).endswith("after 0 bisections, at the float64 "
                             "resolution of the horizon")
    assert path.times.tolist() == [0.0, 5e-324, 1.0]  # nothing inserted


def test_refinement_error_survives_pickle_and_copy():
    # a failing seed's error crosses a process boundary intact
    err = TraceRefinementError((0.25, 0.5), 46, 0.031)
    for twin in (pickle.loads(pickle.dumps(err)), copy.copy(err),
                 copy.deepcopy(err)):
        assert type(twin) is TraceRefinementError
        assert (twin.interval, twin.depth, twin.gap) == \
            ((0.25, 0.5), 46, 0.031)
        assert str(twin) == str(err)


def test_refinement_stops_at_the_resolution_of_the_horizon():
    # at kappa 1e300 no gap is ever met: the first interval, (0, 1/64), is
    # bisected 46 times down to (0, 2^-52) = (0, ulp(1)), although float64
    # could halve it about 1000 times more
    path = BrownianPath.sample_uniform(1.0, 64, seed=0)
    with pytest.raises(TraceRefinementError) as info:
        build_trace(path, 1.0, kappa=1e300, tolerance=0.02)
    assert info.value.interval == (0.0, 2.0 ** -52)
    assert info.value.depth == 46


def test_seed_38_needs_more_than_40_bisections():
    # a kappa 6 trace can need more than 40 bisections in one interval:
    # seed 38 of the README configuration needs 45, and finishes
    path = BrownianPath.sample_uniform(1.0, 64, seed=38)
    result = build_trace(path, 1.0, kappa=6.0, tolerance=0.02)
    assert len(result) == 3286
    assert result.stats["refinement_depth_max"] == 45


def test_seed_2_failure_is_not_round_off():
    # at the README configuration, seed 2 bisects one interval 46 times,
    # down to 2 ulps, the float64 resolution of T = 1.  The failing
    # candidate and the six the sweep rejected last, each one map from an
    # accepted point to the right end of the interval it then bisected,
    # are float chains within 1e-12 of the same maps in 50 digits, and so
    # are their accepted points; every exact gap is still at least the
    # tolerance: the failure is the trace's, not float64 round-off's
    mpmath = pytest.importorskip("mpmath")
    kappa, tolerance = 6.0, 0.02
    path = BrownianPath.sample_uniform(1.0, 64, seed=2)
    bisected = []
    insert = path.insert_midpoint

    def recorded(i):
        bisected.append((path.sample(i)[0], path.sample(i + 1)[0]))
        return insert(i)

    path.insert_midpoint = recorded
    with pytest.raises(TraceRefinementError) as info:
        build_trace(path, 1.0, kappa=kappa, tolerance=tolerance)
    a, b = info.value.interval
    assert (a, b) == (0.6506828813559677, 0.650682881355968)
    assert info.value.depth == 46 and b - a == 2 * math.ulp(a)
    tt, bb = path.times.tolist(), path.values.tolist()
    assert tt[path.index_of(a) + 1] == b
    root = math.sqrt(kappa)

    def chains(cs, ds):
        # the sweep's float chain and the 50-digit one over the same maps
        return (trace._nv_steps(0j, zip(reversed(cs), reversed(ds))),
                _exact_chain(mpmath, cs, ds))

    with mpmath.workdps(50):
        for left, right in bisected[-6:] + [(a, b)]:
            i, k = path.index_of(left), path.index_of(right)
            cs = [2.0 * (tt[m + 1] - tt[m]) for m in range(i)]
            ds = [root * (bb[m] - bb[m + 1]) for m in range(i)]
            point, exact_point = chains(cs, ds)
            assert abs(point - exact_point) <= 1e-12
            z, exact = chains(cs + [2.0 * (right - left)],
                              ds + [root * (bb[i] - bb[k])])
            assert abs(z - exact) <= 1e-12
            assert abs(exact - exact_point) >= tolerance


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
