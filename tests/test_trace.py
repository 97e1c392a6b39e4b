"""Adaptive trace builder: exactness, gap control, determinism."""

import math

import numpy as np
import pytest

from slesim.brownian import BrownianPath
from slesim.schemes import nv_step
from slesim.trace import (TraceRefinementError, TraceResult, _eval_chain,
                          build_trace, render_svg, write_trace_csv)


def test_zero_noise_trace_is_the_square_root_curve():
    # with a flat driver every partition telescopes to 2i sqrt(t)
    path = BrownianPath.zeros(1.0, 16)
    result = build_trace(path, 1.0, kappa=2.0, n_init=16, tolerance=0.3)
    for t, z in result.points:
        assert abs(z - 2j * math.sqrt(t)) <= 1e-10


def test_zero_noise_any_kappa():
    for kappa in (0.0, 8.0 / 3.0, 6.0):
        path = BrownianPath.zeros(0.7, 8)
        result = build_trace(path, 0.7, kappa=kappa, n_init=8, tolerance=0.4)
        for t, z in result.points:
            assert abs(z - 2j * math.sqrt(t)) <= 1e-10


def _build(kappa=8.0 / 3.0, seed=7, tolerance=0.1, T=1.0, n_init=16,
           **kw):
    path = BrownianPath.sample_uniform(T, n_init, seed=seed)
    return build_trace(path, T, kappa=kappa, n_init=n_init,
                       tolerance=tolerance, **kw)


def _assert_points_are_final_chains(result, path):
    # every accepted point is the full backward chain over the final
    # partition, bit for bit, so a second evaluation pass changes nothing
    tt = result.partition.tolist()
    bb = [path.value_at(t) for t in tt]
    sqkap = math.sqrt(result.kappa)
    cc = [2.0 * (b - a) for a, b in zip(tt, tt[1:])]
    dd = [sqkap * (a - b) for a, b in zip(bb, bb[1:])]
    assert [z for _, z in result.points] == \
        [_eval_chain(k, dd, cc) for k in range(len(tt))]


@pytest.mark.parametrize("kappa,seed,tolerance,n_init", [
    (8.0 / 3.0, 7, 0.1, 16), (6.0, 3, 0.05, 16), (6.0, 8, 0.16, 64),
    (4.0, 11, 0.1, 5)])
def test_points_equal_chains_over_final_partition(kappa, seed, tolerance,
                                                  n_init):
    path = BrownianPath.sample_uniform(1.0, 4, seed=seed)
    result = build_trace(path, 1.0, kappa=kappa, n_init=n_init,
                         tolerance=tolerance)
    assert len(result) > n_init + 1  # some intervals were bisected
    _assert_points_are_final_chains(result, path)


def test_chain_map_applications_count_rejected_candidates():
    # without bisection every candidate is accepted: the two counts agree
    flat = build_trace(BrownianPath.zeros(1.0, 8), 1.0, kappa=2.0, n_init=8,
                       tolerance=10.0)
    assert flat.stats["chain_map_applications"] == \
        flat.stats["map_evaluations"] == 8 * 9 // 2
    result = _build(seed=11)
    assert (result.stats["chain_map_applications"]
            > result.stats["map_evaluations"])


def test_gap_bound_holds_everywhere():
    result = _build()
    zs = [z for _, z in result.points]
    gaps = [abs(b - a) for a, b in zip(zs, zs[1:])]
    assert max(gaps) < result.tolerance
    assert result.points[0] == (0.0, 0j)


def test_points_stay_in_closed_half_plane():
    for kappa in (8.0 / 3.0, 6.0):
        result = _build(kappa=kappa, tolerance=0.15)
        assert min(z.imag for _, z in result.points) >= 0.0


def test_partition_is_sorted_and_matches_points():
    result = _build()
    assert list(result.partition) == [t for t, _ in result.points]
    assert all(a < b for a, b in zip(result.partition, result.partition[1:]))
    assert result.partition[0] == 0.0 and result.partition[-1] == 1.0


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
    assert list(a.partition) == list(b.partition)


def test_rebuild_on_refined_path_is_stable():
    # the builder mutates its driver; a second pass over the settled
    # partition must accept every interval and reproduce the points
    path = BrownianPath.sample_uniform(1.0, 16, seed=19)
    first = build_trace(path, 1.0, kappa=8.0 / 3.0, n_init=16,
                        tolerance=0.1)
    second = build_trace(path, 1.0, kappa=8.0 / 3.0, n_init=16,
                         tolerance=0.1)
    assert first.points == second.points


def test_shift_translates_by_final_driver_value():
    kappa = 6.0
    a = BrownianPath.sample_uniform(1.0, 16, seed=23)
    b = BrownianPath.sample_uniform(1.0, 16, seed=23)
    plain = build_trace(a, 1.0, kappa=kappa, n_init=16, tolerance=0.2)
    shifted = build_trace(b, 1.0, kappa=kappa, n_init=16, tolerance=0.2,
                          apply_shift=True)
    assert shifted.shift_applied and not plain.shift_applied
    want = math.sqrt(kappa) * a.value_at(1.0)  # schedule independent
    for (_, zp), (_, zs) in zip(plain.points, shifted.points):
        delta = zs - zp
        assert delta.imag == 0.0  # horizontal translation only
        assert abs(delta - want) <= 1e-12 * max(1.0, abs(want))


def test_refinement_budget_error():
    path = BrownianPath.sample_uniform(1.0, 4, seed=29)
    with pytest.raises(TraceRefinementError) as info:
        build_trace(path, 1.0, kappa=6.0, n_init=4, tolerance=1e-4,
                    max_depth=3)
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
        build_trace(path, 1.0, kappa=6.0, n_init=2, tolerance=0.1)
    err = info.value
    assert err.interval == (0.0, 5e-324)
    assert err.depth == 0 and err.gap >= 0.1
    assert isinstance(err.__cause__, ValueError)
    assert str(err).endswith("after 0 bisections; its endpoints are "
                             "adjacent float64 times")
    assert path.times.tolist() == [0.0, 5e-324, 1.0]  # nothing inserted


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


def test_slit_map_matches_manual_composition():
    # the trace point at t_2 is f_0(f_1(0)) with reversed increments
    path = BrownianPath.sample_uniform(0.5, 2, seed=31)
    kappa = 6.0
    result = build_trace(path, 0.5, kappa=kappa, n_init=2, tolerance=10.0)
    tt = path.times.tolist()
    bb = path.values.tolist()
    z = 0j
    for i in (1, 0):
        h = tt[i + 1] - tt[i]
        du = bb[i] - bb[i + 1]
        z = nv_step(z, h, du, kappa)
    assert result.points[2][1] == z


def test_svg_rendering_is_deterministic():
    result = _build(seed=37, tolerance=0.2)
    first = render_svg(result)
    second = render_svg(result)
    assert first == second
    assert first.startswith("<svg")
    assert "<polyline" in first and 'width="800"' in first
    small = render_svg(result, width=200, height=100)
    assert 'width="200"' in small and 'height="100"' in small


def test_svg_rejects_empty_result():
    empty = TraceResult(points=[], partition=np.array([]), tolerance=0.1,
                        kappa=2.0, shift_applied=False, stats={})
    with pytest.raises(ValueError):
        render_svg(empty)


def test_csv_output(tmp_path):
    result = _build(seed=41, tolerance=0.2)
    target = tmp_path / "trace.csv"
    write_trace_csv(result, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == len(result) + 1
    t, re, im = lines[1].split(",")
    assert float(t) == 0.0 and float(re) == 0.0 and float(im) == 0.0
    # repr round-trip: parsing a row reproduces the point exactly
    t, re, im = lines[-1].split(",")
    assert complex(float(re), float(im)) == result.points[-1][1]
    assert float(t) == result.points[-1][0]
