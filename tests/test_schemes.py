"""One-step maps: splitting identity, moment transport, Taylor assembly."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slesim import schemes, vfalgebra
from slesim.brownian import BrownianPath
from slesim.halfplane import sqrt_h
from slesim.integrals import compute_table
from slesim.schemes import (SCALED_NOISE, UNIT_NOISE, euler_step, flow_drift,
                            flow_noise, nv_step, reference_solve, taylor_step)
from slesim.vfalgebra import compose, enumerate_level, eval_term

KAPPAS = [2.0, 8.0 / 3.0, 4.0, 6.0]


def test_splitting_composition_is_bitwise():
    # 4 (h/2) and 2 h are the same float, and both routes then perform the
    # identical operation sequence, so the collapse is exact, not just
    # close
    rng = np.random.default_rng(17)
    for _ in range(2000):
        z = complex(rng.uniform(-5, 5), rng.uniform(1e-3, 5))
        h = rng.uniform(0.0, 1.0)
        dB = rng.uniform(-3.0, 3.0)
        kappa = KAPPAS[rng.integers(0, 4)]
        direct = nv_step(z, h, dB, kappa)
        chained = flow_drift(flow_noise(flow_drift(z, h / 2), dB, kappa),
                             h / 2)
        assert direct == chained


def test_convention_bridge():
    # scaled step from z, divided by sqrt(kappa), equals the unit step
    # from z / sqrt(kappa); both consume the same Brownian increment, the
    # scaled map applies the sqrt(kappa) factor itself
    rng = np.random.default_rng(23)
    for _ in range(500):
        z = complex(rng.uniform(-4, 4), rng.uniform(1e-2, 4))
        h = rng.uniform(0.0, 0.8)
        dB = rng.uniform(-2.0, 2.0)
        kappa = KAPPAS[rng.integers(0, 4)]
        root = math.sqrt(kappa)
        scaled = nv_step(z, h, dB, kappa, SCALED_NOISE)
        unit = nv_step(z / root, h, dB, kappa, UNIT_NOISE)
        assert abs(scaled / root - unit) <= 1e-13 * max(1.0, abs(unit))


def test_zero_noise_step_is_the_drift_flow():
    for kappa in KAPPAS:
        z = 0.7 + 1.3j
        got = nv_step(z, 0.25, 0.0, kappa)
        want = flow_drift(z, 0.25)
        assert abs(got - want) <= 1e-14 * abs(want)


@given(st.floats(-10, 10), st.floats(1e-6, 10),
       st.floats(0, 2), st.floats(0, 2))
def test_drift_flow_semigroup(x, y, s, t):
    z = complex(x, y)
    once = flow_drift(z, s + t)
    twice = flow_drift(flow_drift(z, s), t)
    assert abs(once - twice) <= 1e-11 * (1.0 + abs(once))


@settings(max_examples=200)
@given(st.floats(-10, 10), st.floats(0, 10), st.floats(0, 1),
       st.floats(-3, 3), st.sampled_from(KAPPAS))
def test_step_never_leaves_the_closed_half_plane(x, y, h, dB, kappa):
    z = complex(x, y)
    out = nv_step(z, h, dB, kappa)
    assert out.imag >= 0.0
    # the noise flow moves horizontally and the drift flow only lifts
    assert out.imag >= z.imag - 1e-9 * (1.0 + abs(z))


def test_negative_real_axis_keeps_its_side():
    # (x + 0j) ** 2 has imaginary part -0.0 for x < 0; the maps must read
    # that as the limit from above, which keeps the point on its own side
    assert _bits(flow_drift(-3 + 0j, 0.0)) == _bits(-3 + 0j)
    assert flow_drift(-3 + 0j, 1.0) == -math.sqrt(5.0)
    assert _bits(nv_step(-3 + 0j, 0.0, 0.0, 6.0)) == _bits(-3 + 0j)
    # the array path reads the sign of a zero the same way
    z = np.array([-3 + 0j, -2 + 0j])
    assert flow_drift(z, 1.0).tolist() == [-math.sqrt(5.0), 0.0 + 0.0j]
    assert nv_step(z, 0.0, 0.0, 6.0).tolist() == z.tolist()


def _same_limit(on_axis, above):
    # equal to 1e-6, so of equal sign wherever the limit is not near 0
    assert abs(on_axis - above) <= 1e-6
    for a, b in ((on_axis.real, above.real), (on_axis.imag, above.imag)):
        if abs(b) > 1e-6:
            assert math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=300)
@given(st.floats(-5.0, 5.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(-3.0, 3.0), st.sampled_from(KAPPAS),
       st.sampled_from([UNIT_NOISE, SCALED_NOISE]))
def test_real_axis_is_the_limit_from_above(x, t, h, dB, kappa, convention):
    # each map at x + 0j agrees with the same call at x + 1e-9 j; near a
    # branch point, where a 1e-9 move shifts a root by more than 1e-6,
    # the comparison is skipped
    on, above = complex(x, 0.0), complex(x, 1e-9)
    if abs(x) >= 1e-3:
        _same_limit(sqrt_h(on), sqrt_h(above))
    if abs(x * x - 4.0 * t) >= 1e-3:
        _same_limit(flow_drift(on, t), flow_drift(above, t))
    c = 2.0 * h if convention == SCALED_NOISE else 2.0 * h / kappa
    d = math.sqrt(kappa) * dB if convention == SCALED_NOISE else dB
    y = sqrt_h(on * on - c) + d
    if abs(on * on - c) >= 0.1 and abs(y * y - c) >= 0.1:
        _same_limit(nv_step(on, h, dB, kappa, convention),
                    nv_step(above, h, dB, kappa, convention))


def _gauss_hermite_expectation(f, n=80):
    # E[f(xi)] for standard normal xi via Gauss-Hermite quadrature; the
    # integrand below is analytic in the increment, so this converges to
    # far beyond the tolerance used
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    total = sum(w * f(x) for x, w in zip(nodes, weights))
    return total / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_one_step_second_moment_is_exact(kappa):
    # E (Z~)^2 = z^2 + (kappa - 4) h with no h^2 remainder; quadrature
    # makes this a deterministic check
    z, h = 0.4 + 1.1j, 0.17
    got = _gauss_hermite_expectation(
        lambda x: nv_step(z, h, math.sqrt(h) * x, kappa) ** 2)
    assert abs(got - (z * z + (kappa - 4.0) * h)) <= 1e-9


def test_euler_second_moment_carries_h_squared_defect():
    # the unit_noise splitting step moves E Z^2 by exactly (kappa-4)/kappa h;
    # Euler's defect against that is exactly 4 h^2 / (kappa^2 z^2), so the
    # quadrature difference must reproduce it; this pins that the splitting
    # result above is not an artifact of a forgiving tolerance
    z, h, kappa = 0.4 + 1.1j, 0.17, 6.0
    got = _gauss_hermite_expectation(
        lambda x: euler_step(z, h, math.sqrt(h) * x, kappa) ** 2)
    defect = got - (z * z + (kappa - 4.0) / kappa * h)
    assert abs(defect - 4.0 * h * h / (kappa * kappa * z * z)) <= 1e-9
    assert abs(defect) > 1e-3  # the defect itself is far from zero


def test_euler_step_value():
    # -(2/2)/i = i, so drift adds 0.5 i; noise adds the increment
    got = euler_step(1j, 0.5, 0.25, 2.0)
    assert abs(got - (1j + 0.5j + 0.25)) <= 1e-15


def test_taylor_level_one_is_euler_on_the_increment():
    path = BrownianPath.sample_uniform(0.25, 64, seed=31)
    table = compute_table(path, 0.25, 1)
    z = 0.8 + 1.6j
    got = taylor_step(z, table, 1, 2.0)
    want = euler_step(z, 0.25, path.value_at(0.25), 2.0)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_taylor_matches_hand_assembly():
    path = BrownianPath.sample_uniform(0.125, 64, seed=37)
    table = compute_table(path, 0.125, 3)
    z = -0.4 + 0.9j
    manual = 0j
    for n in range(4):
        for word, term in enumerate_level(n):
            if term.is_zero():
                continue
            manual += eval_term(term, z, 2.0) * table.entries[word]
    assert taylor_step(z, table, 3, 2.0) == manual


def test_taylor_step_composes_each_term_once(monkeypatch):
    calls = []

    def counted(word):
        calls.append(tuple(word))
        return compose(word)

    monkeypatch.setattr(vfalgebra, "compose", counted)
    schemes._truncation_terms.cache_clear()  # start from an empty cache
    path = BrownianPath.sample_uniform(0.125, 64, seed=41)
    table = compute_table(path, 0.125, 3)
    first = taylor_step(0.3 + 1.2j, table, 2, 2.0)
    composed = len(calls)
    for _ in range(10):
        assert taylor_step(0.3 + 1.2j, table, 2, 2.0) == first
    assert len(calls) == composed
    assert composed == 7  # the 7 words of length <= 2, once each


def test_taylor_refuses_levels_past_the_cap():
    # no table is deeper than LEVEL_CAP; such a cutoff must be refused
    # without first enumerating its 2^41 - 1 words
    path = BrownianPath.sample_uniform(1.0, 8, seed=2)
    table = compute_table(path, 1.0, 2)
    with pytest.raises(ValueError):
        taylor_step(1j, table, 40, 2.0)


def test_taylor_zero_level_is_identity():
    path = BrownianPath.sample_uniform(1.0, 8, seed=2)
    table = compute_table(path, 1.0, 0)
    assert taylor_step(2j, table, 0, 2.0) == 2j


def test_taylor_requires_matching_convention_and_depth():
    path = BrownianPath.sample_uniform(1.0, 8, seed=2)
    table = compute_table(path, 1.0, 1)
    with pytest.raises(ValueError, match="shallow"):
        taylor_step(1j, table, 2, 2.0)
    with pytest.raises(ValueError):
        taylor_step(1j, table, -1, 2.0)


def test_reference_zero_noise_is_exact_drift():
    # the unit_noise drift -(2/kappa)/z for time 1 is flow_drift for 1/kappa
    path = BrownianPath.zeros(1.0, 512)
    got = reference_solve(2j, path, 1.0, 512, 2.0)
    want = flow_drift(2j, 1.0 / 2.0)
    assert abs(got - want) <= 1e-12


def test_reference_needs_enough_substeps():
    path = BrownianPath.sample_uniform(1.0, 16, seed=1)
    with pytest.raises(ValueError, match="need"):
        reference_solve(1j, path, 1.0, 64, 2.0)


def test_reference_stabilizes_under_refinement():
    # consecutive refinement corrections are random (each pass injects
    # fresh bridge noise), so only the trend and the final size are
    # asserted, not per-level monotonicity
    path = BrownianPath.sample_uniform(0.25, 128, seed=51)
    solutions = [reference_solve(1j, path, 0.25, 128, 2.0)]
    for _ in range(5):
        path.refine()
        solutions.append(reference_solve(1j, path, 0.25, 128, 2.0))
    moves = [abs(b - a) for a, b in zip(solutions, solutions[1:])]
    assert moves[-1] < moves[0]
    assert moves[-1] <= 3e-5


def _nv_step_loop(z0, path, t, kappa):
    # the definition reference_solve must reproduce: one unit_noise
    # nv_step call per sample interval of [0, t]
    times = path.times.tolist()
    values = path.values.tolist()
    z = complex(z0)
    for k in range(path.index_of(t)):
        z = nv_step(z, times[k + 1] - times[k], values[k + 1] - values[k],
                    kappa, UNIT_NOISE)
    return z


def _bits(z):
    # == alone would let a -0.0 pass for +0.0
    return struct.pack("<dd", z.real, z.imag)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.floats(1e-4, 2.0), st.integers(1, 40),
       st.lists(st.integers(0, 10 ** 6), max_size=8), st.booleans(),
       st.sampled_from([0.5, 2.0, 8.0 / 3.0, 4.0, 6.0, 9.5]),
       st.floats(-3.0, 3.0),
       st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, 1e-3, 0.7]),
       st.floats(0.0, 1.0))
def test_reference_solve_equals_nv_step_loop(seed, T, n, bisect, refine,
                                             kappa, re, im, where):
    # uneven grids (single bisections, then maybe a full pass) and
    # starting points on or just above the real axis, either sign of zero
    path = BrownianPath.sample_uniform(T, n, seed=seed)
    for i in bisect:
        path.insert_midpoint(i % path.n_intervals)
    if refine:
        path.refine()
    stop = max(1, round(where * path.n_intervals))
    t = path.sample(stop)[0]
    z0 = complex(re, im)
    got = reference_solve(z0, path, t, stop, kappa)
    want = _nv_step_loop(z0, path, t, kappa)
    assert got == want
    assert _bits(got) == _bits(want)


def test_splitting_converges_on_a_fixed_driver():
    # nested dyadic discretizations of one driver vs a deep reference on
    # the same driver: the error must shrink substantially as the grid
    # doubles (pathwise rate is about a half order, so per-level drops
    # fluctuate and only the overall decay is asserted).  The scaled_noise
    # solution from 0.5i is sqrt(kappa) times the unit_noise solution from
    # 0.5i / sqrt(kappa); keyed bridge draws make every refinement of the
    # seed-61 driver the same path, however often it is drawn
    T, kappa = 0.5, 2.0
    root = math.sqrt(kappa)
    z0 = 0.5j / root

    def solve(n):
        path = BrownianPath.sample_uniform(T, 8, seed=61)
        while path.n_intervals < n:
            path.refine()
        return root * reference_solve(z0, path, T, n, kappa)

    ref = solve(8192)
    errs = [abs(solve(n) - ref) for n in (8, 32, 128)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[0] / errs[2] >= 3.0


def test_vectorized_step_tracks_scalars():
    rng = np.random.default_rng(3)
    z = rng.uniform(-3, 3, 64) + 1j * rng.uniform(0.1, 3, 64)
    dB = rng.uniform(-1, 1, 64)
    vec = nv_step(z, 0.2, dB, 6.0)
    for i in range(64):
        s = nv_step(complex(z[i]), 0.2, float(dB[i]), 6.0)
        assert abs(s - vec[i]) <= 1e-14 * max(1.0, abs(s))


def test_step_validation():
    with pytest.raises(ValueError):
        nv_step(1j, -0.1, 0.0, 2.0)
    with pytest.raises(ValueError):
        nv_step(1j, 0.1, 0.0, -2.0)
    with pytest.raises(ValueError):
        nv_step(1j, 0.1, 0.0, 0.0, UNIT_NOISE)
    with pytest.raises(ValueError):
        nv_step(1j, 0.1, 0.0, 2.0, "antsy")
    with pytest.raises(ValueError):
        flow_drift(1j, -0.5)
    with pytest.raises(ValueError, match="kappa"):
        euler_step(1j, 0.1, 0.0, 0.0)
    with pytest.raises(ValueError, match="kappa"):
        reference_solve(1j, BrownianPath.zeros(1.0, 4), 1.0, 4, -2.0)
