"""One-step maps: splitting identity, moment transport, Taylor assembly."""

import cmath
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slesim import brownian, experiments, schemes, trace, vfalgebra
from slesim.brownian import BrownianPath, _sfc64_stream, philox_stream
from slesim.experiments import (divergence_probe, epsilon_scaling,
                                moment_preservation, scheme_comparison)
from slesim.integrals import compute_table
from slesim.schemes import (SCALED_NOISE, UNIT_NOISE, euler_step, flow_drift,
                            flow_noise, nv_step, reference_solve, sqrt_h,
                            taylor_step)
from slesim.trace import build_trace
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


def _exact_moments(z, h, kappa, n):
    # E[Z^(2k)] of the scaled_noise equation at time h from z, k = 1..n:
    # m_k' = k (kappa (2k - 1) - 4) m_(k-1) with m_0 = 1, as polynomials
    # in h
    coeffs, moments = [1.0], []
    for k in range(1, n + 1):
        rate = k * (kappa * (2 * k - 1) - 4.0)
        coeffs = [z ** (2 * k)] + [rate * c / (j + 1)
                                   for j, c in enumerate(coeffs)]
        moments.append(sum(c * h ** j for j, c in enumerate(coeffs)))
    return moments


@pytest.mark.parametrize("z, h", [(0.4 + 1.1j, 0.17), (1j, 0.05)])
@pytest.mark.parametrize("kappa", [2.0, 8.0 / 3.0, 6.0])
def test_array_step_one_step_moments(kappa, z, h):
    # one array call steps every Gauss-Hermite node; Z^2 is a quadratic
    # in the increment, so 12 nodes give E[Z^2], E[Z^4] and E[Z^6]
    # exactly up to rounding: the first two move as the equation's own
    # moments, and E[Z^6] falls short of its exact value by 16 kappa^2 h^3
    nodes, weights = np.polynomial.hermite_e.hermegauss(12)
    weights = weights / math.sqrt(2.0 * math.pi)
    square = nv_step(z, h, math.sqrt(h) * nodes, kappa) ** 2
    got = [complex(weights @ square ** k) for k in (1, 2, 3)]
    want = _exact_moments(z, h, kappa, 3)
    assert abs(got[0] - want[0]) <= 1e-12
    assert abs(got[1] - want[1]) <= 1e-12
    defect = -16.0 * kappa ** 2 * h ** 3
    assert abs((got[2] - want[2]) - defect) <= 1e-9 * abs(defect)


@pytest.mark.parametrize("d", [np.linspace(-1.0, 1.0, 100_000), 0.3],
                         ids=["array", "scalar"])
def test_array_step_allocates_nothing(d):
    # every pass of the kernel writes over the squares, so one step of
    # 100k lanes (1.6 MB of squares) makes no scratch root buffer and no
    # broadcast copy of d; its W is one public sqrt_h between two
    # translations, bit for bit
    w = np.full(100_000, (0.4 + 1.1j) ** 2)
    square = w.copy()
    tracemalloc.start()
    try:
        roots = schemes._nv_array_step(square, 0.1, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
    assert roots == 100_000
    y = sqrt_h(w - 0.1) + d
    assert square.tobytes() == (y * y - 0.1).tobytes()


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
    # start from empty caches
    schemes._truncation_terms.cache_clear()
    schemes._taylor_coefficients.cache_clear()
    path = BrownianPath.sample_uniform(0.125, 64, seed=41)
    table = compute_table(path, 0.125, 3)
    first = taylor_step(0.3 + 1.2j, table, 2, 2.0)
    composed = len(calls)
    for _ in range(10):
        assert taylor_step(0.3 + 1.2j, table, 2, 2.0) == first
    assert len(calls) == composed
    assert composed == 7  # the 7 words of length <= 2, once each


def test_taylor_step_evaluates_each_term_once_per_point(monkeypatch):
    # the coefficients depend on (z, kappa, r) only; signed zeros count as
    # different points, since the identity term keeps the sign of re(z)
    calls = []

    def counted(term, z, kappa):
        calls.append(z)
        return eval_term(term, z, kappa)

    monkeypatch.setattr(schemes, "eval_term", counted)
    schemes._taylor_coefficients.cache_clear()
    path = BrownianPath.sample_uniform(0.125, 64, seed=41)
    table = compute_table(path, 0.125, 3)
    terms = len(schemes._truncation_terms(3))
    for z in (0.3 + 1.2j, complex(0.0, 1.0), complex(-0.0, 1.0)):
        manual = 0j
        for n in range(4):
            for word, term in enumerate_level(n):
                if not term.is_zero():
                    manual += eval_term(term, z, 2.0) * table.entries[word]
        for _ in range(5):
            got = taylor_step(z, table, 3, 2.0)
            assert (got, repr(got)) == (manual, repr(manual))
    assert len(calls) == 3 * terms
    assert repr(calls[-1]) == "(-0+1j)"


def test_taylor_refuses_levels_past_the_cap():
    # no table is deeper than LEVEL_CAP; such a cutoff must be refused
    # without first enumerating its 2^41 - 1 words
    path = BrownianPath.sample_uniform(1.0, 8, seed=2)
    table = compute_table(path, 1.0, 2)
    with pytest.raises(ValueError):
        taylor_step(1j, table, 40, 2.0)


@pytest.mark.parametrize("r,message", [
    (-1, "truncation level -1 is "),
    (vfalgebra.LEVEL_CAP + 1, f"above cap {vfalgebra.LEVEL_CAP}")])
def test_every_level_check_is_the_same_rule(r, message):
    # enumerating words, truncating a Taylor sum and building a table all
    # refuse a level outside [0, LEVEL_CAP] through one check
    path = BrownianPath.sample_uniform(1.0, 8, seed=2)
    for refuse in (enumerate_level, schemes._truncation_terms,
                   lambda r: compute_table(path, 1.0, r)):
        with pytest.raises(ValueError, match=message):
            refuse(r)


# Every real parameter of every public entry: (entry, the parameter as its
# message names it, its domain, the entry called with that parameter set
# to x and every other argument valid).  The flat driver draws nothing.
_REAL_PARAMETERS = [
    ("flow_drift", "flow time t", "nonnegative",
     lambda x: flow_drift(1j, x)),
    ("flow_noise", "kappa", "nonnegative",
     lambda x: flow_noise(1j, 0.1, x)),
    ("nv_step", "step size h", "nonnegative",
     lambda x: nv_step(1j, x, 0.1, 2.0)),
    ("nv_step_array", "step size h", "nonnegative",
     lambda x: nv_step(np.array([1j, 2j]), x, 0.1, 2.0)),
    ("nv_step", "kappa", "nonnegative",
     lambda x: nv_step(1j, 0.1, 0.1, x)),
    ("nv_step_unit_noise", "kappa", "positive",
     lambda x: nv_step(1j, 0.1, 0.1, x, UNIT_NOISE)),
    ("euler_step", "step size h", "nonnegative",
     lambda x: euler_step(1j, x, 0.1, 2.0)),
    ("euler_step", "kappa", "positive",
     lambda x: euler_step(1j, 0.1, 0.1, x)),
    ("eval_term", "kappa", "positive",
     lambda x: eval_term(compose((0,)), 1j, x)),
    ("taylor_step", "kappa", "positive",
     lambda x: taylor_step(
         1j, compute_table(BrownianPath.zeros(1.0, 4), 1.0, 2), 2, x)),
    ("reference_solve", "kappa", "positive",
     lambda x: reference_solve(1j, BrownianPath.zeros(1.0, 4), 1.0, x)),
    ("build_trace", "horizon T", "positive",
     lambda x: build_trace(BrownianPath.zeros(1.0, 4), x, 2.0)),
    ("build_trace", "kappa", "nonnegative",
     lambda x: build_trace(BrownianPath.zeros(1.0, 4), 1.0, x)),
    ("build_trace", "tolerance", "positive",
     lambda x: build_trace(BrownianPath.zeros(1.0, 4), 1.0, 2.0,
                           tolerance=x)),
    ("sample_uniform", "horizon T", "positive",
     lambda x: BrownianPath.sample_uniform(x, 4, 0)),
    ("zeros", "horizon T", "positive", lambda x: BrownianPath.zeros(x, 4)),
    ("BrownianPath", "bridge_scale", "nonnegative",
     lambda x: BrownianPath([0.0, 1.0], [0.0, 0.5], 0, bridge_scale=x)),
    ("compute_table", "horizon t", "positive",
     lambda x: compute_table(BrownianPath.zeros(1.0, 4), x, 2)),
    ("epsilon_scaling", "eps", "positive",
     lambda x: epsilon_scaling([0.25, x, 0.0625], 0.5, 2, 2.0, 4, 0, 8)),
    ("epsilon_scaling", "delta", "positive",
     lambda x: epsilon_scaling([0.25, 0.125], x, 2, 2.0, 4, 0, 8)),
    ("epsilon_scaling", "kappa", "positive",
     lambda x: epsilon_scaling([0.25, 0.125], 0.5, 2, x, 4, 0, 8)),
    ("divergence_probe", "eps", "positive",
     lambda x: divergence_probe(x, 0.5, [(0,), (1,)], 50, 4)),
    ("divergence_probe", "delta", "positive",
     lambda x: divergence_probe(0.125, x, [(0,), (1,)], 50, 4)),
    ("divergence_probe", "kappa", "positive",
     lambda x: divergence_probe(0.125, 0.5, [(0,), (1,)], 50, 4, kappa=x)),
    ("moment_preservation", "horizon T", "positive",
     lambda x: moment_preservation(2.0, 1j, x, 4, 100, 0)),
    ("moment_preservation", "kappa", "nonnegative",
     lambda x: moment_preservation(x, 1j, 1.0, 4, 100, 0)),
    ("scheme_comparison", "eps", "positive",
     lambda x: scheme_comparison(2.0, x, [1e-3], 4, 0, 8)),
    ("scheme_comparison", "horizon", "positive",
     lambda x: scheme_comparison(2.0, 0.25, [1e-3, x], 4, 0, 8)),
    ("scheme_comparison", "kappa", "positive",
     lambda x: scheme_comparison(x, 0.25, [1e-3], 4, 0, 8)),
]
_OUTSIDE = {"positive": [math.nan, math.inf, -math.inf, 0.0, -1.0],
            "nonnegative": [math.nan, math.inf, -math.inf, -1.0]}
_REFUSALS = [(entry, name, call, x)
             for (entry, name, domain, call) in _REAL_PARAMETERS
             for x in _OUTSIDE[domain]]


@pytest.mark.parametrize(
    "name, call, x", [case[1:] for case in _REFUSALS],
    ids=[f"{entry}-{name}-{x!r}" for entry, name, _, x in _REFUSALS])
def test_every_real_parameter_check_is_one_rule(monkeypatch, name, call, x):
    # NaN, +-inf and the wrong side of 0 are refused with a ValueError that
    # names the parameter, before any random draw; all but the bounded eps
    # and delta ranges through vfalgebra._check_positive/_check_nonnegative
    def no_draws(*args):
        raise AssertionError("a random draw was made")

    monkeypatch.setattr(brownian, "_normals", no_draws)
    monkeypatch.setattr(experiments, "_sfc64_stream", no_draws)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call(x)


# A table that needs no draw, for the truncation level of taylor_step.
_FLAT_TABLE = compute_table(BrownianPath.zeros(1.0, 4), 1.0, 2)

# Every integer count of every public entry: (entry, the count as its
# message names it, its minimum, the entry called with that count set to
# n and every other argument valid).
_COUNT_PARAMETERS = [
    ("epsilon_scaling", "replicas", 2,
     lambda n: epsilon_scaling([0.25, 0.125], 0.5, 2, 2.0, n, 0, 8)),
    ("epsilon_scaling", "substeps", 1,
     lambda n: epsilon_scaling([0.25, 0.125], 0.5, 2, 2.0, 4, 0, n)),
    ("epsilon_scaling", "truncation level", 0,
     lambda n: epsilon_scaling([0.25, 0.125], 0.5, n, 2.0, 4, 0, 8)),
    ("compute_table", "truncation level", 0,
     lambda n: compute_table(BrownianPath.zeros(1.0, 4), 1.0, n)),
    ("enumerate_level", "truncation level", 0, enumerate_level),
    ("taylor_step", "truncation level", 0,
     lambda n: taylor_step(1j, _FLAT_TABLE, n, 2.0)),
    ("divergence_probe", "replicas", 2,
     lambda n: divergence_probe(0.125, 0.5, [(0,), (1,)], n, 4)),
    ("divergence_probe", "resolution", 1,
     lambda n: divergence_probe(0.125, 0.5, [(0,), (1,)], 50, 4,
                                resolution=n)),
    ("moment_preservation", "n_steps", 1,
     lambda n: moment_preservation(2.0, 1j, 1.0, n, 100, 0)),
    ("moment_preservation", "replicas", 2,
     lambda n: moment_preservation(2.0, 1j, 1.0, 4, n, 0)),
    ("scheme_comparison", "replicas", 2,
     lambda n: scheme_comparison(2.0, 0.25, [1e-3], n, 0, 8)),
    ("scheme_comparison", "substeps", 1,
     lambda n: scheme_comparison(2.0, 0.25, [1e-3], 4, 0, n)),
    ("philox_stream", "replica", 0, lambda n: philox_stream(0, 1, n)),
    ("sample_uniform", "interval count n", 1,
     lambda n: BrownianPath.sample_uniform(1.0, n, 0)),
    ("zeros", "interval count n", 1, lambda n: BrownianPath.zeros(1.0, n)),
]
# below the minimum; a float, integer-valued or not; a bool, which is an
# int to Python but never a count; a string, None and a list.  The list is
# left out for taylor_step, whose lru_cache refuses an unhashable argument
# before its level is checked.
_COUNT_REFUSALS = [(entry, name, call, n)
                   for (entry, name, minimum, call) in _COUNT_PARAMETERS
                   for n in (minimum - 1, float(minimum + 2), 2.5, True,
                             "3", None, [2])
                   if not (entry == "taylor_step" and isinstance(n, list))]


@pytest.mark.parametrize(
    "name, call, n", [case[1:] for case in _COUNT_REFUSALS],
    ids=[f"{entry}-{name}-{n!r}" for entry, name, _, n in _COUNT_REFUSALS])
def test_every_count_check_is_one_rule(monkeypatch, name, call, n):
    # a count that is not an integer >= its minimum is refused with a
    # ValueError that names it, before any random draw, through
    # vfalgebra._check_count
    def no_draws(*args):
        raise AssertionError("a random draw was made")

    monkeypatch.setattr(brownian, "_normals", no_draws)
    monkeypatch.setattr(experiments, "_sfc64_stream", no_draws)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        call(n)


@pytest.mark.parametrize("entry, r", [("taylor_step", 2.0),
                                      ("taylor_step", True),
                                      ("epsilon_scaling", 2.0)])
def test_level_refusals_do_not_depend_on_the_cache(entry, r):
    # the level caches are typed: after integer levels 1 and 2 are cached,
    # 2.0 and True, which equal and hash as 2 and 1, still reach the level
    # check instead of being served the integer's entry
    for level in (1, 2):
        taylor_step(1j, _FLAT_TABLE, level, 2.0)
    schemes._truncation_terms(np.int64(2))
    with pytest.raises(ValueError, match="^truncation level "):
        if entry == "taylor_step":
            taylor_step(1j, _FLAT_TABLE, r, 2.0)
        else:
            epsilon_scaling([0.25, 0.125], 0.5, r, 2.0, 4, 0, 8)


def test_numpy_integers_are_counts():
    # numpy registers its integer types as numbers.Integral
    rows = moment_preservation(2.0, 1j, 1.0, np.int64(2), np.int32(10),
                               0).rows
    assert rows == moment_preservation(2.0, 1j, 1.0, 2, 10, 0).rows
    path = BrownianPath.sample_uniform(1.0, np.int64(4), 0)
    assert path.values.tolist() == \
        BrownianPath.sample_uniform(1.0, 4, 0).values.tolist()


# Every public entry keyed by a seed: the three that read it and the four
# experiments that reach them, each called with every other argument
# valid.
_SEED_ENTRIES = {
    "philox_stream": lambda s: philox_stream(s, 0),
    "BrownianPath": lambda s: BrownianPath([0.0, 0.5, 1.0],
                                           [0.0, 0.3, -0.1], s),
    "sample_uniform": lambda s: BrownianPath.sample_uniform(1.0, 4, s),
    "epsilon_scaling":
        lambda s: epsilon_scaling([0.25, 0.125], 0.5, 2, 2.0, 4, s, 8),
    "divergence_probe":
        lambda s: divergence_probe(0.125, 0.5, [(0,), (1,)], 50, s),
    "moment_preservation":
        lambda s: moment_preservation(2.0, 1j, 1.0, 4, 100, s),
    "scheme_comparison":
        lambda s: scheme_comparison(2.0, 0.25, [1e-3], 4, s, 8),
}


@pytest.mark.parametrize("seed", [2.5, 2.0, True, "3"])
@pytest.mark.parametrize("entry", sorted(_SEED_ENTRIES))
def test_every_seed_check_is_one_rule(monkeypatch, entry, seed):
    # a seed that is not an integer, or is a bool, is refused with a
    # ValueError that names it, before any random draw, through
    # vfalgebra._check_seed: read as int(seed), 2.5 and True would draw
    # the paths of seeds 2 and 1
    def no_draws(*args):
        raise AssertionError("a random draw was made")

    monkeypatch.setattr(brownian, "_normals", no_draws)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        _SEED_ENTRIES[entry](seed)


def test_integer_seeds_keep_their_bits():
    # any integer is a seed and only its low 64 bits count: numpy
    # integers key as the Python int of their value, -1 as 2**64 - 1 and
    # 2**64 + 5 as 5
    def keyed(seed):
        path = BrownianPath([0.0, 0.5, 1.0], [0.0, 0.3, -0.1], seed)
        return (philox_stream(seed, 3).standard_normal(2).tolist(),
                _sfc64_stream(seed, 3).standard_normal(2).tolist(),
                philox_stream(seed, 3, 1).standard_normal(2).tolist(),
                path.refine().values.tolist(),
                BrownianPath.sample_uniform(1.0, 4, seed).values.tolist())

    for same in (np.int64(5), np.uint64(5), np.int8(5), 2 ** 64 + 5):
        assert keyed(same) == keyed(5)
    for same in (np.int32(-1), 2 ** 64 - 1):
        assert keyed(same) == keyed(-1)
    assert keyed(6) != keyed(5)


def test_zero_step_and_zero_kappa_are_accepted():
    # the closed ends of the nonnegative domains: h = 0, and kappa = 0
    # wherever the scaled_noise form allows it
    assert flow_drift(1j, 0.0) == 1j
    assert flow_noise(1j, 0.1, 0.0) == 1j
    assert nv_step(1j, 0.0, 0.1, 2.0) == flow_noise(1j, 0.1, 2.0)
    assert nv_step(np.array([1j]), 0.0, 0.1, 2.0).tolist() == \
        [flow_noise(1j, 0.1, 2.0)]
    assert nv_step(1j, 0.1, 0.1, 0.0) == flow_drift(flow_drift(1j, 0.05),
                                                    0.05)
    assert euler_step(1j, 0.0, 0.1, 2.0) == 0.1 + 1j
    trace = build_trace(BrownianPath.zeros(1.0, 4), 1.0, 0.0, tolerance=1.0)
    assert trace.points[-1] == (1.0, flow_drift(0j, 1.0))
    rows = moment_preservation(0.0, 1j, 1.0, 2, 10, 0).rows
    assert [row["deviation_se"] for row in rows] == [0.0, 0.0]


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
    got = reference_solve(2j, path, 1.0, 2.0)
    want = flow_drift(2j, 1.0 / 2.0)
    assert abs(got - want) <= 1e-12


def test_reference_stabilizes_under_refinement():
    # consecutive refinement corrections are random (each pass injects
    # fresh bridge noise), so only the trend and the final size are
    # asserted, not per-level monotonicity
    path = BrownianPath.sample_uniform(0.25, 128, seed=51)
    solutions = [reference_solve(1j, path, 0.25, 2.0)]
    for _ in range(5):
        path.refine()
        solutions.append(reference_solve(1j, path, 0.25, 2.0))
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


@pytest.mark.parametrize("drivers", [schemes._LANE_CROSSOVER - 1,
                                     schemes._LANE_CROSSOVER])
def test_reference_rows_equal_nv_step_loops(monkeypatch, drivers):
    # three rows, the middle one with no driver: below _LANE_CROSSOVER
    # drivers in all every solution is its own scalar chain, from it on a
    # lane; 40 steps make two blocks of _STEP_BLOCK, and the 0.25i start
    # squares onto the real axis, out of the lane kernel's root box.
    # Every solution is the W chain through public sqrt_h bit for bit,
    # and agrees with the loop of nv_step calls to rounding
    lane_calls = []
    lanes = schemes._nv_lanes

    def counted(*args):
        lane_calls.append(args)
        return lanes(*args)

    monkeypatch.setattr(schemes, "_nv_lanes", counted)
    starts = [0.25j, 1j, complex(-0.4, 0.3)]
    horizons = [0.5, 1.0, 0.125]
    counts = [drivers // 2, 0, drivers - drivers // 2]
    paths = [[BrownianPath.sample_uniform(t, 40, seed=100 * j + i)
              for i in range(n)]
             for j, (t, n) in enumerate(zip(horizons, counts))]
    grids = [brownian._uniform_grid(t, 40) for t in horizons]
    values = [np.array([p.values for p in row]).reshape(-1, 41)
              for row in paths]
    got = schemes._reference_rows(starts, grids, values, 2.0)
    assert bool(lane_calls) == (drivers >= schemes._LANE_CROSSOVER)
    assert [len(row) for row in got] == counts
    for j, row in enumerate(paths):
        for z, path in zip(got[j], row):
            assert path.times.tolist() == grids[j].tolist()
            cs, ds = _chain_args(np.diff(path.times).tolist(),
                                 np.diff(path.values).tolist(), 2.0,
                                 UNIT_NOISE)
            assert _bits(z) == _bits(_chain_in_w(starts[j], cs, ds))
            assert _well_conditioned(starts[j], cs, ds)
            want = _nv_step_loop(starts[j], path, horizons[j], 2.0)
            assert abs(z - want) <= 1e-10 * max(1.0, abs(want))


def _same_bits(got, want):
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and _u64(got).tolist() == \
            _u64(want).tolist()
    return type(got) is complex and _bits(got) == _bits(want)


@pytest.mark.parametrize("x", [-3.0, -3, np.float64(-3.0),
                               np.array([-3.0, -0.5, 2.0]),
                               np.array([-3, 0, 2])],
                         ids=["float", "int", "float64", "float_array",
                              "int_array"])
def test_real_starts_are_read_as_complex(x):
    # (x + 0j)**2 has imaginary part -0.0 for x < 0, which keeps the
    # maps on x's side of the cut; a real-typed x squared as a real lost
    # it, so flow_drift(-3.0, 1.0) was +2.236... and not -2.236...
    z = x + 0j
    noise = np.array([0.0, -0.0, 0.3])
    for step in (lambda s: flow_drift(s, 1.0),
                 lambda s: nv_step(s, 0.1, 0.0, 2.0),
                 lambda s: nv_step(s, 0.1, 0.0, 2.0, UNIT_NOISE),
                 lambda s: nv_step(s, 0.1, noise, 2.0),
                 lambda s: nv_step(s, 0.1, noise, 2.0, UNIT_NOISE)):
        assert _same_bits(step(x), step(z))
    assert np.ravel(flow_drift(x, 1.0))[0].real < 0.0
    # a scalar start with array noise is the array of its copies
    copies = np.broadcast_to(z, noise.shape).copy()
    assert _same_bits(nv_step(x, 0.1, noise, 2.0),
                      nv_step(copies, 0.1, noise, 2.0))


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
    # starting points on or just above the real axis, either sign of zero;
    # the solve is the W chain through public sqrt_h bit for bit, the
    # loop of nv_step calls is the z chain through it bit for bit, and
    # the two agree to rounding wherever no root argument cancels
    path = BrownianPath.sample_uniform(T, n, seed=seed)
    for i in bisect:
        path.insert_midpoint(i % path.n_intervals)
    if refine:
        path.refine()
    stop = max(1, round(where * path.n_intervals))
    t = path.sample(stop)[0]
    z0 = complex(re, im)
    got = reference_solve(z0, path, t, kappa)
    want = _nv_step_loop(z0, path, t, kappa)
    times, values = path.times.tolist(), path.values.tolist()
    steps = range(path.index_of(t))
    cs, ds = _chain_args([times[k + 1] - times[k] for k in steps],
                         [values[k + 1] - values[k] for k in steps],
                         kappa, UNIT_NOISE)
    assert _bits(got) == _bits(_chain_in_w(z0, cs, ds))
    assert _bits(want) == _bits(_chain_by_sqrt_h(z0, cs, ds))
    if _well_conditioned(z0, cs, ds):
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


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
        return root * reference_solve(z0, path, T, kappa)

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
        reference_solve(1j, BrownianPath.zeros(1.0, 4), 1.0, -2.0)


@pytest.mark.parametrize("name, args", [
    ("nv_step", (1j, math.nan, 0.1, 2.0)),
    ("nv_step", (1j, 0.1, 0.1, math.nan)),
    ("nv_step", (np.array([1j]), math.nan, 0.1, 2.0)),
    ("flow_drift", (1j, math.nan)),
    ("flow_noise", (1j, 0.1, math.nan)),
    ("euler_step", (1j, math.nan, 0.1, 2.0)),
    ("euler_step", (1j, 0.1, 0.1, math.nan)),
    ("reference_solve", (1j, BrownianPath.zeros(1.0, 4), 1.0, math.nan)),
])
def test_nan_step_and_kappa_are_refused(name, args):
    # a NaN passed h < 0 and kappa <= 0 and came back as a NaN result
    with pytest.raises(ValueError, match="step size|flow time|kappa"):
        getattr(schemes, name)(*args)


def test_root_box_premise():
    # _nv_lanes takes array roots with np.sqrt only inside _LANE_BOX; there
    # numpy's complex root must be cmath.sqrt bit for bit
    rng = np.random.default_rng(12)
    lo, hi = (math.log2(b) for b in schemes._LANE_BOX)
    parts = np.exp2(rng.uniform(lo, hi, (2, 20000)))
    parts *= rng.choice([-1.0, 1.0], parts.shape)
    w = parts[0] + 1j * parts[1]
    got = np.sqrt(w).tolist()
    for v, s in zip(w.tolist(), got):
        assert _bits(s) == _bits(cmath.sqrt(v))


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 2.0 ** 300,
            -2.0 ** 300, 1e300]
_PART = st.one_of(st.floats(-20.0, 20.0), st.sampled_from(_SPECIAL))
_DRIFT = st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, 1e-300]))
_NOISE = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, 1e200]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lanes=st.integers(1, 6), steps=st.integers(1, 5))
def test_lane_kernel_equals_scalar_kernel(data, lanes, steps):
    # starts on and off both axes, with signed zeros, z0 = 0, and parts
    # tiny or huge enough that some roots leave the box
    starts = data.draw(st.lists(st.one_of(
        st.builds(complex, _PART, _PART),
        st.sampled_from([0j, complex(-0.0, 0.0), complex(-2.0, 0.0),
                         complex(3.0, -0.0), 1j, complex(-0.0, 1e-200)])),
        min_size=lanes, max_size=lanes))
    cs = np.array(data.draw(st.lists(_DRIFT, min_size=steps * lanes,
                                     max_size=steps * lanes)))
    ds = np.array(data.draw(st.lists(_NOISE, min_size=steps * lanes,
                                     max_size=steps * lanes)))
    cs, ds = cs.reshape(steps, lanes), ds.reshape(steps, lanes)
    got = schemes._nv_lanes(starts, cs, ds).tolist()
    for k, z0 in enumerate(starts):
        want = schemes._nv_steps(z0, zip(cs[:, k].tolist(),
                                         ds[:, k].tolist()))
        assert _bits(got[k]) == _bits(want)


def _flipped_roots(z, cs, ds):
    # how many roots of a W chain sqrt_h negates: those whose principal
    # root has the sign bit of its imaginary part set
    w, args = z * z, []
    for c, d in zip(cs, ds):
        args.append(w - c)
        y = sqrt_h(w - c) + d
        w = y * y - c
    args.append(w)
    return sum(math.copysign(1.0, cmath.sqrt(x).imag) < 0.0 for x in args)


def _chain_args(h, dB, kappa, convention):
    # the drift times and noise displacements nv_step computes from them
    if convention == SCALED_NOISE:
        return [2.0 * x for x in h], [math.sqrt(kappa) * x for x in dB]
    return [2.0 * x / kappa for x in h], dB


def _chain_by_sqrt_h(z, cs, ds):
    # the per-step oracle of a loop of nv_step calls: each step's closed
    # form in z, with both roots through public sqrt_h
    for c, d in zip(cs, ds):
        y = sqrt_h(z * z - c) + d
        z = sqrt_h(y * y - c)
    return z


def _chain_in_w(z, cs, ds):
    # the oracle of both chain kernels, independent of them: the drift
    # flow translates W = z^2, so each map steps W with one root through
    # public sqrt_h, and one more root ends the chain
    w = z * z
    for c, d in zip(cs, ds):
        y = sqrt_h(w - c) + d
        w = y * y - c
    return sqrt_h(w)


def _well_conditioned(z, cs, ds, ratio=1e-2):
    # whether no root argument of the W chain cancels: each keeps at least
    # ``ratio`` of the size of the terms it is the sum of.  Stepping z
    # rounds every square anew, and a cancelling argument magnifies that
    # rounding, so only then may the W and z chains part by more than
    # rounding
    w, y, prev = z * z, z, 0.0
    for c, d in zip(cs, ds):
        if not abs(w - c) >= ratio * (abs(y * y) + prev + c):
            return False
        y = sqrt_h(w - c) + d
        w, prev = y * y - c, c
    return cmath.isfinite(w) and abs(w) >= ratio * (abs(y * y) + prev)


_START_PART = st.one_of(st.floats(-20.0, 20.0),
                        st.sampled_from([0.0, -0.0, 5e-324, -1e-200, 1e300]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), steps=st.integers(2, 6),
       kappa=st.sampled_from([0.5, 2.0, 8.0 / 3.0, 6.0]),
       convention=st.sampled_from([SCALED_NOISE, UNIT_NOISE]))
def test_scalar_kernel_equals_nv_step_loop(data, steps, kappa, convention):
    # starts on and off both axes, with signed zeros and z0 = 0, on chains
    # whose roots often get flipped (a start left of the imaginary axis
    # squares below the real axis); huge parts overflow, and the bits
    # must agree there too.  The kernel is the W chain through public
    # sqrt_h, the nv_step loop is the z chain through it, and the two
    # agree to rounding wherever no root argument cancels
    z0 = data.draw(st.one_of(
        st.builds(complex, _START_PART, _START_PART),
        st.sampled_from([0j, complex(-0.0, 0.0), complex(-2.0, 0.0),
                         complex(3.0, -0.0), complex(-0.0, 1.5),
                         complex(-1.0, 0.25)])))
    h = data.draw(st.lists(st.one_of(st.floats(0.0, 3.0),
                                     st.sampled_from([0.0, 1e-300])),
                           min_size=steps, max_size=steps))
    dB = data.draw(st.lists(st.one_of(st.floats(-4.0, 4.0),
                                      st.sampled_from([0.0, -0.0, 1e200])),
                            min_size=steps, max_size=steps))
    want = z0
    for x, b in zip(h, dB):
        want = nv_step(want, x, b, kappa, convention)
    cs, ds = _chain_args(h, dB, kappa, convention)
    got = schemes._nv_steps(z0, zip(cs, ds))
    assert _bits(got) == _bits(_chain_in_w(z0, cs, ds))
    assert _bits(want) == _bits(_chain_by_sqrt_h(z0, cs, ds))
    if _well_conditioned(z0, cs, ds):
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("convention", [SCALED_NOISE, UNIT_NOISE])
def test_scalar_kernel_flips_inside_a_chain(convention):
    # a chain that wanders left of the imaginary axis, so that its roots
    # get flipped on many steps: the kernel takes each step's flip as
    # d - s and the last root's as a negation, and must still give the
    # bits of the W chain through sqrt_h; the nv_step loop is the z chain
    # through sqrt_h bit for bit and agrees with the kernel to rounding
    rng = np.random.default_rng(9)
    h = rng.uniform(0.0, 0.05, 40).tolist()
    dB = (rng.normal(-0.3, 0.5, 40)).tolist()
    cs, ds = _chain_args(h, dB, 6.0, convention)
    assert _flipped_roots(-1.0 + 0.5j, cs, ds) >= 20
    want = -1.0 + 0.5j
    for x, b in zip(h, dB):
        want = nv_step(want, x, b, 6.0, convention)
    got = schemes._nv_steps(-1.0 + 0.5j, zip(cs, ds))
    assert _bits(got) == _bits(_chain_in_w(-1.0 + 0.5j, cs, ds))
    assert _bits(want) == _bits(_chain_by_sqrt_h(-1.0 + 0.5j, cs, ds))
    assert _well_conditioned(-1.0 + 0.5j, cs, ds)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    # no step leaves the start as it is, sign bits included
    assert _bits(schemes._nv_steps(complex(3.0, -0.0), [])) == \
        _bits(complex(3.0, -0.0))
    empty = np.empty((0, 1))
    assert _bits(schemes._nv_lanes([complex(3.0, -0.0)], empty,
                                   empty)[0]) == _bits(complex(3.0, -0.0))


def _same_result(got, want):
    # bits, part by part; a NaN part only has to be a NaN on both sides
    for x, y in ((got.real, want.real), (got.imag, want.imag)):
        if math.isnan(x) or math.isnan(y):
            if not (math.isnan(x) and math.isnan(y)):
                return False
        elif struct.pack("<d", x) != struct.pack("<d", y):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(z0=st.builds(complex,
                    st.one_of(st.floats(-20.0, -0.0),
                              st.sampled_from([-0.0, -5e-324, -1e300])),
                    st.one_of(st.floats(0.0, 20.0),
                              st.sampled_from([0.0, -0.0, 5e-324, 1e-300,
                                               1e300]))),
       steps=st.lists(st.tuples(
           st.one_of(st.floats(0.0, 4.0),
                     st.sampled_from([0.0, 5e-324, 1e-300, 1e300])),
           st.one_of(st.floats(-4.0, 4.0),
                     st.sampled_from([0.0, -0.0, 5e-324, -1e300, 1e300]))),
           max_size=40))
def test_scalar_kernel_reads_float_steps_as_complex(z0, steps):
    # the trace sweep and the reference tail hand _nv_steps complex steps
    # with a +0.0 imaginary part, so that every operation of its loop is
    # complex-complex; a float step is read as exactly that complex, so
    # the results are the same bits.  Starts left of the imaginary axis
    # square below the real axis and get their roots flipped; d = -0.0 is
    # the noise of kappa = 0, and huge parts overflow to inf and NaN
    as_complex = [(complex(c), complex(d)) for c, d in steps]
    assert _same_result(schemes._nv_steps(z0, as_complex),
                        schemes._nv_steps(z0, steps))


def test_scalar_kernel_sees_the_sign_of_a_step_s_imaginary_zero():
    # -3 squares to 9 - 0j, the limit from above the axis left of 0; a c
    # whose imaginary part is -0.0 would clear that sign bit, take the
    # root on the other side of the cut and land on the other side of
    # the imaginary axis, so the +0.0 of complex(c) is what keeps the bits
    z0, c = complex(-3.0, 0.0), 1.0
    want = schemes._nv_steps(z0, [(c, 0.0)])
    assert _bits(schemes._nv_steps(z0, [(complex(c), 0j)])) == _bits(want)
    assert want.real < 0.0
    assert _bits(schemes._nv_steps(z0, [(complex(c, -0.0), 0j)])) != \
        _bits(want)


_EDGE_PART = st.one_of(st.floats(-1e300, 1e300),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300,
                                        -1e300, math.inf, -math.inf]))


@settings(max_examples=400, deadline=None)
@given(v=st.builds(complex, _EDGE_PART, _EDGE_PART),
       z0=st.builds(complex, _EDGE_PART, _EDGE_PART),
       steps=st.lists(st.tuples(
           st.one_of(st.floats(0.0, 1e300),
                     st.sampled_from([0.0, 5e-324, 1e-300, math.inf])),
           _EDGE_PART), min_size=1, max_size=12))
def test_scalar_kernel_reads_its_flip_from_the_root_s_argument(v, z0, steps):
    # _nv_steps decides each step's flip on the sign bit of the root's
    # argument v = w - c, sqrt_h on that of the root: for every v without
    # a NaN part, cmath.sqrt gives the root the sign of v's imaginary
    # part, signed zeros and infinities included.  So the kernel and the
    # W chain through public sqrt_h give the same bits; a NaN part, which
    # overflow and infinities make, need only be a NaN on both sides
    assert math.copysign(1.0, cmath.sqrt(v).imag) == \
        math.copysign(1.0, v.imag)
    cs = [complex(c) for c, _ in steps]
    ds = [complex(d) for _, d in steps]
    assert _same_result(schemes._nv_steps(z0, zip(cs, ds)),
                        _chain_in_w(z0, cs, ds))


def test_kernel_steps_are_complex_with_a_positive_zero_imaginary_part(
        monkeypatch):
    # the trace sweep (bisections included) and the scalar reference tail
    # below _LANE_CROSSOVER lanes hand _nv_steps complex c and d only,
    # each with a +0.0 imaginary part
    seen = []
    kernel = schemes._nv_steps

    def recorded(z, steps):
        steps = list(steps)
        seen.extend(x for step in steps for x in step)
        return kernel(z, steps)

    monkeypatch.setattr(trace, "_nv_steps", recorded)
    monkeypatch.setattr(schemes, "_nv_steps", recorded)
    for kappa in (0.0, 8.0 / 3.0):
        path = BrownianPath.sample_uniform(1.0, 16, seed=11)
        result = build_trace(path, 1.0, kappa=kappa, tolerance=0.1)
        assert result.stats["refinement_depth_max"] > 0
    traced = len(seen)
    assert traced
    report = epsilon_scaling([0.3, 0.2], 0.5, 2, 2.0, replicas=4, seed=1,
                             substeps=8)
    assert 2 * 4 < schemes._LANE_CROSSOVER
    assert report.stats["reference_doublings"] and len(seen) > traced
    zero = struct.pack("<d", 0.0)
    assert all(type(x) is complex and struct.pack("<d", x.imag) == zero
               for x in seen)


@pytest.mark.parametrize("convention", [SCALED_NOISE, UNIT_NOISE])
def test_array_step_leaves_its_inputs_unchanged(convention):
    # the array path takes its roots in place, on its own temporaries only
    rng = np.random.default_rng(5)
    z = rng.uniform(-2, 2, 50) + 1j * rng.uniform(0.0, 2, 50)
    dB = rng.normal(0.0, 1.0, 50)
    ints = np.arange(-3, 4)
    copies = z.copy(), dB.copy(), ints.copy()
    nv_step(z, 0.3, dB, 2.0, convention)
    nv_step(ints, 0.3, dB[:7], 2.0, convention)
    nv_step(1j, 0.3, dB, 2.0, convention)
    assert z.tobytes() == copies[0].tobytes()
    assert dB.tobytes() == copies[1].tobytes()
    assert ints.tobytes() == copies[2].tobytes()


def _flows(z, h, dB, kappa, convention):
    # nv_step as its three flows, through public sqrt_h; unit_noise is
    # the scaled_noise flows at kappa 1 with drift time h / kappa
    if convention == UNIT_NOISE:
        h, kappa = h / kappa, 1.0
    return flow_drift(flow_noise(flow_drift(z, h / 2), dB, kappa), h / 2)


def _u64(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("convention", [SCALED_NOISE, UNIT_NOISE])
def test_array_step_equals_the_flows_bit_for_bit(convention):
    # 100k starts over the closed upper half plane, with every kind of
    # axis start and signed zero, and noise with signed zeros
    rng = np.random.default_rng(31)
    n = 100_000
    z = rng.uniform(-10, 10, n) + 1j * rng.uniform(0, 10, n)
    z[::7] = z[::7].real + 0j
    z[1::7] = z[1::7].real - 0j
    z[2::7] = 1j * z[2::7].imag
    z[3::7] = complex(-0.0, 1.0) * z[3::7].imag
    z[4:40] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1j, -2.0,
               complex(-2.0, -0.0)] * 6
    dB = rng.normal(0.0, 1.0, n)
    dB[::5] = 0.0
    dB[1::5] = -0.0
    for kappa in [2.0, 8.0 / 3.0, 6.0]:
        for h in [0.0, 1e-300, 0.05, 0.17, 1.3]:
            got = nv_step(z, h, dB, kappa, convention)
            want = _flows(z, h, dB, kappa, convention)
            assert np.array_equal(_u64(got), _u64(want))
    # broadcast shapes: a row of noise over a grid of starts, one scalar
    # displacement for every start
    grid = z[:600].reshape(20, 30)
    for noise in (dB[:30], -0.0, 0.25):
        got = nv_step(grid, 0.17, noise, 6.0, convention)
        assert got.shape == grid.shape
        want = _flows(grid, 0.17, noise, 6.0, convention)
        assert np.array_equal(_u64(got), _u64(want))


@pytest.mark.parametrize("convention", [SCALED_NOISE, UNIT_NOISE])
def test_scalar_step_equals_the_flows_bit_for_bit(convention):
    # the scalar path is one step of _nv_steps; the flows take their roots
    # through public sqrt_h, so they stay an independent oracle, on axis
    # starts with either sign of zero, subnormal and huge parts too
    rng = np.random.default_rng(37)
    starts = [0j, complex(-0.0, 0.0), 1j, complex(-0.0, 1.0), -2.0 + 0j,
              complex(-2.0, -0.0), 3.0 + 0j, complex(-1.0, 1e-200),
              complex(5e-324, 1.5), complex(-1e-200, 0.0),
              complex(1e300, 2.0)]
    starts += (rng.uniform(-10, 10, 200)
               + 1j * rng.uniform(0, 10, 200)).tolist()
    for z in starts:
        for kappa in [2.0, 6.0]:
            for h in [0.0, 1e-300, 0.05, 1.3]:
                for dB in [0.0, -0.0, 1e200, float(rng.normal())]:
                    got = nv_step(z, h, dB, kappa, convention)
                    want = _flows(z, h, dB, kappa, convention)
                    assert _bits(got) == _bits(want)


def _relative_error(mpmath, got, z0, cs, ds):
    # |got - z| / |z| for the chain z of maps in z from z0 at 50 digits,
    # with sqrt_h read as "negate the root when its im < 0"; the float64
    # drift times and displacements are read exactly
    def sqrt_h_exact(w):
        s = mpmath.sqrt(w)
        return -s if s.imag < 0 else s

    with mpmath.workdps(50):
        z = mpmath.mpc(z0)
        for c, d in zip(cs, ds):
            c, d = mpmath.mpf(c), mpmath.mpf(d)
            z = sqrt_h_exact((sqrt_h_exact(z * z - c) + d) ** 2 - c)
        return float(abs(got - z) / abs(z))


def test_kernels_match_a_50_digit_chain_near_the_axis_and_at_small_h(
        monkeypatch):
    # 48-map chains at kappa 6 from real starts x + 0j, from x + i eta
    # just above the axis, and from x + i with tiny steps h, through the
    # scalar kernel and as the lanes of one lane-kernel call.  A real
    # start is checked against the chain from x + 1e-40 i, its limit from
    # above; its roots lie on the axis, so the lane kernel takes them
    # with its cmath fallback
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    kappa, n = 6.0, 48
    starts, limits, cs, ds = [], [], [], []

    def chain(z0, limit, h):
        starts.append(z0)
        limits.append(limit)
        cs.append(np.full(n, 2.0 * h))
        ds.append(math.sqrt(kappa * h) * rng.normal(size=n))

    for x in (0.5, -0.5, 2.0, -2.0, 3.0, -3.0):
        chain(complex(x, 0.0), mpmath.mpc(x, mpmath.mpf("1e-40")), 1.0 / n)
        for eta in (1e-3, 1e-8, 1e-14):
            chain(complex(x, eta), complex(x, eta), 1.0 / n)
        for h in (1e-8, 1e-12, 1e-16):
            chain(complex(x, 1.0), complex(x, 1.0), h)
    cs, ds = np.array(cs).T, np.array(ds).T
    fallback = []
    root = cmath.sqrt

    def counted(w):
        fallback.append(w)
        return root(w)

    with monkeypatch.context() as m:
        m.setattr(cmath, "sqrt", counted)
        lanes = schemes._nv_lanes(starts, cs, ds).tolist()
    assert fallback
    for k, z0 in enumerate(starts):
        got = schemes._nv_steps(z0, zip(cs[:, k].tolist(),
                                        ds[:, k].tolist()))
        assert _bits(lanes[k]) == _bits(got)
        assert _relative_error(mpmath, got, limits[k], cs[:, k].tolist(),
                               ds[:, k].tolist()) <= 1e-12


def test_lane_kernel_guard_catches_the_imaginary_axis():
    # z0 = 0.1 + 0.1i with no drift and no noise squares to
    # 0.020000000000000004i, on the imaginary axis, where np.sqrt and
    # cmath.sqrt part; the guard must take that step's roots with cmath
    # for every lane
    w = complex(0.1, 0.1) * complex(0.1, 0.1)
    assert _bits(complex(np.sqrt(np.array([w]))[0])) != _bits(cmath.sqrt(w))
    rng = np.random.default_rng(4)
    starts = (rng.uniform(-1, 1, 9) + 1j * rng.uniform(0.1, 1, 9)).tolist()
    starts.append(complex(0.1, 0.1))
    cs = np.zeros((1, 10))
    ds = rng.normal(0.0, 0.2, (1, 10))
    ds[0, 9] = 0.0
    got = schemes._nv_lanes(starts, cs, ds).tolist()
    for k, z0 in enumerate(starts):
        want = schemes._nv_steps(z0, zip(cs[:, k].tolist(),
                                         ds[:, k].tolist()))
        assert _bits(got[k]) == _bits(want)
