"""Driver sampling, reproducible refinement, and serialization."""

import math
import sys
import threading
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slesim import brownian
from slesim.brownian import (BrownianPath, _bisect, _normals, _uniform_block,
                             _uniform_grid, philox_stream)


def _bits(x) -> list:
    """Exact bit patterns of float64 values, so -0.0 differs from 0.0."""
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def test_same_seed_same_path():
    a = BrownianPath.sample_uniform(2.0, 64, seed=5)
    b = BrownianPath.sample_uniform(2.0, 64, seed=5)
    assert a.times.tolist() == b.times.tolist()
    assert a.values.tolist() == b.values.tolist()


def test_different_seeds_differ():
    a = BrownianPath.sample_uniform(1.0, 16, seed=0)
    b = BrownianPath.sample_uniform(1.0, 16, seed=1)
    assert a.values.tolist() != b.values.tolist()


def test_grid_hits_horizon_exactly():
    # horizons like 0.1 are not exactly representable; the grid must
    # still contain T itself, not n * (T/n)
    for T in (1.0, 0.1, 2.0 ** -21, 3.7):
        p = BrownianPath.sample_uniform(T, 7, seed=2)
        assert p.times[-1] == T
        assert p.horizon == T
        assert p.value_at(T) == p.values[-1]


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-300, 1e300), st.integers(1, 2000))
def test_uniform_grid_rounds_like_scalar_loop(T, n):
    assert _uniform_grid(T, n).tolist() == [T * (k / n) for k in range(n + 1)]


def test_uniform_blocks_equal_sample_uniform():
    # every row is the driver summed from its own replica's increment
    # stream, whichever block of replicas it is in; replica 0's row is
    # the path sample_uniform draws from the same seed
    replicas = [0] + [3 * r + 1 for r in range(130)]
    times = _uniform_grid(0.7, 9)
    values = _uniform_block(0.7, 9, 11, replicas)
    assert _bits(_uniform_block(0.7, 9, 11, replicas[64:])) == \
        _bits(values[64:])
    for replica, row in zip(replicas, values):
        incs = philox_stream(11, 0, replica).standard_normal(9)
        want = [0.0, *accumulate((incs * math.sqrt(0.7 / 9)).tolist())]
        assert row.tolist() == want
    p = BrownianPath.sample_uniform(0.7, 9, seed=11)
    assert times.tolist() == p.times.tolist()
    assert values[0].tolist() == p.values.tolist()
    assert BrownianPath.zeros(0.7, 9).times.tolist() == times.tolist()


def test_starts_at_zero():
    p = BrownianPath.sample_uniform(1.0, 4, seed=0)
    assert p.times[0] == 0.0 and p.values[0] == 0.0


def test_increment_variance_mc():
    # 10^5 unit-time endpoints: sample variance within 3 standard errors
    # of 1 (se of the variance of a normal sample is sqrt(2/M))
    m = 100000
    vals = np.array([philox_stream(s, 0).standard_normal() for s in range(200)])
    # cheaper: one long stream per tag is not the sampling path; check the
    # actual constructor output instead on fewer replicas
    ends = np.array([BrownianPath.sample_uniform(1.0, 1, seed=s).values[-1]
                     for s in range(2000)])
    var = ends.var()
    assert abs(var - 1.0) <= 3.0 * math.sqrt(2.0 / len(ends))
    assert abs(vals.mean()) <= 3.0 / math.sqrt(len(vals))


def test_midpoint_insertion_is_local():
    p = BrownianPath.sample_uniform(1.0, 8, seed=9)
    before = {t: v for t, v in zip(p.times.tolist(), p.values.tolist())}
    p.insert_midpoint(3)
    assert p.n_intervals == 9
    for t, v in zip(p.times.tolist(), p.values.tolist()):
        if t in before:
            assert before[t] == v


def test_refinement_order_does_not_matter():
    # midpoint draws are keyed by the midpoint time, so any insertion
    # order yields the same values on the common grid
    a = BrownianPath.sample_uniform(1.0, 4, seed=3)
    b = BrownianPath.sample_uniform(1.0, 4, seed=3)
    a.insert_midpoint(0)
    a.insert_midpoint(4)  # last interval after first insert
    b.insert_midpoint(3)
    b.insert_midpoint(0)
    common = sorted(set(a.times.tolist()) & set(b.times.tolist()))
    assert len(common) == 7
    for t in common:
        assert a.value_at(t) == b.value_at(t)


def test_full_refine_matches_manual_bisection():
    a = BrownianPath.sample_uniform(1.0, 4, seed=8)
    b = BrownianPath.sample_uniform(1.0, 4, seed=8)
    a.refine()
    for i in reversed(range(4)):
        b.insert_midpoint(i)
    assert a.times.tolist() == b.times.tolist()
    assert a.values.tolist() == b.values.tolist()


def _random_path(seed: int, n: int) -> BrownianPath:
    # uneven grid: positive gaps spread over six decades
    rng = np.random.default_rng(seed)
    times = np.concatenate(([0.0], np.cumsum(10.0 ** rng.uniform(-6, 0, n))))
    values = np.concatenate(([0.0], rng.standard_normal(n)))
    return BrownianPath(times, values, seed=seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 300))
def test_refine_equals_reversed_midpoint_loop(seed, n):
    a = _random_path(seed, n)
    b = _random_path(seed, n)
    a.refine()
    for i in reversed(range(n)):
        b.insert_midpoint(i)
    assert a.times.tolist() == b.times.tolist()
    assert a.values.tolist() == b.values.tolist()
    assert [a.sample(i) for i in range(len(a))] == \
        [b.sample(i) for i in range(len(b))]


@settings(max_examples=25, deadline=None)
@given(st.integers(-2 ** 63, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 10),
       st.integers(1, 40), st.integers(1, 9), st.floats(1e-6, 1e3))
def test_block_bisection_equals_midpoint_loop(seed, first, n, rows, T):
    # one row per replica, all on the uniform grid: at doubling d, each
    # row's midpoints, in interval order, are the bridge midpoints of the
    # first normals of its replica's stream of tag d, formed one by one
    replicas = list(range(first, first + rows))
    times, values = _uniform_grid(T, n), _uniform_block(T, n, seed, replicas)
    want = [(times.tolist(), row.tolist()) for row in values]
    for doubling in (1, 2, 3):
        times, values = _bisect(times, values, seed, replicas, doubling)
        for k, (t, v) in enumerate(want):
            xi = philox_stream(seed, doubling,
                               replicas[k]).standard_normal(len(t) - 1)
            tm = [0.5 * (a + b) for a, b in zip(t, t[1:])]
            vm = [0.5 * (a + b) + math.sqrt(0.25 * (t1 - t0)) * x
                  for a, b, t0, t1, x in zip(v, v[1:], t, t[1:], xi.tolist())]
            t = [x for pair in zip(t, tm) for x in pair] + t[-1:]
            v = [x for pair in zip(v, vm) for x in pair] + v[-1:]
            want[k] = t, v
    for (t, v), row in zip(want, values):
        assert _bits(times) == _bits(t)
        assert _bits(row) == _bits(v)


def test_refine_of_unbisectable_interval_leaves_path_unchanged():
    # 0.5 * (0 + 5e-324) rounds to 0, and 0.5 * (1 + (1 + 2^-52)) to 1:
    # neither interval has a float64 midpoint, but the ones to their
    # right do, and those must not be bisected either
    p = BrownianPath([0.0, 5e-324, 0.5, 1.0], [0.0, 0.3, 0.1, -0.2],
                     seed=4)
    q = BrownianPath([0.0, 1.0, 1.0 + 2.0 ** -52, 2.0], [0.0, 0.1, -0.2, 0.3],
                     seed=4)
    for path in (p, q):
        times, values = path.times.tolist(), path.values.tolist()
        with pytest.raises(ValueError, match="cannot be bisected"):
            path.refine()
        assert path.times.tolist() == times
        assert path.values.tolist() == values
        assert [path.sample(i) for i in range(len(path))] == \
            list(zip(times, values))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, 2 ** 64 - 1), st.just(-1),
                 st.integers(-2 ** 63, -1)),
       st.one_of(st.integers(0, 2 ** 64 - 1), st.just(2 ** 64 - 1)),
       st.one_of(st.just(0), st.integers(0, 2 ** 64 - 1)),
       st.integers(0, 9))
def test_reset_generator_draws_equal_a_new_stream(seed, tag, replica, n):
    want = philox_stream(seed, tag, replica).standard_normal()
    got = _normals(seed, tag, replica)
    assert type(got) is float and got == want
    want = philox_stream(seed, tag, replica).standard_normal(n)
    out = np.empty(n)
    assert _normals(seed, tag, replica, out) is out
    assert out.tolist() == want.tolist()
    # the oracle: numpy's Philox started at counter (0, 0, 0, replica)
    key = np.array([seed & (2 ** 64 - 1), tag], dtype=np.uint64)
    counter = np.array([0, 0, 0, replica], dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=counter)
    assert np.random.Generator(bitgen).standard_normal(n).tolist() == \
        want.tolist()


def test_concurrent_refinement_matches_serial():
    # each thread resets its own generator; threads drawing at once, with
    # a switch between almost every bytecode, must not see each other's
    # generator state
    seeds = (21, 22, 23, 24)

    def grow(seed):
        p = BrownianPath.sample_uniform(1.0, 32, seed=seed)
        for _ in range(4):
            p.refine()
            p.insert_midpoint(7)
        return p

    serial = [grow(s) for s in seeds]
    out = {}
    start = threading.Barrier(len(seeds))

    def work(seed):
        start.wait()
        out[seed] = grow(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for s, want in zip(seeds, serial):
        assert out[s].times.tolist() == want.times.tolist()
        assert out[s].values.tolist() == want.values.tolist()


def test_bridge_midpoint_statistics():
    # E[B(m) | endpoints] is the endpoint mean with variance h/4
    draws = []
    for seed in range(4000):
        p = BrownianPath.sample_uniform(1.0, 1, seed=seed)
        end = p.values[-1]
        p.insert_midpoint(0)
        draws.append(p.value_at(0.5) - 0.5 * end)
    draws = np.array(draws)
    assert abs(draws.mean()) <= 3.0 * math.sqrt(0.25 / len(draws))
    assert abs(draws.var() - 0.25) <= 3.0 * 0.25 * math.sqrt(2.0 / len(draws))


def test_zeros_path_stays_zero_under_refinement():
    p = BrownianPath.zeros(1.0, 4)
    p.refine()
    p.insert_midpoint(1)
    p.refine()
    p.refine()
    assert p.n_intervals == 36
    # +0.0, not -0.0: the sign would show in the CSV bytes
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0
               for v in p.values.tolist())


def test_non_finite_samples_are_rejected():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="finite"):
        BrownianPath([0.0, nan, 1.0], [0.0, 0.5, 1.0], seed=0)
    with pytest.raises(ValueError, match="finite"):
        BrownianPath([0.0, 0.5, 1.0], [0.0, inf, 1.0], seed=0)
    with pytest.raises(ValueError, match="finite"):
        BrownianPath([0.0, 0.5, inf], [0.0, 0.5, 1.0], seed=0)


def test_constructor_copies_caller_arrays():
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, -0.25, 0.75])
    p = BrownianPath(times, values, seed=0)
    times[1] = 0.75
    values[1] = 9.0
    assert p.times.tolist() == [0.0, 0.5, 1.0]
    assert p.values.tolist() == [0.0, -0.25, 0.75]
    assert p.sample(1) == (0.5, -0.25)


def test_index_and_increment():
    p = BrownianPath.sample_uniform(2.0, 8, seed=4)
    assert p.index_of(0.5) == 2
    with pytest.raises(ValueError):
        p.index_of(0.51)


@pytest.mark.parametrize("refine", [False, True])
def test_writing_into_the_arrays_leaves_the_path_as_it_was(refine):
    # times and values are new arrays each time: the path keeps its
    # samples once, so sample, index_of and the arrays always agree
    p = BrownianPath.sample_uniform(1.0, 4, seed=4)
    if refine:
        p.refine()
    times, values = p.times.tolist(), p.values.tolist()
    p.times[2] = 0.9
    p.values[2] = 7.0
    assert p.times.tolist() == times and p.values.tolist() == values
    assert p.sample(2) == (times[2], values[2])
    assert p.index_of(times[2]) == 2
    with pytest.raises(ValueError):
        p.index_of(0.9)


def test_empty_uniform_grid_is_refused_before_dividing():
    # the check comes before k / n is formed, so no divide warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="interval"):
            _uniform_grid(1.0, 0)
        with pytest.raises(ValueError, match="interval"):
            BrownianPath.sample_uniform(1.0, 0, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            BrownianPath.zeros(0.0, 4)


def test_constructor_validation():
    with pytest.raises(ValueError):
        BrownianPath([0.0, 0.0], [0.0, 1.0], seed=0)
    with pytest.raises(ValueError):
        BrownianPath([0.0, 1.0], [0.5, 1.0], seed=0)
    with pytest.raises(ValueError):
        BrownianPath([0.0], [0.0, 1.0], seed=0)
    with pytest.raises(ValueError):
        BrownianPath.sample_uniform(-1.0, 4, seed=0)
    with pytest.raises(ValueError):
        BrownianPath.sample_uniform(1.0, 0, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 6), st.integers(0, 5))
def test_insertion_never_moves_existing_samples(seed, n, i):
    p = BrownianPath.sample_uniform(1.0, n, seed=seed)
    old = list(zip(p.times.tolist(), p.values.tolist()))
    p.insert_midpoint(min(i, n - 1))
    new = dict(zip(p.times.tolist(), p.values.tolist()))
    for t, v in old:
        assert new[t] == v
