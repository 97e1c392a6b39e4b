"""Driver sampling, reproducible refinement, and serialization."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slesim import brownian
from slesim.brownian import (BrownianPath, _bisect, _block_normals, _normals,
                             _philox_words, _uniform_block, _uniform_grid,
                             _zig_tables, philox_stream)

_TOP = 2 ** 64 - 1
# (seed, tag) keys whose first Philox word numpy's ziggurat fast path does
# not decide: level 0 with rabits >= ki[0] (the tail), level 1 (ki[1] is
# 0), and one level past 1.  test_slow_keys_take_the_slow_path checks them.
_SLOW_SEEDS = (7, -5)
_SLOW_TAGS = (2104, 567, 1868, 626, 543)


def _bits(x) -> list:
    """Exact bit patterns of float64 values, so -0.0 differs from 0.0."""
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def _first_word(seed: int, tag: int) -> int:
    # a uint64 key array: numpy casts a list of ints >= 2**63 to zero
    key = np.array([seed & _TOP, tag], dtype=np.uint64)
    return int(np.random.Philox(key=key).random_raw())


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
    # every row equals its own path, whichever block of seeds it is in
    seeds = [3 * s + 1 for s in range(130)]
    times = _uniform_grid(0.7, 9)
    values = _uniform_block(0.7, 9, seeds)
    assert _bits(_uniform_block(0.7, 9, seeds[64:])) == _bits(values[64:])
    for seed, row in zip(seeds, values):
        p = BrownianPath.sample_uniform(0.7, 9, seed=seed)
        assert times.tolist() == p.times.tolist()
        assert row.tolist() == p.values.tolist()
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
@given(st.integers(-2 ** 63, 2 ** 64 - 10), st.integers(1, 40),
       st.integers(1, 9), st.floats(1e-6, 1e3))
def test_block_bisection_equals_midpoint_loop(seed, n, rows, T):
    # one row per driver, all on the uniform grid: three passes over the
    # block give the bits of each path's own scalar midpoint draws
    seeds = list(range(seed, seed + rows))
    times, values = _uniform_grid(T, n), _uniform_block(T, n, seeds)
    paths = [BrownianPath.sample_uniform(T, n, s) for s in seeds]
    for _ in range(3):
        times, values = _bisect(times, values, seeds)
        for path in paths:
            for i in reversed(range(path.n_intervals)):
                path.insert_midpoint(i)
    for path, row in zip(paths, values):
        assert _bits(path.times) == _bits(times)
        assert _bits(path.values) == _bits(row)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, _TOP), st.integers(0, _TOP))
@example(0, 0)
@example(_TOP, _TOP)
def test_philox_word_is_numpys_first_word(seed, tag):
    got = _philox_words(np.array([seed], dtype=np.uint64),
                        np.array([tag], dtype=np.uint64))
    assert got.tolist() == [_first_word(seed, tag)]


def test_slow_keys_take_the_slow_path():
    wi, ki = _zig_tables()
    levels = set()
    for seed in _SLOW_SEEDS:
        for tag in _SLOW_TAGS:
            word = _first_word(seed, tag)
            level, rabits = word & 0xFF, (word >> 9) & (2 ** 52 - 1)
            if rabits >= int(ki[level]):
                levels.add(min(level, 2))
    assert levels == {0, 1, 2}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-2 ** 63, _TOP),
                          st.sampled_from([-1, 0, 2 ** 63, _TOP])),
                max_size=4),
       st.lists(st.one_of(st.integers(0, _TOP), st.sampled_from([0, _TOP])),
                max_size=12))
def test_block_normals_equal_one_draw_per_key(seeds, tags):
    # every example also draws the slow keys, levels 0 and 1 included
    seeds = seeds + list(_SLOW_SEEDS)
    tags = tags + list(_SLOW_TAGS)
    got = _block_normals(seeds, np.array(tags, dtype=np.uint64))
    assert got.shape == (len(seeds), len(tags))
    assert _bits(got) == _bits([[_normals(s, t) for t in tags]
                                for s in seeds])


def test_block_normals_span_several_blocks():
    # 37 x 250 keys: three blocks of rows, the last one short
    seeds = [2 ** 63 + 11 * k for k in range(37)]
    tags = np.arange(1, 251, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    assert len(seeds) * len(tags) > 2 * brownian._KEY_BLOCK
    got = _block_normals(seeds, tags)
    assert _bits(got) == _bits([[_normals(s, t) for t in tags.tolist()]
                                for s in seeds])
    assert _block_normals(seeds, tags[:0]).shape == (37, 0)


def test_tables_are_numpys():
    # the first entries of numpy's ziggurat_constants.h, and a ki that
    # passed the self-check (a failed check zeroes it)
    wi, ki = _zig_tables()
    assert wi[:3].tolist() == [8.68362706080130616677e-16,
                               4.77933017572773682428e-17,
                               6.35435241740526230246e-17]
    assert ki[:3].tolist() == [0x000EF33D8025EF6A, 0, 0x000C08BE98FBC6A8]
    assert (ki[2:] > 0).all()
    # the ratio guess saves the bisection on every level past 1
    assert brownian._derive_tables()[2] < 1200


def test_self_check_falls_back_on_corrupted_tables(monkeypatch):
    # tables one ulp off must fail the self-check, which sends every key
    # to the scalar draw, so the bits still equal numpy's
    derive = brownian._derive_tables

    def corrupted():
        wi, ki, draws = derive()
        return np.nextafter(wi, np.inf), ki, draws

    monkeypatch.setattr(brownian, "_derive_tables", corrupted)
    monkeypatch.setattr(brownian, "_tables", None)
    seeds = [3, _TOP]
    tags = np.arange(64, dtype=np.uint64) * np.uint64(977)
    got = _block_normals(seeds, tags)
    assert _bits(got) == _bits([[_normals(s, t) for t in tags.tolist()]
                                for s in seeds])
    assert not brownian._tables[1].any()


def test_first_bisection_in_two_threads_matches_serial(monkeypatch):
    # both threads find the tables missing at once; one derives them,
    # the other waits for it, and both draw the serial bits
    times, values = _uniform_grid(1.0, 64), _uniform_block(1.0, 64,
                                                           [5, 6, 7])
    want = _bisect(times, values, [5, 6, 7])
    derive = brownian._derive_tables
    derived = []

    def counted():
        derived.append(1)
        return derive()

    monkeypatch.setattr(brownian, "_derive_tables", counted)
    monkeypatch.setattr(brownian, "_tables", None)
    out = {}
    start = threading.Barrier(2)

    def work(k):
        start.wait()
        out[k] = _bisect(times, values, [5, 6, 7])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(derived) == 1
    for k in (0, 1):
        assert _bits(out[k][0]) == _bits(want[0])
        assert _bits(out[k][1]) == _bits(want[1])


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
       st.integers(0, 9))
def test_reset_generator_draws_equal_a_new_stream(seed, tag, n):
    want = philox_stream(seed, tag).standard_normal()
    got = _normals(seed, tag)
    assert type(got) is float and got == want
    want = philox_stream(seed, tag).standard_normal(n)
    got = _normals(seed, tag, n)
    assert got.dtype == np.float64 and got.tolist() == want.tolist()


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
