"""Iterated integrals of the piecewise-linear driver lift."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slesim.brownian import BrownianPath
from slesim.integrals import (compute_table, derive_seed, iterated_integral,
                              word_entries)
from slesim.vfalgebra import deg


def _path(n=128, seed=5, T=1.0):
    return BrownianPath.sample_uniform(T, n, seed=seed)


def _words_up_to(r):
    """Every word of length <= r: by length, lexicographic within one."""
    return [w for k in range(r + 1) for w in product((0, 1), repeat=k)]


def test_level_zero_and_one():
    p = _path()
    tab = compute_table(p, 1.0, 1)
    assert tab.entry(()) == 1.0
    assert tab.entry((0,)) == 1.0  # elapsed time
    assert abs(tab.entry((1,)) - p.value_at(1.0)) < 1e-15


def test_time_time_entry_is_half_t_squared():
    for t in (1.0, 0.5, 0.125):
        p = _path(T=1.0)
        tab = compute_table(p, t, 2)
        assert abs(tab.entry((0, 0)) - 0.5 * t * t) <= 1e-12 * max(1.0, t * t)


def test_noise_noise_entry_telescopes():
    # trapezoid legs make the (1,1) entry sum to B^2/2 identically
    p = _path(seed=9)
    tab = compute_table(p, 1.0, 2)
    b = p.value_at(1.0)
    assert abs(tab.entry((1, 1)) - 0.5 * b * b) <= 1e-14


def test_shuffle_identity_per_path():
    # X^(0) X^(1) = X^(0,1) + X^(1,0) holds pathwise for the linear lift
    for seed in range(6):
        p = _path(seed=seed)
        tab = compute_table(p, 1.0, 2)
        lhs = tab.entry((0,)) * tab.entry((1,))
        rhs = tab.entry((0, 1)) + tab.entry((1, 0))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_second_shuffle_square():
    # X^(0)^2 = 2 X^(0,0) and X^(1)^2 = 2 X^(1,1)
    p = _path(seed=3)
    tab = compute_table(p, 1.0, 2)
    assert abs(tab.entry((0,)) ** 2 - 2 * tab.entry((0, 0))) <= 1e-12
    assert abs(tab.entry((1,)) ** 2 - 2 * tab.entry((1, 1))) <= 1e-12


def test_third_level_deterministic_entry():
    # trapezoid integration of t^2/2 carries an O(h^2) defect
    p = _path(n=256)
    tab = compute_table(p, 1.0, 3)
    assert abs(tab.entry((0, 0, 0)) - 1.0 / 6.0) <= 1e-5


def test_third_level_noise_cube():
    # the linear lift's signature gives B^3/6 for (1,1,1) up to the
    # trapezoid defect of the middle level
    p = _path(n=4096, seed=11)
    tab = compute_table(p, 1.0, 3)
    b = p.value_at(1.0)
    assert abs(tab.entry((1, 1, 1)) - b ** 3 / 6.0) <= 5e-4


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 99), T=st.floats(1e-3, 1e2),
       cuts=st.lists(st.integers(0, 10 ** 6), max_size=6),
       refine=st.booleans(), r=st.integers(0, 5),
       back=st.integers(0, 10 ** 6))
@example(n=128, seed=13, T=1.0, cuts=[], refine=False, r=3, back=0)
def test_single_entry_matches_table(n, seed, T, cuts, refine, r, back):
    # an uneven grid, and a horizon t at any of its knots
    p = _path(n=n, seed=seed, T=T)
    for c in cuts:
        p.insert_midpoint(c % p.n_intervals)
    if refine:
        p.refine()
    stop = p.n_intervals - back % p.n_intervals
    t = float(p.times[stop])
    tab = compute_table(p, t, r)
    assert tab.resolution == stop
    assert list(tab.entries) == _words_up_to(r)
    for word, value in tab.entries.items():
        assert iterated_integral(p, t, word) == value


_words = st.lists(
    st.just(()) | st.lists(st.sampled_from([0, 1]), min_size=1,
                           max_size=5).map(tuple),
    min_size=1, max_size=6)


@settings(max_examples=30, deadline=None)
@given(words=_words, zeros=st.integers(1, 4), rows=st.integers(1, 300),
       n=st.integers(1, 24), T=st.floats(1e-6, 1e3), seed=st.integers(0, 99),
       data=st.data())
def test_word_entries_equal_iterated_integral_bitwise(words, zeros, rows, n,
                                                      T, seed, data):
    # shared and duplicate prefixes, plus a word made only of 0s
    w0 = words[0]
    words = words + [w0, w0[:-1], w0 + (1,), (0,) * zeros]
    paths = [BrownianPath.sample_uniform(T, n, seed=derive_seed(seed, i))
             for i in range(rows)]
    times = paths[0].times
    values = np.array([p.values for p in paths])
    entries = word_entries(times, values, words)
    assert entries.shape == (rows, len(words))
    for path, row in zip(paths, entries):
        loop = np.array([iterated_integral(path, T, w) for w in words])
        assert row.tobytes() == loop.tobytes()
    # a row's bits do not depend on its position or on the block split
    cut = data.draw(st.integers(0, rows))
    split = np.concatenate([word_entries(times, values[:cut], words),
                            word_entries(times, values[cut:], words)])
    assert split.tobytes() == entries.tobytes()
    flipped = word_entries(times, values[::-1], words)
    assert flipped[::-1].tobytes() == entries.tobytes()
    i = data.draw(st.integers(0, rows - 1))
    alone = word_entries(times, values[i:i + 1], words)
    assert alone.tobytes() == entries[i:i + 1].tobytes()


def test_word_entries_validation():
    p = _path(n=8)
    times, values = p.times, p.values[None, :]
    assert word_entries(times, values, [(), (1,)]).tolist() == [
        [1.0, p.values[-1]]]
    assert word_entries(times, values, []).shape == (1, 0)
    bad_times = times.copy()
    bad_times[3] = bad_times[2]
    shifted = values + 1.0
    holed = values.copy()
    holed[0, 4] = np.nan
    for args in [(times, values, [(0, 2)]),          # letter
                 (times, p.values, [(1,)]),          # not a block of rows
                 (times[:-1], values, [(1,)]),       # grid length
                 (bad_times, values, [(1,)]),        # not increasing
                 (times, shifted, [(1,)]),           # B(0) != 0
                 (times, holed, [(1,)])]:            # not finite
        with pytest.raises(ValueError):
            word_entries(*args)


def test_depth_and_entry_access():
    p = _path()
    tab = compute_table(p, 1.0, 2)
    assert tab.depth == 2
    with pytest.raises(KeyError):
        tab.entry((1, 1, 1))


def test_validation():
    p = _path()
    with pytest.raises(ValueError):
        compute_table(p, 2.0, 1)  # beyond the horizon
    with pytest.raises(ValueError):
        iterated_integral(p, 1.0, (0, 2))
    with pytest.raises(ValueError):
        compute_table(p, 1.0, 99)  # level cap


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seen = {derive_seed(7, i) for i in range(100)}
    assert len(seen) == 100
    assert derive_seed(7, 1) != derive_seed(8, 1)


def test_l2_coupling_makes_exponent_exact():
    # Brownian scaling: on the grid times / c with samples values / sqrt(c)
    # each entry is t^deg(word) times its value on the unit grid, t = 1/c.
    # With c a power of 4 every operation of the quadrature scales by a
    # power of 2, so the scaling holds bit for bit, row by row.
    words = _words_up_to(4)
    paths = [_path(n=32, seed=derive_seed(1, i)) for i in range(100)]
    times = paths[0].times
    values = np.array([p.values for p in paths])
    at_1 = word_entries(times, values, words)
    for c in (4.0, 16.0):
        at_t = word_entries(times / c, values / math.sqrt(c), words)
        for k, word in enumerate(words):
            # t^deg = sqrt(t)^(2 deg), a power of 2 with an integer exponent
            scale = (1.0 / math.sqrt(c)) ** int(2 * deg(word))
            assert np.array_equal(at_t[:, k], at_1[:, k] * scale)
