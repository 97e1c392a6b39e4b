"""Iterated integrals of the piecewise-linear driver lift."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slesim import integrals
from slesim.brownian import BrownianPath, _uniform_block, _uniform_grid
from slesim.integrals import (compute_table, derive_seeds, iterated_integral,
                              word_entries)
from slesim.vfalgebra import LEVEL_CAP, deg


def _path(n=128, seed=5, T=1.0):
    return BrownianPath.sample_uniform(T, n, seed=seed)


def _words_up_to(r):
    """Every word of length <= r: by length, lexicographic within one."""
    return [w for k in range(r + 1) for w in product((0, 1), repeat=k)]


def test_level_zero_and_one():
    p = _path()
    tab = compute_table(p, 1.0, 1)
    assert tab.entries[()] == 1.0
    assert tab.entries[(0,)] == 1.0  # elapsed time
    assert abs(tab.entries[(1,)] - p.value_at(1.0)) < 1e-15


def test_time_time_entry_is_half_t_squared():
    for t in (1.0, 0.5, 0.125):
        p = _path(T=1.0)
        tab = compute_table(p, t, 2)
        assert (abs(tab.entries[(0, 0)] - 0.5 * t * t)
                <= 1e-12 * max(1.0, t * t))


def test_noise_noise_entry_telescopes():
    # trapezoid legs make the (1,1) entry sum to B^2/2 identically
    p = _path(seed=9)
    tab = compute_table(p, 1.0, 2)
    b = p.value_at(1.0)
    assert abs(tab.entries[(1, 1)] - 0.5 * b * b) <= 1e-14


def test_shuffle_identity_per_path():
    # X^(0) X^(1) = X^(0,1) + X^(1,0) holds pathwise for the linear lift
    for seed in range(6):
        p = _path(seed=seed)
        tab = compute_table(p, 1.0, 2)
        lhs = tab.entries[(0,)] * tab.entries[(1,)]
        rhs = tab.entries[(0, 1)] + tab.entries[(1, 0)]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_second_shuffle_square():
    # X^(0)^2 = 2 X^(0,0) and X^(1)^2 = 2 X^(1,1)
    p = _path(seed=3)
    tab = compute_table(p, 1.0, 2)
    assert abs(tab.entries[(0,)] ** 2 - 2 * tab.entries[(0, 0)]) <= 1e-12
    assert abs(tab.entries[(1,)] ** 2 - 2 * tab.entries[(1, 1)]) <= 1e-12


def test_third_level_deterministic_entry():
    # trapezoid integration of t^2/2 carries an O(h^2) defect
    p = _path(n=256)
    tab = compute_table(p, 1.0, 3)
    assert abs(tab.entries[(0, 0, 0)] - 1.0 / 6.0) <= 1e-5


def test_third_level_noise_cube():
    # the linear lift's signature gives B^3/6 for (1,1,1) up to the
    # trapezoid defect of the middle level
    p = _path(n=4096, seed=11)
    tab = compute_table(p, 1.0, 3)
    b = p.value_at(1.0)
    assert abs(tab.entries[(1, 1, 1)] - b ** 3 / 6.0) <= 5e-4


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
    paths = [BrownianPath.sample_uniform(T, n, seed=s)
             for s in derive_seeds(seed, range(rows)).tolist()]
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


def test_table_block_keeps_only_live_prefix_arrays():
    # one block of 64 drivers on 8,193 knots at r = 3: the walk holds the
    # arrays of the parents still to integrate and a few temporaries, not
    # every prefix's array (13.4 blocks' worth, 56 MB, when it kept them)
    times = _uniform_grid(1.0, 8192)
    values = _uniform_block(1.0, 8192, list(range(64)))
    tracemalloc.start()
    try:
        tables = list(integrals._tables(times, values, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables) == 64
    assert len(tables[0].entries) == 15
    assert peak <= 8 * values.nbytes


def test_word_entries_memory_does_not_grow_with_rows():
    # word_entries walks its rows a bounded block at a time: on 5,000
    # drivers of 256 intervals with the default divergence words it holds
    # the boolean mask of its input check (1/8 of the input) and one
    # block's arrays, not 4 arrays of the whole input
    words = [(1,), (0,), (1, 0), (0, 0), (1, 0, 0), (0, 0, 0),
             (1, 0, 0, 0), (0, 0, 0, 0)]
    times = _uniform_grid(1.0, 256)
    values = _uniform_block(1.0, 256, list(range(5000)))
    tracemalloc.start()
    try:
        entries = word_entries(times, values, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entries.shape == (5000, len(words))
    assert peak < values.nbytes / 4


def test_table_at_the_level_cap():
    # the largest table any entry accepts: 2^13 - 1 words, by length then
    # lexicographically, each entry the bits of its own prefix chain
    p = _path(n=16, seed=3)
    tab = compute_table(p, 1.0, LEVEL_CAP)
    words = _words_up_to(LEVEL_CAP)
    assert len(words) == 2 ** (LEVEL_CAP + 1) - 1
    assert list(tab.entries) == words
    sample = [(0,) * LEVEL_CAP, (1,) * LEVEL_CAP]
    sample += [words[k] for k in range(1, len(words), 97)]
    for word in sample:
        assert iterated_integral(p, 1.0, word) == tab.entries[word]


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
        tab.entries[(1, 1, 1)]


def test_validation():
    p = _path()
    with pytest.raises(ValueError):
        compute_table(p, 2.0, 1)  # beyond the horizon
    with pytest.raises(ValueError):
        iterated_integral(p, 1.0, (0, 2))
    with pytest.raises(ValueError):
        compute_table(p, 1.0, 99)  # level cap


def test_derive_seeds_is_stable_and_spread():
    assert derive_seeds(0, [0]).tolist() == derive_seeds(0, [0]).tolist()
    seen = set(derive_seeds(7, range(100)).tolist())
    assert len(seen) == 100
    assert derive_seeds(7, [1]).tolist() != derive_seeds(8, [1]).tolist()


def _seed_sequence_state(seed, index):
    entropy = (seed & (2 ** 64 - 1), index)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


_WORD = 2 ** 32
_U64 = 2 ** 64 - 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-2 ** 70, 2 ** 70),
       indices=st.lists(st.integers(0, _U64), max_size=8))
@example(seed=0, indices=[0, _WORD - 1, _WORD, _U64])
@example(seed=_WORD - 1, indices=[1, _WORD + 1, 5, _WORD - 1])
@example(seed=_WORD, indices=[_WORD, 0, _U64, 3])
@example(seed=_U64, indices=[0, _U64, _WORD - 1, _WORD])
@example(seed=-1, indices=[7, 2 ** 63])
@example(seed=-_WORD, indices=[_WORD - 1, _WORD])
def test_derive_seeds_equal_seed_sequence(seed, indices):
    # blocks mix indices of one uint32 word (< 2**32) and of two
    got = derive_seeds(seed, indices)
    assert got.dtype == np.uint64
    assert got.tolist() == [_seed_sequence_state(seed, i) for i in indices]


def test_derive_seeds_empty_block_and_negative_index():
    assert derive_seeds(3, []).shape == (0,)
    assert derive_seeds(3, range(0)).dtype == np.uint64
    with pytest.raises(ValueError):
        derive_seeds(3, [0, -1])
    with pytest.raises(ValueError):
        np.random.SeedSequence((3, -1))  # the oracle refuses it too


@pytest.mark.parametrize("indices", [
    [True], [0, False], [np.bool_(True)], [1.5], [2.0], [0, np.float64(1.0)],
    ["1"], [None],
], ids=["true", "false-after-int", "numpy-bool", "fraction", "whole-float",
        "numpy-float", "str", "none"])
def test_derive_seeds_refuses_non_integer_indices(indices):
    # the integer rule of seeds and levels: a bool is not an integer, and
    # neither is a float with an integer value; [True] used to be served
    # index 1's sub-seed
    with pytest.raises(ValueError, match="integers"):
        derive_seeds(0, indices)


def test_derive_seeds_takes_numpy_integers_as_their_value():
    numpy_ints = [np.uint64(2 ** 64 - 1), np.int64(5), np.uint8(7)]
    assert (derive_seeds(4, numpy_ints).tolist()
            == derive_seeds(4, [2 ** 64 - 1, 5, 7]).tolist())


def test_l2_coupling_makes_exponent_exact():
    # Brownian scaling: on the grid times / c with samples values / sqrt(c)
    # each entry is t^deg(word) times its value on the unit grid, t = 1/c.
    # With c a power of 4 every operation of the quadrature scales by a
    # power of 2, so the scaling holds bit for bit, row by row.
    words = _words_up_to(4)
    paths = [_path(n=32, seed=s)
             for s in derive_seeds(1, range(100)).tolist()]
    times = paths[0].times
    values = np.array([p.values for p in paths])
    at_1 = word_entries(times, values, words)
    for c in (4.0, 16.0):
        at_t = word_entries(times / c, values / math.sqrt(c), words)
        for k, word in enumerate(words):
            # t^deg = sqrt(t)^(2 deg), a power of 2 with an integer exponent
            scale = (1.0 / math.sqrt(c)) ** int(2 * deg(word))
            assert np.array_equal(at_t[:, k], at_1[:, k] * scale)
