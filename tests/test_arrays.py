"""The shared array kernels against plain Python loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesscore._arrays import byte_buffer, held, run_starts, sorted_unique, walk


def walk_by_step(step, starts):
    """Each start's positions before its stop, and the stops, one step at a time."""
    chains, stops = [], []
    for p in starts:
        chain = []
        while step[p] != p:
            chain.append(p)
            p = step[p]
        chains.append(chain)
        stops.append(p)
    return chains, stops


def assert_walks_like_the_loop(step, starts):
    chains, stops = walk(step, starts)
    expected_chains, expected_stops = walk_by_step(step.tolist(), starts)
    assert [chain.tolist() for chain in chains] == expected_chains
    assert stops == expected_stops


@st.composite
def step_tables(draw):
    """A table whose chains rise: p steps to p + d, or stops where d is 0 or
    p + d is past the end; and a few starts in it."""
    n = draw(st.integers(1, 80))
    d = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    p = np.arange(n)
    step = np.where(p + d < n, p + d, p).astype(draw(st.sampled_from([np.int32, np.int64])))
    return step, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))


class TestWalk:
    @given(step_tables())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_same_chains_as_a_loop(self, table):
        assert_walks_like_the_loop(*table)

    @pytest.mark.parametrize("length", sorted({2 ** k + e for k in range(6) for e in (-1, 0, 1)}))
    def test_chain_lengths_around_powers_of_two(self, length):
        # 0 -> 1 -> ... -> length, a stop; from 0 the chain is ``length`` long
        step = np.minimum(np.arange(1, length + 2), length).astype(np.int32)
        chains, stops = walk(step, [0])
        assert chains[0].tolist() == list(range(length)) and stops == [length]
        assert_walks_like_the_loop(step, [0, length // 2, length])

    def test_start_at_a_stop(self):
        step = np.array([1, 1, 3, 3], np.int32)
        chains, stops = walk(step, [1, 3, 0])
        assert [chain.tolist() for chain in chains] == [[], [], [0]]
        assert stops == [1, 3, 1]

    def test_starts_that_share_a_suffix(self):
        # 0 and 1 both step to 3, then 3 -> 5 -> 7, a stop; 6 -> 7 too
        step = np.array([3, 3, 2, 5, 4, 7, 7, 7], np.int64)
        chains, stops = walk(step, [0, 1, 6, 2])
        assert [chain.tolist() for chain in chains] == [[0, 3, 5], [1, 3, 5], [6], []]
        assert stops == [7, 7, 7, 2]


def held_by_event(mask, values):
    out, value = [0], 0
    for sets, v in zip(mask, values):
        value = v if sets else value
        out.append(value)
    return out


class TestHeld:
    @given(st.lists(st.tuples(st.booleans(), st.integers(-5, 300)), max_size=40))
    @settings(derandomize=True, max_examples=200)
    def test_same_as_a_loop(self, events):
        mask = np.array([sets for sets, _value in events], bool)
        values = np.array([value for _sets, value in events], np.int64)
        assert held(mask, values).tolist() == held_by_event(mask.tolist(), values.tolist())

    def test_empty(self):
        assert held(np.zeros(0, bool), np.zeros(0, np.int64)).tolist() == [0]

    @pytest.mark.parametrize("sets, expected", [(True, [0, 7]), (False, [0, 0])])
    def test_one_event(self, sets, expected):
        assert held(np.array([sets]), np.array([7])).tolist() == expected


class TestRunStarts:
    @given(st.lists(st.integers(0, 3), max_size=40))
    @settings(derandomize=True, max_examples=200)
    def test_same_as_a_loop(self, key):
        expected = [i == 0 or key[i] != key[i - 1] for i in range(len(key))]
        assert run_starts(np.array(key, np.int64)).tolist() == expected
        assert sorted_unique(np.array(key, np.int64)).tolist() == sorted(set(key))

    def test_empty(self):
        assert run_starts(np.zeros(0, np.int64)).tolist() == []
        assert sorted_unique(np.zeros(0, np.int64)).tolist() == []

    def test_one_entry(self):
        assert run_starts(np.array([5])).tolist() == [True]
        assert sorted_unique(np.array([5])).tolist() == [5]


def test_byte_buffer_pads_with_zeros():
    buf, index = byte_buffer(b"\x01\xff")
    assert buf.dtype == np.uint8 and buf[:2].tolist() == [1, 255]
    assert len(buf) > 2 and not buf[2:].any()
    assert index is np.int32
