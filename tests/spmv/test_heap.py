"""Merge-heap tests (the OP sorted list), incl. property-based."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError

from ..hardware.trace_oracle import MergeHeap


class TestBasics:
    def test_pop_order(self):
        h = MergeHeap()
        for k in [5, 1, 3, 2, 4]:
            h.push(k, k * 10)
        assert [h.pop()[0] for _ in range(5)] == [1, 2, 3, 4, 5]

    def test_cursor_travels_with_key(self):
        h = MergeHeap()
        h.push(7, 70)
        h.push(3, 30)
        key, cur = h.pop()
        assert (key, cur) == (3, 30)

    def test_peek_does_not_remove(self):
        h = MergeHeap()
        h.push(2, 0)
        assert h.peek()[0] == 2
        assert len(h) == 1

    def test_replace_top(self):
        h = MergeHeap()
        for k in [4, 2, 6]:
            h.push(k, 0)
        old = h.replace_top(5, 1)
        assert old[0] == 2
        assert h.peek()[0] == 4
        assert h.check_invariant()

    def test_empty_operations_raise(self):
        h = MergeHeap()
        with pytest.raises(SimulationError):
            h.pop()
        with pytest.raises(SimulationError):
            h.peek()
        with pytest.raises(SimulationError):
            h.replace_top(1, 0)

    def test_duplicate_keys_allowed(self):
        h = MergeHeap()
        for _ in range(4):
            h.push(7, 0)
        assert [h.pop()[0] for _ in range(4)] == [7, 7, 7, 7]


class TestInstrumentation:
    def test_counts_accumulate(self):
        h = MergeHeap()
        for k in range(16):
            h.push(k, k)
        assert h.accesses == h.reads + h.writes
        assert h.reads > 0 and h.writes > 0
        assert h.max_size == 16
        assert h.words == 32

    def test_trace_recording(self):
        h = MergeHeap(record_trace=True)
        h.push(3, 0)
        h.push(1, 1)
        h.pop()
        offs, wr = h.trace_arrays()
        assert len(offs) == len(wr)
        assert len(offs) > 0
        assert offs.max() < 2 * h.max_size

    def test_trace_requires_flag(self):
        with pytest.raises(SimulationError):
            MergeHeap().trace_arrays()

    def test_sink_receives_every_access(self):
        events = []
        h = MergeHeap(sink=lambda off, wr: events.append((off, wr)))
        h.push(2, 0)
        h.push(1, 1)
        h.pop()
        assert len(events) == h.accesses


class TestProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_heapsort(self, keys):
        h = MergeHeap()
        for i, k in enumerate(keys):
            h.push(k, i)
            assert h.check_invariant()
        out = [h.pop()[0] for _ in range(len(keys))]
        assert out == sorted(keys)

    @given(
        st.lists(st.integers(0, 100), min_size=2, max_size=50),
        st.lists(st.integers(0, 100), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_replace_top_preserves_invariant(self, initial, replacements):
        h = MergeHeap()
        for i, k in enumerate(initial):
            h.push(k, i)
        for r in replacements:
            h.replace_top(r, 0)
            assert h.check_invariant()
        out = [h.pop()[0] for _ in range(len(h))]
        assert out == sorted(out)
