"""Unit + property tests for the interval bookkeeping structures."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet


class TestIntervalSetWrite:
    """``write`` keeps the most recent writer per element."""

    def test_single_write_and_query(self):
        m = IntervalSet()
        m.write(0, 10, tag=7)
        assert m.tags_overlapping(3, 5) == [7]
        assert m.tags_overlapping(10, 20) == []

    def test_overwrite_splits_interval(self):
        m = IntervalSet()
        m.write(0, 10, tag=1)
        m.write(3, 6, tag=2)
        assert m.tags_overlapping(0, 3) == [1]
        assert m.tags_overlapping(3, 6) == [2]
        assert m.tags_overlapping(6, 10) == [1]
        assert sorted(m.tags_overlapping(0, 10)) == [1, 2]

    def test_overwrite_spanning_multiple(self):
        m = IntervalSet()
        m.write(0, 4, tag=1)
        m.write(6, 10, tag=2)
        m.write(2, 8, tag=3)
        assert m.tags_overlapping(0, 2) == [1]
        assert m.tags_overlapping(2, 8) == [3]
        assert m.tags_overlapping(8, 10) == [2]

    def test_exact_replacement(self):
        m = IntervalSet()
        m.write(2, 5, tag=1)
        m.write(2, 5, tag=2)
        assert m.tags_overlapping(2, 5) == [2]
        assert len(m) == 1

    def test_adjacent_writes_do_not_merge_tags(self):
        m = IntervalSet()
        m.write(0, 5, tag=1)
        m.write(5, 10, tag=2)
        assert m.tags_overlapping(4, 6) == [1, 2]

    def test_empty_write_ignored(self):
        m = IntervalSet()
        m.write(5, 5, tag=1)
        assert len(m) == 0

    def test_many_disjoint_writes(self):
        m = IntervalSet()
        for i in range(50):
            m.write(i * 10, i * 10 + 5, tag=i)
        assert len(m) == 50
        for i in range(50):
            assert m.tags_overlapping(i * 10, i * 10 + 1) == [i]

    @settings(max_examples=200, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 100), st.integers(1, 30), st.integers(0, 10**6)),
            min_size=1,
            max_size=40,
        ),
        query=st.tuples(st.integers(0, 120), st.integers(1, 30)),
    )
    def test_matches_array_model(self, writes, query):
        """The map must behave exactly like writing tags into a flat array."""
        m = IntervalSet()
        model = np.full(200, -1, dtype=np.int64)
        for start, length, tag in writes:
            m.write(start, start + length, tag)
            model[start : start + length] = tag
        qstart, qlen = query
        expected = {int(t) for t in model[qstart : qstart + qlen] if t >= 0}
        got = set(m.tags_overlapping(qstart, qstart + qlen))
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 60), st.integers(1, 20)),
            min_size=1,
            max_size=30,
        )
    )
    def test_entries_stay_disjoint_and_sorted(self, writes):
        m = IntervalSet()
        for tag, (start, length) in enumerate(writes):
            m.write(start, start + length, tag)
        entries = list(m)
        for (_, a_stop, _), (b_start, _, _) in zip(entries, entries[1:]):
            assert a_stop <= b_start


class TestIntervalSet:
    def test_add_and_query(self):
        s = IntervalSet()
        s.add(0, 5, tag=1)
        s.add(3, 8, tag=2)
        assert sorted(s.tags_overlapping(4, 5)) == [1, 2]
        assert s.tags_overlapping(6, 7) == [2]

    def test_duplicate_tags_reported_once(self):
        s = IntervalSet()
        s.add(0, 5, tag=1)
        s.add(2, 7, tag=1)
        assert s.tags_overlapping(0, 10) == [1]

    def test_remove_range_trims_partial_overlap(self):
        s = IntervalSet()
        s.add(0, 10, tag=1)
        s.remove_range(3, 6)
        assert s.tags_overlapping(3, 6) == []
        assert s.tags_overlapping(0, 3) == [1]
        assert s.tags_overlapping(6, 10) == [1]

    def test_remove_range_drops_contained(self):
        s = IntervalSet()
        s.add(4, 6, tag=1)
        s.remove_range(0, 10)
        assert len(s) == 0

    def test_empty_add_ignored(self):
        s = IntervalSet()
        s.add(5, 5, tag=1)
        assert len(s) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        adds=st.lists(
            st.tuples(st.integers(0, 80), st.integers(1, 20), st.integers(0, 5)),
            max_size=20,
        ),
        removes=st.lists(
            st.tuples(st.integers(0, 80), st.integers(1, 20)),
            max_size=8,
        ),
        query=st.tuples(st.integers(0, 100), st.integers(1, 20)),
    )
    def test_matches_set_model(self, adds, removes, query):
        """Adds then removes must match a per-element set-of-tags model."""
        s = IntervalSet()
        model = [set() for _ in range(200)]
        for start, length, tag in adds:
            s.add(start, start + length, tag)
            for i in range(start, start + length):
                model[i].add(tag)
        for start, length in removes:
            s.remove_range(start, start + length)
            for i in range(start, start + length):
                model[i].clear()
        qstart, qlen = query
        expected = set().union(*model[qstart : qstart + qlen]) if qlen else set()
        assert set(s.tags_overlapping(qstart, qstart + qlen)) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(("write", "add", "remove")),
                st.integers(0, 80), st.integers(1, 20), st.integers(0, 5),
            ),
            max_size=30,
        )
    )
    def test_interleaved_ops_match_set_model(self, ops):
        """write/add/remove in any order match a per-element model, and the
        entries stay disjoint, sorted and non-empty."""
        s = IntervalSet()
        model = [set() for _ in range(100)]
        for kind, start, length, tag in ops:
            stop = start + length
            if kind == "write":
                s.write(start, stop, tag)
            elif kind == "add":
                s.add(start, stop, tag)
            else:
                s.remove_range(start, stop)
            for i in range(start, stop):
                if kind != "add":
                    model[i].clear()
                if kind != "remove":
                    model[i].add(tag)
        for i, tags in enumerate(model):
            assert set(s.tags_overlapping(i, i + 1)) == tags
        entries = list(s)
        assert all(start < stop and tags for start, stop, tags in entries)
        for (_, a_stop, _), (b_start, _, _) in zip(entries, entries[1:]):
            assert a_stop <= b_start
