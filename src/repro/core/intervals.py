"""Interval bookkeeping for fine-grained fence dependencies.

The paper's fence "is not a barrier, but a mechanism to express data
dependencies between collections of primitives" (Section 3.3).  During
lowering we must therefore discover, for every point-to-point operation, the
*exact* earlier operations whose byte ranges overlap the ranges it reads or
writes.  One structure serves every such question: :class:`IntervalSet`,
disjoint sorted half-open ranges located by bisect, each carrying the set of
op ids that touch it.  The schedule builder keeps one per (rank, buffer) for
the most recent writer (:meth:`IntervalSet.write` replaces a range's set)
and one for the live readers (:meth:`IntervalSet.add` unions into it), so
queries and updates stay O(log n + k).
"""

from __future__ import annotations

import bisect


class IntervalSet:
    """Op ids per element: disjoint sorted ranges carrying tag sets.

    ``write`` makes a range's set one tag (most-recent writer), ``add``
    unions a tag into it (concurrent readers), ``remove_range`` clears it,
    and ``tags_overlapping`` asks which ops touch any element of a range.
    """

    __slots__ = ("_starts", "_stops", "_tags")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._stops: list[int] = []
        self._tags: list[frozenset[int]] = []

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self):
        """Iterate the entries as ``(start, stop, tags)`` in position order."""
        return zip(self._starts, self._stops, self._tags)

    def _locate(self, start: int, stop: int) -> tuple[int, int]:
        """Index range [lo, hi) of the entries overlapping ``[start, stop)``."""
        lo = bisect.bisect_left(self._starts, start)
        if lo and self._stops[lo - 1] > start:
            lo -= 1
        return lo, bisect.bisect_left(self._starts, stop, lo)

    def _splice(self, lo: int, hi: int, start: int, stop: int,
                starts: list[int], stops: list[int],
                tags: list[frozenset[int]]) -> None:
        """Replace entries ``[lo, hi)`` by the given pieces of ``[start,
        stop)``, keeping the parts of those entries outside it."""
        if lo < hi:
            if self._starts[lo] < start:
                starts.insert(0, self._starts[lo])
                stops.insert(0, start)
                tags.insert(0, self._tags[lo])
            if self._stops[hi - 1] > stop:
                starts.append(stop)
                stops.append(self._stops[hi - 1])
                tags.append(self._tags[hi - 1])
        self._starts[lo:hi] = starts
        self._stops[lo:hi] = stops
        self._tags[lo:hi] = tags

    def write(self, start: int, stop: int, tag: int) -> None:
        """Record that op ``tag`` wrote ``[start, stop)``: the range's set
        becomes ``{tag}``, so the set tracks the most recent writer."""
        if start < stop:
            lo, hi = self._locate(start, stop)
            self._splice(lo, hi, start, stop, [start], [stop],
                         [frozenset((tag,))])

    def add(self, start: int, stop: int, tag: int) -> None:
        """Record that op ``tag`` read ``[start, stop)``: union it into the
        range's set (several ops may read one range concurrently)."""
        if start >= stop:
            return
        lo, hi = self._locate(start, stop)
        single = frozenset((tag,))
        starts: list[int] = []
        stops: list[int] = []
        tags: list[frozenset[int]] = []
        cursor = start
        for i in range(lo, hi):
            s = max(self._starts[i], start)
            if cursor < s:  # gap before this entry gets the new tag alone
                starts.append(cursor)
                stops.append(s)
                tags.append(single)
            cursor = min(self._stops[i], stop)
            starts.append(s)
            stops.append(cursor)
            tags.append(self._tags[i] | single)
        if cursor < stop:
            starts.append(cursor)
            stops.append(stop)
            tags.append(single)
        self._splice(lo, hi, start, stop, starts, stops, tags)

    def remove_range(self, start: int, stop: int) -> None:
        """Forget every tag on ``[start, stop)``, trimming partial overlaps.

        The builder calls it when an op overwrites a range: later writers
        only need a write-after-write dependency on that op, which
        transitively orders them after the pruned readers.
        """
        if start < stop:
            lo, hi = self._locate(start, stop)
            self._splice(lo, hi, start, stop, [], [], [])

    def tags_overlapping(self, start: int, stop: int) -> list[int]:
        """Distinct op ids on any element of ``[start, stop)``, in entry
        order, deduplicated by first occurrence."""
        if start >= stop:
            return []
        lo, hi = self._locate(start, stop)
        seen: dict[int, None] = {}
        for tags in self._tags[lo:hi]:
            for tag in tags:
                seen[tag] = None
        return list(seen)
