"""Tests for the schedule builder: fence dependencies and race detection."""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import ReduceOp
from repro.core.schedule import P2POp, Schedule, ScheduleBuilder
from repro.errors import RaceConditionError, ScheduleError


class TestBasicEmission:
    def test_send_and_copy_uids_sequential(self):
        b = ScheduleBuilder(4)
        u0 = b.send(0, 1, ("a", 0), ("b", 0), 8, level=0)
        u1 = b.copy(1, ("b", 0), ("c", 0), 8, deps=(u0,))
        assert (u0, u1) == (0, 1)
        sched = b.build()
        assert len(sched) == 2
        assert sched.ops[1].deps == (0,)

    def test_send_to_self_rejected(self):
        b = ScheduleBuilder(2)
        with pytest.raises(ScheduleError):
            b.send(1, 1, ("a", 0), ("b", 0), 4, level=0)

    def test_zero_count_rejected(self):
        b = ScheduleBuilder(2)
        with pytest.raises(ScheduleError):
            b.send(0, 1, ("a", 0), ("b", 0), 0, level=0)

    def test_scratch_names_unique(self):
        b = ScheduleBuilder(2)
        loc1 = b.alloc_scratch(0, 16)
        loc2 = b.alloc_scratch(1, 32)
        assert loc1[0] != loc2[0]
        sched = b.build()
        assert sched.scratch[loc1[0]] == {0: 16}
        assert sched.scratch[loc2[0]] == {1: 32}


class TestFenceDependencies:
    def test_raw_across_fence(self):
        """An op after a fence depends on the prior writer of what it reads."""
        b = ScheduleBuilder(4)
        w = b.send(0, 1, ("x", 0), ("buf", 0), 8, level=0)
        b.end_step()
        r = b.send(1, 2, ("buf", 0), ("y", 0), 8, level=0)
        sched = b.build()
        assert w in sched.ops[r].deps

    def test_fine_grained_not_barrier(self):
        """Figure 4's property: M0 depends on R0, not on R1."""
        b = ScheduleBuilder(4)
        r0 = b.send(0, 1, ("s", 0), ("acc", 0), 8, level=0)
        r1 = b.send(0, 2, ("s", 8), ("acc", 8), 8, level=0)
        b.end_step()
        m0 = b.send(1, 3, ("acc", 0), ("out", 0), 8, level=0)
        sched = b.build()
        assert r0 in sched.ops[m0].deps
        assert r1 not in sched.ops[m0].deps

    def test_partial_overlap_creates_dep(self):
        b = ScheduleBuilder(4)
        w = b.send(0, 1, ("x", 0), ("buf", 0), 10, level=0)
        b.end_step()
        r = b.send(1, 2, ("buf", 5), ("y", 0), 10, level=0)
        sched = b.build()
        assert w in sched.ops[r].deps

    def test_disjoint_ranges_no_dep(self):
        b = ScheduleBuilder(4)
        w = b.send(0, 1, ("x", 0), ("buf", 0), 8, level=0)
        b.end_step()
        r = b.send(1, 2, ("buf", 8), ("y", 0), 8, level=0)
        sched = b.build()
        assert w not in sched.ops[r].deps

    def test_different_rank_same_offset_no_dep(self):
        """Buffers are per-rank: rank 1's write doesn't order rank 2's read."""
        b = ScheduleBuilder(4)
        w = b.send(0, 1, ("x", 0), ("buf", 0), 8, level=0)
        b.end_step()
        r = b.send(2, 3, ("buf", 0), ("y", 0), 8, level=0)
        sched = b.build()
        assert w not in sched.ops[r].deps

    def test_war_across_fence(self):
        """Overwriting a range read in the previous step orders after readers."""
        b = ScheduleBuilder(4)
        reader = b.send(1, 2, ("buf", 0), ("y", 0), 8, level=0)
        b.end_step()
        writer = b.send(0, 1, ("x", 0), ("buf", 0), 8, level=0)
        sched = b.build()
        assert reader in sched.ops[writer].deps

    def test_waw_across_fence(self):
        b = ScheduleBuilder(4)
        w1 = b.send(0, 1, ("x", 0), ("buf", 0), 8, level=0)
        b.end_step()
        w2 = b.send(2, 1, ("y", 0), ("buf", 0), 8, level=0)
        sched = b.build()
        assert w1 in sched.ops[w2].deps

    def test_reduce_op_reads_destination(self):
        """An accumulate reads its destination, so RAW applies to it too."""
        b = ScheduleBuilder(4)
        w = b.send(0, 1, ("x", 0), ("acc", 0), 8, level=0)
        b.end_step()
        acc = b.send(2, 1, ("y", 0), ("acc", 0), 8, level=0,
                     reduce_op=ReduceOp.SUM)
        sched = b.build()
        assert w in sched.ops[acc].deps


class TestRaceDetection:
    def test_concurrent_overlapping_writes_race(self):
        """Two same-step ops writing the same bytes -> undefined -> error."""
        b = ScheduleBuilder(4)
        b.send(0, 2, ("x", 0), ("buf", 0), 8, level=0)
        with pytest.raises(RaceConditionError):
            b.send(1, 2, ("y", 0), ("buf", 4), 8, level=0)

    def test_ordered_overlapping_writes_allowed(self):
        b = ScheduleBuilder(4)
        u = b.send(0, 2, ("x", 0), ("buf", 0), 8, level=0)
        b.send(1, 2, ("y", 0), ("buf", 0), 8, level=0, deps=(u,),
               reduce_op=ReduceOp.SUM)
        assert len(b.build()) == 2

    def test_read_of_concurrent_write_race(self):
        b = ScheduleBuilder(4)
        b.send(0, 1, ("x", 0), ("buf", 0), 8, level=0)
        with pytest.raises(RaceConditionError):
            b.send(1, 2, ("buf", 0), ("y", 0), 8, level=0)

    def test_write_under_concurrent_read_race(self):
        b = ScheduleBuilder(4)
        b.send(1, 2, ("buf", 0), ("y", 0), 8, level=0)
        with pytest.raises(RaceConditionError):
            b.send(0, 1, ("x", 0), ("buf", 0), 8, level=0)

    def test_accumulate_chain_no_false_positive(self):
        """Serialized accumulates into one region must not be flagged."""
        b = ScheduleBuilder(8)
        last = b.copy(0, ("s", 0), ("acc", 0), 8)
        for src in range(1, 5):
            last = b.send(src, 0, ("s", 0), ("acc", 0), 8, level=0,
                          reduce_op=ReduceOp.SUM, deps=(last,))
        assert len(b.build()) == 5

    def test_concurrent_reads_fine(self):
        b = ScheduleBuilder(4)
        b.send(0, 1, ("s", 0), ("a", 0), 8, level=0)
        b.send(0, 2, ("s", 0), ("b", 0), 8, level=0)
        b.send(0, 3, ("s", 0), ("c", 0), 8, level=0)
        assert len(b.build()) == 3


#: Elements per (rank, buffer) in the generated programs.
MODEL_ELEMENTS = 12


@st.composite
def _fenced_programs(draw):
    """A world size and a list of (op, fence_after) over buffers a and b.

    Each op is ``(src, dst, src_loc, dst_loc, count, reduce)``; ``src ==
    dst`` makes it a local copy, otherwise a send.
    """
    world = draw(st.integers(2, 3))
    program = []
    for _ in range(draw(st.integers(1, 12))):
        src = draw(st.integers(0, world - 1))
        local = draw(st.booleans())
        dst = src if local else (src + draw(st.integers(1, world - 1))) % world
        count = draw(st.integers(1, 6))
        src_loc = (draw(st.sampled_from("ab")),
                   draw(st.integers(0, MODEL_ELEMENTS - count)))
        dst_loc = (draw(st.sampled_from("ab")),
                   draw(st.integers(0, MODEL_ELEMENTS - count)))
        op = (src, dst, src_loc, dst_loc, count, draw(st.booleans()))
        program.append((op, draw(st.booleans())))
    return world, program


class TestDependencyModel:
    @settings(max_examples=200, deadline=None)
    @given(_fenced_programs())
    def test_deps_match_per_element_model(self, world_program):
        """Every dependency row equals a per-element model's set: the last
        committed writer of each element the op touches, plus, for the
        elements it writes, the committed readers since that write.

        Ops within a step touch disjoint elements (a fence is forced before
        an op that would overlap its step), so no step races.
        """
        world, program = world_program
        b = ScheduleBuilder(world)
        writer: dict[tuple, int] = {}
        readers: dict[tuple, set[int]] = defaultdict(set)
        step: list[tuple] = []  # (uid, reads, writes) of the open step
        step_touched: set[tuple] = set()
        expected: list[set[int]] = []

        def elements(rank, loc, count):
            buf, off = loc
            return [(rank, buf, i) for i in range(off, off + count)]

        def commit():
            # end_step order, op by op: drop the destination's readers,
            # record the write, then add the op's reads.
            for uid, reads, writes in step:
                for key in writes:
                    readers[key].clear()
                    writer[key] = uid
                for key in reads:
                    readers[key].add(uid)
            step.clear()
            step_touched.clear()
            b.end_step()

        for (src, dst, src_loc, dst_loc, count, reduce), fence in program:
            writes = elements(dst, dst_loc, count)
            reads = elements(src, src_loc, count) + (writes if reduce else [])
            touched = set(reads) | set(writes)
            if touched & step_touched:
                commit()
            deps = {writer[k] for k in touched if k in writer}
            deps.update(u for k in writes for u in readers[k])
            expected.append(deps)
            reduce_op = ReduceOp.SUM if reduce else None
            if src == dst:
                uid = b.copy(src, src_loc, dst_loc, count, reduce_op=reduce_op)
            else:
                uid = b.send(src, dst, src_loc, dst_loc, count, level=0,
                             reduce_op=reduce_op)
            step.append((uid, reads, writes))
            step_touched |= touched
            if fence:
                commit()
        sched = b.build()
        for uid, deps in enumerate(expected):
            lo, hi = sched.dep_indptr[uid], sched.dep_indptr[uid + 1]
            assert sched.dep_indices[lo:hi].tolist() == sorted(deps)


class TestScheduleValidation:
    def test_forward_dep_rejected(self):
        op = P2POp(0, 0, 1, "a", 0, "b", 0, 4, None, 0, 0, 0, (1,))
        with pytest.raises(ScheduleError):
            Schedule.from_ops(2, [op], {})

    def test_wrong_uid_order_rejected(self):
        op = P2POp(1, 0, 1, "a", 0, "b", 0, 4, None, 0, 0, 0, ())
        with pytest.raises(ScheduleError):
            Schedule.from_ops(2, [op], {})

    def test_stats(self):
        b = ScheduleBuilder(4)
        u = b.send(0, 1, ("a", 0), ("b", 0), 6, level=0)
        b.copy(1, ("b", 0), ("c", 0), 4, deps=(u,))
        sched = b.build()
        assert sched.total_elements() == 10
        mat = sched.comm_matrix()
        assert mat[0][1] == 6
        assert mat[1][1] == 0  # local copies excluded
