"""White-box tests of the lowering internals (stripe peers, accumulators,
position matching, scratch accounting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Communicator, Library
from repro.core.ops import ReduceOp
from repro.core.passes import Accumulator, split_even
from repro.core.passes.lir import LoweringState
from repro.core.plan import OptimizationPlan
from repro.core.primitives import Program
from repro.core.schedule import ScheduleBuilder
from repro.machine.machines import frontier, generic
from repro.simulator.executor import execute
from repro.simulator.process import MemoryPool


def _state(machine, hierarchy, libs, **kw):
    plan = OptimizationPlan.create(machine, hierarchy, libs, **kw)
    return LoweringState(Program(machine.world_size), plan)


class TestStripePeers:
    def test_rotation_keeps_root_first(self):
        machine = generic(2, 4, 4, name="sp")
        low = _state(machine, [2, 4], [Library.MPI, Library.IPC], stripe=4)
        assert low.stripe_peers(0, 4) == [0, 1, 2, 3]
        assert low.stripe_peers(2, 4) == [2, 3, 0, 1]
        assert low.stripe_peers(5, 3) == [5, 6, 7]

    def test_peers_stay_in_node(self):
        machine = generic(3, 4, 2, name="sp2")
        low = _state(machine, [3, 4], [Library.MPI, Library.IPC], stripe=4)
        for root in range(machine.world_size):
            peers = low.stripe_peers(root, 4)
            assert all(machine.node_of(x) == machine.node_of(root) for x in peers)

    def test_effective_stripe_capped_by_count(self):
        machine = generic(2, 4, 4, name="sp3")
        low = _state(machine, [2, 4], [Library.MPI, Library.IPC], stripe=4)
        assert low.effective_stripe(2) == 2
        assert low.effective_stripe(100) == 4


class TestPositionMatch:
    def test_same_offset_across_blocks(self):
        machine = generic(4, 4, 4, name="pm")
        low = _state(machine, [4, 4], [Library.MPI, Library.IPC])
        # Rank 5 (block 1, offset 1) matched into block 3 -> rank 13.
        assert low.position_match(5, 3, 1) == 13
        assert low.position_match(0, 2, 1) == 8

    def test_multi_node_blocks(self):
        machine = generic(4, 3, 1, name="pm2")
        low = _state(machine, [2, 2, 3],
                     [Library.MPI, Library.MPI, Library.IPC])
        # Depth-1 blocks span 6 ranks (two nodes); offset is preserved.
        assert low.position_match(4, 1, 1) == 10


class TestAccumulator:
    def test_first_contribution_initializes(self):
        b = ScheduleBuilder(4)
        acc = Accumulator(0, ("acc", 0), 8, ReduceOp.SUM)
        acc.contribute_local(b, ("send", 0))
        assert acc.initialized
        sched = b.build()
        assert sched.ops[0].reduce_op is None  # plain write, not accumulate

    def test_later_contributions_accumulate_and_chain(self):
        b = ScheduleBuilder(4)
        acc = Accumulator(0, ("acc", 0), 8, ReduceOp.SUM)
        acc.contribute_local(b, ("send", 0))
        acc.contribute_remote(b, 1, ("send", 0), level=0)
        acc.contribute_remote(b, 2, ("send", 0), level=0)
        sched = b.build()
        assert sched.ops[1].reduce_op is ReduceOp.SUM
        assert sched.ops[0].uid in sched.ops[1].deps
        assert sched.ops[1].uid in sched.ops[2].deps

    def test_in_place_skips_copy(self):
        b = ScheduleBuilder(4)
        acc = Accumulator(0, ("buf", 0), 8, ReduceOp.SUM)
        acc.contribute_local(b, ("buf", 0))  # same location: no op emitted
        assert acc.initialized
        assert len(b.build()) == 0

    def test_functional_result(self):
        b = ScheduleBuilder(4)
        acc = Accumulator(0, ("acc", 0), 4, ReduceOp.SUM)
        acc.contribute_local(b, ("send", 0))
        for r in (1, 2, 3):
            acc.contribute_remote(b, r, ("send", 0), level=0)
        sched = b.build()
        pool = MemoryPool(4)
        pool.alloc_symmetric("send", 4)
        pool.alloc_symmetric("acc", 4)
        for r in range(4):
            pool.array(r, "send")[:] = r + 1
        execute(sched, pool)
        assert pool.array(0, "acc").tolist() == [10.0] * 4


class TestScratchAccounting:
    def test_reduction_allocates_scratch_on_uploaders(self):
        machine = frontier(nodes=2)
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(64, "sendbuf")
        recv = comm.alloc(64, "recvbuf")
        comm.add_reduction(send, recv, 64, list(range(16)), 0, ReduceOp.SUM)
        comm.init(hierarchy=[2, 4, 2],
                  library=[Library.MPI, Library.IPC, Library.IPC])
        assert comm.schedule.scratch  # intermediate partials need staging
        assert comm.schedule.max_scratch_elements() > 0

    def test_flat_multicast_needs_no_scratch(self):
        machine = generic(2, 2, 1, name="ns")
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(16, "sendbuf")
        recv = comm.alloc(16, "recvbuf")
        comm.add_multicast(send, recv, 16, 0, [1, 2, 3])
        comm.init(hierarchy=[4], library=[Library.MPI])
        assert not comm.schedule.scratch


class TestSplitEvenEdges:
    def test_zero_parts_clamped(self):
        assert split_even(5, 0) == [(0, 5)]

    def test_zero_count(self):
        assert split_even(0, 4) == []

    @pytest.mark.parametrize("count,parts", [(1, 1), (1, 9), (97, 13)])
    def test_sizes_differ_by_at_most_one(self, count, parts):
        sizes = [c for _, c in split_even(count, parts)]
        assert max(sizes) - min(sizes) <= 1
