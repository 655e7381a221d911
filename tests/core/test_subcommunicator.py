"""Sub-communicators: group machines, embedding, functional correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import plancache
from repro.core.communicator import SubCommunicator, group_machine
from repro.core.composition import compose
from repro.errors import HierarchyError
from repro.machine.machines import frontier, perlmutter
from repro.machine.rankmap import embed_schedule, group_layout
from repro.simulator.executor import execute
from repro.simulator.process import MemoryPool
from repro.transport.library import Library

MACHINE = perlmutter(nodes=4)  # 4 nodes x 4 GPUs
COUNT = 256


class TestGroupLayout:
    def test_full_node_group(self):
        assert group_layout(MACHINE, range(4, 8)) == (1, 4)

    def test_one_gpu_per_node_group(self):
        assert group_layout(MACHINE, [1, 5, 9, 13]) == (4, 1)

    def test_node_block_group(self):
        assert group_layout(MACHINE, range(8)) == (2, 4)

    def test_rejects_duplicates(self):
        with pytest.raises(HierarchyError, match="duplicates"):
            group_layout(MACHINE, [0, 0, 1])

    def test_rejects_irregular_counts(self):
        with pytest.raises(HierarchyError, match="same number"):
            group_layout(MACHINE, [0, 1, 4])  # 2 ranks node 0, 1 rank node 1

    def test_rejects_interleaved_nodes(self):
        with pytest.raises(HierarchyError, match="node-major"):
            group_layout(MACHINE, [0, 4, 1, 5])

    def test_rejects_out_of_range(self):
        with pytest.raises(HierarchyError, match="out of range"):
            group_layout(MACHINE, [0, 99])


class TestGroupMachine:
    def test_full_node_keeps_levels(self):
        gm = group_machine(MACHINE, range(4))
        assert gm.nodes == 1
        assert gm.levels == MACHINE.levels
        assert gm.world_size == 4

    def test_cross_node_group_shape(self):
        gm = group_machine(MACHINE, [0, 4, 8, 12])
        assert (gm.nodes, gm.gpus_per_node) == (4, 1)
        assert gm.nic_count == 1  # clamped: at most one NIC per member

    def test_partial_node_uses_level_suffix(self):
        m = frontier(nodes=2)  # levels (device x4, die x2)
        gm = group_machine(m, [0, 1])  # one dual-die device
        assert gm.gpus_per_node == 2
        assert gm.levels == m.levels[-1:]

    def test_name_preserved_for_profile_lookup(self):
        assert group_machine(MACHINE, range(4)).name == MACHINE.name


class TestSubCommunicatorTiming:
    def _tp(self, ranks):
        comm = SubCommunicator(MACHINE, ranks, materialize=False)
        compose(comm, "all_reduce", COUNT)
        comm.init(hierarchy=[4], library=[Library.IPC], pipeline=2)
        return comm

    def test_global_schedule_lands_on_group_ranks(self):
        comm = self._tp(range(8, 12))
        endpoints = {op.src for op in comm.global_schedule.ops}
        endpoints |= {op.dst for op in comm.global_schedule.ops}
        assert endpoints <= set(range(8, 12))
        assert comm.global_schedule.world_size == MACHINE.world_size

    def test_symmetric_placements_price_identically(self):
        a, b = self._tp(range(0, 4)), self._tp(range(8, 12))
        assert a.timing.elapsed == b.timing.elapsed

    def test_group_space_plan_shared_across_placements(self):
        first = self._tp(range(0, 4))
        schedule = plancache.get_cache().stats.layers["schedule"]
        hits_before = schedule.memory_hits
        second = self._tp(range(4, 8))  # same shape, different node
        # The group-space lowering hits; the embedding is per placement.
        assert schedule.memory_hits == hits_before + 1
        assert second.schedule is first.schedule
        assert second.global_schedule is not first.global_schedule

    def test_prices_only_on_the_parent_machine(self, monkeypatch):
        """The group machine is a lowering scaffold: init never prices on
        it, cached or not."""
        import repro.core.communicator as comm_mod

        machines = []
        real = comm_mod.simulate

        def spy(schedule, machine, *args, **kwargs):
            machines.append(machine)
            return real(schedule, machine, *args, **kwargs)

        monkeypatch.setattr(comm_mod, "simulate", spy)
        plancache.configure(disk_dir=None)
        try:
            for use_cache in (True, False):
                comm = SubCommunicator(MACHINE, range(4, 8),
                                       materialize=False)
                compose(comm, "all_reduce", COUNT)
                comm.init(hierarchy=[4], library=[Library.IPC], pipeline=2,
                          use_cache=use_cache)
        finally:
            plancache.reset()
        assert machines == [MACHINE, MACHINE]

    def test_cross_node_group_prices_nic_traffic(self):
        dp = SubCommunicator(MACHINE, [2, 6, 10, 14], materialize=False)
        compose(dp, "all_reduce", COUNT)
        dp.init(hierarchy=[2, 2, 1],
                library=[Library.NCCL, Library.NCCL, Library.IPC])
        nic_keys = [key for key in dp.timing.resource_busy
                    if key[0] in ("nic_tx", "nic_rx")]
        assert nic_keys, "cross-node group traffic must book parent NICs"

    def test_global_rank_mapping(self):
        comm = self._tp([8, 9, 10, 11])
        assert comm.global_rank(0) == 8
        assert comm.world_size == 4


class TestFunctionalRemapping:
    """The satellite invariant: executing the *embedded* schedule on a
    machine-wide pool produces the group-local collective's results on
    exactly the group's global ranks."""

    def test_embedded_all_reduce_matches_reference(self):
        ranks = (4, 5, 6, 7)
        comm = SubCommunicator(MACHINE, ranks, materialize=False)
        compose(comm, "all_reduce", COUNT)
        comm.init(hierarchy=[4], library=[Library.IPC], pipeline=2)

        pool = MemoryPool(MACHINE.world_size)
        rng = np.random.default_rng(7)
        values = rng.standard_normal((4, 4 * COUNT)).astype(np.float32)
        for name in ("sendbuf", "recvbuf"):
            pool.alloc_symmetric(name, 4 * COUNT)
        for g, rank in enumerate(ranks):
            pool.array(rank, "sendbuf")[:] = values[g]

        execute(comm.global_schedule, pool)

        want = values.sum(axis=0)
        for rank in ranks:
            np.testing.assert_allclose(
                pool.array(rank, "recvbuf"), want, rtol=1e-5
            )
        # Ranks outside the group were never written.
        for rank in set(range(MACHINE.world_size)) - set(ranks):
            assert not pool.array(rank, "recvbuf").any()

    def test_group_space_execution_through_start_wait(self):
        ranks = (0, 4, 8, 12)
        comm = SubCommunicator(MACHINE, ranks)
        compose(comm, "all_reduce", COUNT)
        comm.init(hierarchy=[4, 1],
                  library=[Library.NCCL, Library.IPC])
        values = np.arange(4 * 4 * COUNT, dtype=np.float32).reshape(4, -1)
        comm.set_all("sendbuf", values)
        elapsed = comm.run()
        assert elapsed > 0
        np.testing.assert_allclose(
            comm.gather_all("recvbuf"),
            np.tile(values.sum(axis=0), (4, 1)),
            rtol=1e-5,
        )

    def test_embed_schedule_validates_mapping(self):
        comm = SubCommunicator(MACHINE, range(4), materialize=False)
        compose(comm, "broadcast", 64)
        comm.init(hierarchy=[4], library=[Library.IPC])
        with pytest.raises(HierarchyError, match="distinct"):
            embed_schedule(comm.schedule, [0, 0, 1, 2], MACHINE.world_size)
        with pytest.raises(HierarchyError, match="names"):
            embed_schedule(comm.schedule, [0, 1], MACHINE.world_size)
        with pytest.raises(HierarchyError, match="out of range"):
            embed_schedule(comm.schedule, [0, 1, 2, 99], 16)
