"""Tests for hierarchical factorization (tree, striping, ring — Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.communicator import Communicator
from repro.core.passes import split_even
from repro.machine.machines import generic
from repro.transport.library import Library


def _broadcast_comm(machine, hierarchy, libraries, *, ring=1, stripe=1,
                    pipeline=1, root=0, leaves=None, count=240):
    comm = Communicator(machine, materialize=False)
    send = comm.alloc(count, "sendbuf")
    recv = comm.alloc(count, "recvbuf")
    if leaves is None:
        leaves = list(range(machine.world_size))
    comm.add_multicast(send, recv, count, root, leaves)
    comm.init(hierarchy=hierarchy, library=libraries, ring=ring,
              stripe=stripe, pipeline=pipeline)
    return comm


class TestSplitEven:
    def test_exact_division(self):
        assert split_even(12, 3) == [(0, 4), (4, 4), (8, 4)]

    def test_remainder_spread_front(self):
        assert split_even(10, 3) == [(0, 4), (4, 3), (7, 3)]

    def test_more_parts_than_elements(self):
        assert split_even(2, 4) == [(0, 1), (1, 1)]

    def test_single_part(self):
        assert split_even(7, 1) == [(0, 7)]

    def test_chunks_partition_range(self):
        for count in (1, 7, 16, 100):
            for parts in (1, 2, 3, 8, 64):
                chunks = split_even(count, parts)
                assert chunks[0][0] == 0
                assert sum(c for _, c in chunks) == count
                for (o1, c1), (o2, _c2) in zip(chunks, chunks[1:]):
                    assert o1 + c1 == o2


class TestFig1Volumes:
    """Figure 1: hierarchical broadcast moves one inter-node copy, not g."""

    def test_direct_moves_g_copies_across(self):
        machine = generic(2, 3, 1, name="fig1")
        comm = _broadcast_comm(machine, [6], [Library.MPI], count=100)
        vols = comm.schedule.volume_by_kind(machine)
        # Direct: leaves 3,4,5 each receive the full payload across nodes.
        assert vols["inter-node"] == 3 * 100

    def test_hierarchical_moves_one_copy_across(self):
        machine = generic(2, 3, 1, name="fig1")
        comm = _broadcast_comm(machine, [2, 3], [Library.MPI, Library.IPC],
                               count=100)
        vols = comm.schedule.volume_by_kind(machine)
        assert vols["inter-node"] == 100
        # Both nodes then distribute internally: 2 + 2 copies (Figure 1b).
        assert vols["intra-node"] == 4 * 100

    def test_hierarchical_inter_volume_scales_with_nodes_only(self):
        machine = generic(4, 4, 1, name="v")
        comm = _broadcast_comm(machine, [4, 4], [Library.MPI, Library.IPC],
                               count=64)
        vols = comm.schedule.volume_by_kind(machine)
        assert vols["inter-node"] == (machine.nodes - 1) * 64


class TestFig6Stages:
    """Figure 6: striped tree has 4 stages; striped ring has 5."""

    def test_tree_223_stripe3_has_4_stages(self):
        machine = generic(4, 3, 1, name="fig6")
        comm = _broadcast_comm(machine, [2, 2, 3],
                               [Library.MPI, Library.MPI, Library.IPC],
                               stripe=3, count=240)
        assert comm.schedule.stage_count() == 4

    def test_ring_43_stripe3_has_5_stages(self):
        machine = generic(4, 3, 1, name="fig6")
        comm = _broadcast_comm(machine, [4, 3], [Library.MPI, Library.IPC],
                               ring=4, stripe=3, count=240)
        assert comm.schedule.stage_count() == 5

    def test_striping_engages_all_gpus_of_root_node(self):
        machine = generic(4, 3, 1, name="fig6")
        comm = _broadcast_comm(machine, [4, 3], [Library.MPI, Library.IPC],
                               ring=4, stripe=3, count=240)
        senders = {op.src for op in comm.schedule.ops
                   if not machine.same_node(op.src, op.dst)}
        # All three GPUs of the root node inject inter-node traffic.
        assert {0, 1, 2} <= senders

    def test_unstriped_root_node_single_injector(self):
        machine = generic(4, 3, 1, name="fig6")
        comm = _broadcast_comm(machine, [4, 3], [Library.MPI, Library.IPC],
                               ring=1, stripe=1, count=240)
        node0_senders = {
            op.src for op in comm.schedule.ops
            if machine.node_of(op.src) == 0 and not machine.same_node(op.src, op.dst)
        }
        assert node0_senders == {0}


class TestRingStructure:
    def test_ring_chains_node_hops(self):
        """ring(n) sends across consecutive node pairs, not a tree."""
        machine = generic(4, 2, 1, name="ring")
        comm = _broadcast_comm(machine, [4, 2], [Library.MPI, Library.IPC],
                               ring=4, count=16)
        node_hops = {
            (machine.node_of(op.src), machine.node_of(op.dst))
            for op in comm.schedule.ops
            if not machine.same_node(op.src, op.dst)
        }
        assert node_hops == {(0, 1), (1, 2), (2, 3)}

    def test_tree_fans_out_from_root_block(self):
        machine = generic(4, 2, 1, name="tree")
        comm = _broadcast_comm(machine, [2, 2, 2],
                               [Library.MPI, Library.MPI, Library.IPC],
                               count=16)
        node_hops = {
            (machine.node_of(op.src), machine.node_of(op.dst))
            for op in comm.schedule.ops
            if not machine.same_node(op.src, op.dst)
        }
        # Binary tree: 0->2 (top level), 0->1 and 2->3 (second level).
        assert node_hops == {(0, 2), (0, 1), (2, 3)}


class TestSparseLeaves:
    """Section 4.2: the tree is pruned to the sparsity of the leaf set."""

    def test_untouched_nodes_see_no_traffic(self):
        machine = generic(4, 2, 1, name="sparse")
        leaves = [0, 1, 3]  # nodes 0 and 1 only
        comm = _broadcast_comm(machine, [4, 2], [Library.MPI, Library.IPC],
                               leaves=leaves, count=16)
        touched = {op.src for op in comm.schedule.ops}
        touched |= {op.dst for op in comm.schedule.ops}
        assert all(machine.node_of(r) in (0, 1) for r in touched)

    def test_single_leaf_is_point_to_point(self):
        machine = generic(2, 2, 1, name="p2p")
        comm = _broadcast_comm(machine, [2, 2], [Library.MPI, Library.IPC],
                               leaves=[3], count=16)
        remote = [op for op in comm.schedule.ops if not op.is_local]
        # One inter-node hop (possibly staged through the position-matched
        # peer), nothing touching node 0 beyond the root.
        assert all(op.src in (0, 2, 3) and op.dst in (2, 3) for op in remote)


class TestPipelineChannels:
    def test_channels_partition_payload(self):
        machine = generic(2, 2, 1, name="pipe")
        comm = _broadcast_comm(machine, [2, 2], [Library.MPI, Library.IPC],
                               pipeline=4, count=64)
        channels = {op.channel for op in comm.schedule.ops}
        assert channels == {0, 1, 2, 3}
        # Inter-node hops per channel carry count/m elements each.
        for ch in channels:
            vols = [op.count for op in comm.schedule.ops
                    if op.channel == ch and not machine.same_node(op.src, op.dst)]
            assert all(v == 16 for v in vols)

    def test_deeper_than_payload_truncates(self):
        machine = generic(2, 2, 1, name="pipe")
        comm = _broadcast_comm(machine, [2, 2], [Library.MPI, Library.IPC],
                               pipeline=64, count=8)
        channels = {op.channel for op in comm.schedule.ops}
        assert len(channels) == 8  # no empty channels emitted

    def test_cross_channel_independence(self):
        """Channels touch disjoint slices, so no cross-channel deps exist."""
        machine = generic(2, 2, 1, name="pipe")
        comm = _broadcast_comm(machine, [2, 2], [Library.MPI, Library.IPC],
                               pipeline=4, count=64)
        ops = comm.schedule.ops
        for op in ops:
            for dep in op.deps:
                assert ops[dep].channel == op.channel


class TestPositionMatching:
    def test_full_broadcast_hops_are_nic_aligned(self):
        """Inter-node hops connect same-local-index GPUs (multi-rail)."""
        machine = generic(2, 4, 4, name="rail")
        comm = _broadcast_comm(machine, [2, 4], [Library.MPI, Library.IPC],
                               stripe=4, count=64)
        for op in comm.schedule.ops:
            if not machine.same_node(op.src, op.dst):
                assert machine.local_index(op.src) == machine.local_index(op.dst)
