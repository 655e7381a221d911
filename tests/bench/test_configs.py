"""Tests for Table 5 configuration builders and the measurement runner."""

from __future__ import annotations

import pytest

import repro
from repro import Library, machines
from repro.bench.configs import (
    best_config,
    direct_config,
    hierarchical_config,
    pipelined_config,
    ring_config,
    striped_config,
    tree_config,
)
from repro.bench.report import geomean, render_throughput_table
from repro.bench.runner import (
    Measurement,
    payload_count,
    run_baseline,
    run_hiccl,
    sweep_payloads,
)
from repro.errors import InitializationError


class TestTable5Configs:
    def test_perlmutter_tree_row(self):
        cfg = tree_config(machines.perlmutter(4))
        assert list(cfg.hierarchy) == [2, 2, 4]
        assert list(cfg.libraries) == [Library.NCCL, Library.NCCL, Library.IPC]
        assert cfg.stripe == 4

    def test_perlmutter_ring_row(self):
        cfg = ring_config(machines.perlmutter(4))
        assert list(cfg.hierarchy) == [4, 4]
        assert list(cfg.libraries) == [Library.NCCL, Library.IPC]
        assert cfg.ring == 4

    def test_frontier_rows(self):
        tree = tree_config(machines.frontier(4))
        assert list(tree.hierarchy) == [2, 2, 4, 2]
        assert list(tree.libraries) == [Library.MPI, Library.MPI,
                                        Library.IPC, Library.IPC]
        ring = ring_config(machines.frontier(4))
        assert list(ring.hierarchy) == [4, 4, 2]
        assert list(ring.libraries) == [Library.MPI, Library.IPC, Library.IPC]

    def test_aurora_rows(self):
        tree = tree_config(machines.aurora(4))
        assert list(tree.hierarchy) == [2, 2, 6, 2]
        ring = ring_config(machines.aurora(4))
        assert list(ring.hierarchy) == [4, 6, 2]
        assert ring.stripe == 12

    def test_tree_scales_to_other_node_counts(self):
        cfg = tree_config(machines.perlmutter(16))
        assert list(cfg.hierarchy) == [2, 2, 2, 2, 4]

    def test_tree_rejects_non_power_of_two(self):
        with pytest.raises(InitializationError):
            tree_config(machines.perlmutter(6))

    def test_ring_needs_two_nodes(self):
        with pytest.raises(InitializationError):
            ring_config(machines.perlmutter(1))

    def test_single_node_tree_is_intra_only(self):
        cfg = tree_config(machines.frontier(1))
        assert list(cfg.hierarchy) == [4, 2]
        assert all(lib is Library.IPC for lib in cfg.libraries)

    def test_incremental_variants(self):
        m = machines.perlmutter(4)
        assert direct_config(m).hierarchy == (16,)
        assert hierarchical_config(m).stripe == 1
        assert hierarchical_config(m).pipeline == 1
        assert striped_config(m).stripe == 4
        assert pipelined_config(m, "ring").ring == 4

    def test_best_config_topologies(self):
        m = machines.perlmutter(4)
        assert best_config(m, "broadcast").ring == 4
        assert best_config(m, "all_gather").ring == 1
        assert best_config(m, "gather").pipeline < best_config(m, "all_gather").pipeline

    def test_init_kwargs_roundtrip(self):
        m = machines.perlmutter(4)
        cfg = tree_config(m)
        kwargs = cfg.init_kwargs()
        assert kwargs["hierarchy"] == [2, 2, 4]
        assert kwargs["stripe"] == 4


class TestRunner:
    def test_payload_count(self):
        m = machines.perlmutter(4)
        assert payload_count(m, 1 << 20) == (1 << 20) // (16 * 4)
        assert payload_count(m, 1) == 1  # never zero

    def test_run_hiccl_measurement(self):
        m = machines.perlmutter(2)
        meas = run_hiccl(m, "broadcast", tree_config(m, pipeline=2),
                         payload_bytes=1 << 22, warmup=0, rounds=1)
        assert meas.system == "perlmutter"
        assert meas.throughput > 0

    def test_run_baseline_families(self):
        m = machines.perlmutter(2)
        for family in ("mpi", "vendor", "direct"):
            meas = run_baseline(m, "broadcast", family,
                                payload_bytes=1 << 22, warmup=0, rounds=1)
            assert meas is not None and meas.throughput > 0

    def test_vendor_missing_collective_returns_none(self):
        m = machines.perlmutter(2)
        assert run_baseline(m, "all_to_all", "vendor",
                            payload_bytes=1 << 22, warmup=0, rounds=1) is None

    def test_oneccl_vendor_on_aurora(self):
        m = machines.aurora(2)
        meas = run_baseline(m, "broadcast", "vendor",
                            payload_bytes=1 << 22, warmup=0, rounds=1)
        assert meas is not None and meas.implementation == "oneccl"
        assert run_baseline(m, "gather", "vendor",
                            payload_bytes=1 << 22, warmup=0, rounds=1) is None

    def test_sweep_payloads(self):
        m = machines.perlmutter(2)
        sweep = sweep_payloads(m, "broadcast", tree_config(m, pipeline=2),
                               [1 << 18, 1 << 22])
        assert len(sweep) == 2
        assert sweep[1].payload_bytes > sweep[0].payload_bytes


class TestReport:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) != geomean([])  # NaN

    def test_render_table(self):
        rows = [
            Measurement("s", "broadcast", "mpi", 1 << 20, 0.001),
            Measurement("s", "broadcast", "hiccl", 1 << 20, 0.0001),
        ]
        text = render_throughput_table(rows, title="t")
        assert "broadcast" in text and "mpi" in text and "hiccl" in text
