"""Parallel sweep engine: point validation, deterministic merge, workers."""

from __future__ import annotations

import os

import pytest

from repro.bench.configs import hierarchical_config, tree_config
from repro.bench.figures import fig8_points
from repro.bench.parallel import SweepPoint, hiccl_grid, run_tasks
from repro.machine.machines import generic, perlmutter

MACHINE = generic(2, 2, 1, name="sweeptest")
PAYLOAD = 1 << 16


def _points():
    cfg = tree_config(MACHINE, pipeline=1, stripe=1)
    return [
        SweepPoint(MACHINE, "broadcast", config=cfg, payload_bytes=PAYLOAD),
        SweepPoint(MACHINE, "all_reduce", config=cfg, payload_bytes=PAYLOAD),
        SweepPoint(MACHINE, "gather", family="mpi", payload_bytes=PAYLOAD),
        SweepPoint(MACHINE, "gather", family="vendor", payload_bytes=PAYLOAD),
    ]


class TestSweepPoint:
    def test_needs_exactly_one_of_config_or_family(self):
        cfg = tree_config(MACHINE, pipeline=1, stripe=1)
        with pytest.raises(ValueError):
            SweepPoint(MACHINE, "broadcast")
        with pytest.raises(ValueError):
            SweepPoint(MACHINE, "broadcast", config=cfg, family="mpi")
        with pytest.raises(ValueError):
            SweepPoint(MACHINE, "broadcast", family="nonsense")

    def test_run_matches_serial_runner(self):
        from repro.bench.runner import run_hiccl

        cfg = tree_config(MACHINE, pipeline=1, stripe=1)
        point = SweepPoint(MACHINE, "broadcast", config=cfg,
                           payload_bytes=PAYLOAD)
        direct = run_hiccl(MACHINE, "broadcast", cfg, payload_bytes=PAYLOAD,
                           warmup=0, rounds=1)
        via_point = point.run()
        assert via_point.seconds == direct.seconds
        assert via_point.implementation == direct.implementation

    def test_label_is_informative(self):
        point = SweepPoint(MACHINE, "gather", family="mpi",
                           payload_bytes=PAYLOAD)
        assert "sweeptest" in point.label and "gather" in point.label


class TestRunSweep:
    def test_serial_results_in_input_order(self):
        results = run_tasks(_points(), jobs=1)
        assert len(results) == 4
        assert [m.collective for m in results if m is not None] == [
            "broadcast", "all_reduce", "gather"]
        assert results[3] is None  # NCCL offers no gather (Table 1)

    def test_parallel_matches_serial(self):
        """Workers must merge deterministically: same values, same order."""
        points = _points()
        serial = run_tasks(points, jobs=1)
        parallel = run_tasks(points, jobs=2)
        assert [(m.implementation, m.seconds) if m else None for m in serial] \
            == [(m.implementation, m.seconds) if m else None for m in parallel]

    def test_workers_share_plans_through_disk_cache(self, tmp_path):
        from repro.core.plancache import SCHEMA_VERSION

        points = _points()[:2]
        run_tasks(points, jobs=2, cache_dir=tmp_path)
        persisted = list(tmp_path.glob(f"v{SCHEMA_VERSION}-*.npz"))
        assert len(persisted) == 2  # one plan per distinct config

        # A second parallel sweep hits the persistent layer instead of
        # re-synthesizing (observable as unchanged file mtimes).
        stamps = {p.name: p.stat().st_mtime_ns for p in persisted}
        run_tasks(points, jobs=2, cache_dir=tmp_path)
        assert {p.name: p.stat().st_mtime_ns
                for p in tmp_path.glob(f"v{SCHEMA_VERSION}-*.npz")} == stamps

    def test_serial_sweep_honors_cache_dir(self, tmp_path):
        from repro.core import plancache
        from repro.core.plancache import SCHEMA_VERSION

        try:
            run_tasks(_points()[:1], jobs=1, cache_dir=tmp_path)
            assert len(list(tmp_path.glob(f"v{SCHEMA_VERSION}-*.npz"))) == 1
        finally:
            plancache.reset()

    def test_unoffered_baseline_is_none_in_both_modes(self):
        point = SweepPoint(generic(2, 2, 1, name="aurora"), "gather",
                           family="vendor", payload_bytes=PAYLOAD)
        assert run_tasks([point], jobs=1) == [None]


class TestGrids:
    def test_hiccl_grid_order(self):
        cfgs = [tree_config(MACHINE, pipeline=1, stripe=1),
                hierarchical_config(MACHINE)]
        grid = hiccl_grid(MACHINE, ["broadcast", "reduce"], cfgs,
                          payloads_bytes=(PAYLOAD,))
        labels = [(p.collective, p.config.name) for p in grid]
        assert labels == [("broadcast", "tree"), ("broadcast", "hierarchical"),
                          ("reduce", "tree"), ("reduce", "hierarchical")]

    def test_fig8_points_cover_every_collective(self):
        machine = perlmutter(nodes=2)
        points = fig8_points(machine, payload_bytes=PAYLOAD)
        per_collective: dict[str, int] = {}
        for p in points:
            per_collective[p.collective] = per_collective.get(p.collective, 0) + 1
        # 2 baselines + 4 HiCCL bars, plus the extra tree bar for bcast/reduce.
        assert set(per_collective) == {
            "broadcast", "reduce", "all_gather", "reduce_scatter",
            "all_reduce", "scatter", "gather", "all_to_all"}
        assert per_collective["broadcast"] == 7
        assert per_collective["all_reduce"] == 6


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="parallel speedup needs >= 4 cores")
def test_cold_parallel_sweep_is_faster():
    """Acceptance: a cold 4-way sweep clearly beats the serial one.

    The target is >= 2x on idle hardware; the assertion uses a 1.3x floor so
    a loaded CI host sharing its cores cannot flake the tier-1 run.
    """
    import time

    machine = perlmutter(nodes=4)
    points = fig8_points(machine, payload_bytes=1 << 26)

    t0 = time.perf_counter()
    run_tasks(points, jobs=4)
    parallel_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    run_tasks(points, jobs=1)
    serial_s = time.perf_counter() - t0
    assert serial_s / parallel_s >= 1.3
