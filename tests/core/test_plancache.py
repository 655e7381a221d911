"""Plan cache: the schedule/timing layer split, hit/miss accounting, disk
round-trip, schema invalidation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import plancache
from repro.core.communicator import Communicator, SubCommunicator
from repro.core.composition import compose
from repro.core.plancache import (
    DEFAULT_CAPACITY,
    SCHEMA_VERSION,
    CachedPlan,
    PlanCache,
    machine_fingerprint,
    plan_nbytes,
    program_fingerprint,
    schedule_key,
    timing_key,
)
from repro.machine.machines import generic
from repro.transport.library import Library

MACHINE = generic(2, 4, 2, name="cachetest")
COUNT = 1 << 10
LIBS = (Library.MPI, Library.IPC)


def _keys(program, machine=MACHINE, hierarchy=(2, 4), libraries=LIBS, *,
          stripe=1, ring=1, pipeline=2, elem_bytes=4, dtype_name="float32",
          optimize=(), extra=()):
    """``(schedule key, timing key)`` of one init configuration."""
    skey = schedule_key(program, machine, hierarchy, stripe=stripe,
                        ring=ring, pipeline=pipeline, optimize=optimize,
                        extra=extra)
    return skey, timing_key(skey, machine, libraries, elem_bytes=elem_bytes,
                            dtype_name=dtype_name)


def _layer(cache, name):
    return cache.stats.layers[name]


class _Spy:
    """Counts ``lower_program`` and ``simulate`` calls made by init."""

    def __init__(self, monkeypatch):
        import repro.core.communicator as comm_mod

        self.lowered = 0
        self.machines = []
        real_lower = comm_mod.lower_program
        real_simulate = comm_mod.simulate

        def lower(*a, **kw):
            self.lowered += 1
            return real_lower(*a, **kw)

        def simulate(schedule, machine, *a, **kw):
            self.machines.append(machine)
            return real_simulate(schedule, machine, *a, **kw)

        monkeypatch.setattr(comm_mod, "lower_program", lower)
        monkeypatch.setattr(comm_mod, "simulate", simulate)

    @property
    def simulated(self) -> int:
        return len(self.machines)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test behind its own memory-only process-wide cache."""
    cache = plancache.configure(disk_dir=None)
    yield cache
    plancache.reset()


def _communicator(count=COUNT, collective="all_reduce", materialize=False):
    comm = Communicator(MACHINE, materialize=materialize)
    compose(comm, collective, count)
    return comm


def _init(comm, pipeline=2, **kwargs):
    comm.init(hierarchy=[2, 4], library=[Library.MPI, Library.IPC],
              pipeline=pipeline, **kwargs)
    return comm


class TestKeying:
    def test_identical_configs_same_key(self):
        k1 = _keys(_communicator().program)
        k2 = _keys(_communicator().program)
        assert k1 == k2
        assert [k.layer for k in k1] == ["schedule", "timing"]

    def test_any_parameter_changes_the_key(self):
        program = _communicator().program
        k0 = _keys(program)[1]
        variants = [
            _keys(program, hierarchy=(4, 2)),
            _keys(program, libraries=(Library.NCCL, Library.IPC)),
            _keys(program, stripe=2),
            _keys(program, pipeline=4),
            _keys(program, elem_bytes=8, dtype_name="float64"),
            _keys(_communicator(count=COUNT * 2).program),
            _keys(program, machine=generic(2, 4, 1, name="othermachine")),
            _keys(program, optimize=("dce",)),
            _keys(program, extra=(("size_class", "small"),)),
        ]
        digests = {k0.digest} | {timing.digest for _, timing in variants}
        assert len(digests) == len(variants) + 1

    def test_libraries_dtype_and_elem_bytes_stay_out_of_the_schedule_key(self):
        program = _communicator().program
        skey, tkey = _keys(program)
        for variant in (
            _keys(program, libraries=(Library.NCCL, Library.IPC)),
            _keys(program, elem_bytes=8, dtype_name="float64"),
            _keys(program, elem_bytes=4, dtype_name="int32"),
        ):
            assert variant[0] == skey
            assert variant[1].digest != tkey.digest
        assert "libraries" not in dict(skey.parts)
        assert "dtype" not in dict(skey.parts)

    def test_machine_optimize_extra_and_placement_go_into_the_schedule_key(
            self, fresh_cache):
        program = _communicator().program
        skey = _keys(program)[0]
        variants = [
            _keys(program, machine=generic(2, 4, 1, name="othermachine"))[0],
            _keys(program, optimize=("dce",))[0],
            _keys(program, extra=(("size_class", "small"),))[0],
        ]
        assert len({skey.digest} | {k.digest for k in variants}) == 4

        # Sub-communicators: one group-space lowering per shape, one
        # embedded schedule per placement, both in the schedule layer.
        def group(ranks):
            comm = SubCommunicator(MACHINE, ranks, materialize=False)
            compose(comm, "all_reduce", COUNT)
            comm.init(hierarchy=[4], library=[Library.IPC], pipeline=2)
            return comm

        a, b = group(range(0, 4)), group(range(4, 8))
        assert a.schedule is b.schedule
        assert a.global_schedule is not b.global_schedule
        assert fresh_cache.held("schedule")[0] == 3
        assert fresh_cache.held("timing")[0] == 2

    def test_profile_calibration_changes_the_key(self, monkeypatch):
        """Editing transport/profiles.py must invalidate persisted plans."""
        import dataclasses

        from repro.transport import profiles as prof_mod

        program = _communicator().program
        base = dict(stripe=1, ring=1, pipeline=2, elem_bytes=4,
                    dtype_name="float32")
        s0, k0 = _keys(program, **base)
        old = prof_mod.PROFILES[Library.MPI]
        monkeypatch.setitem(prof_mod.PROFILES, Library.MPI,
                            dataclasses.replace(old, eff_inter=old.eff_inter / 2))
        s1, k1 = _keys(program, **base)
        assert k0.digest != k1.digest
        assert s0 == s1  # pricing calibration never reaches the lowering

    def test_fingerprints_are_hashable_and_stable(self):
        comm = _communicator()
        assert hash(program_fingerprint(comm.program)) == hash(
            program_fingerprint(comm.program))
        assert hash(machine_fingerprint(MACHINE)) == hash(
            machine_fingerprint(MACHINE))


class TestHitMissAccounting:
    def test_second_init_is_a_hit(self, fresh_cache):
        _init(_communicator())
        for name in ("schedule", "timing"):
            assert _layer(fresh_cache, name).misses == 1
            assert _layer(fresh_cache, name).stores == 1
        c2 = _init(_communicator())
        assert c2.cache_hit
        for name in ("schedule", "timing"):
            assert _layer(fresh_cache, name).memory_hits == 1
            assert _layer(fresh_cache, name).lookups == 2
        assert fresh_cache.stats.lookups == 4
        assert fresh_cache.stats.hit_rate == 0.5

    def test_second_init_does_zero_factorization_work(self, monkeypatch,
                                                      fresh_cache):
        """The acceptance check: a warm init never lowers or prices."""
        import repro.core.communicator as comm_mod

        calls = {"lower": 0, "simulate": 0}
        real_lower = comm_mod.lower_program
        real_simulate = comm_mod.simulate

        def spy_lower(*a, **kw):
            calls["lower"] += 1
            return real_lower(*a, **kw)

        def spy_simulate(*a, **kw):
            calls["simulate"] += 1
            return real_simulate(*a, **kw)

        monkeypatch.setattr(comm_mod, "lower_program", spy_lower)
        monkeypatch.setattr(comm_mod, "simulate", spy_simulate)

        c1 = _init(_communicator())
        assert calls == {"lower": 1, "simulate": 1}
        c2 = _init(_communicator())
        assert calls == {"lower": 1, "simulate": 1}  # untouched: pure cache hit
        assert c2.cache_hit and not c1.cache_hit
        assert fresh_cache.stats.hits == 2  # one per layer

    def test_different_config_is_a_miss(self, fresh_cache):
        _init(_communicator(), pipeline=2)
        c2 = _init(_communicator(), pipeline=4)
        assert not c2.cache_hit
        assert _layer(fresh_cache, "schedule").misses == 2
        assert _layer(fresh_cache, "timing").misses == 2

    def test_use_cache_false_bypasses_the_cache(self, fresh_cache):
        _init(_communicator())
        c2 = _init(_communicator(), use_cache=False)
        assert not c2.cache_hit
        assert fresh_cache.stats.lookups == 2  # only the first init looked
        assert fresh_cache.stats.stores == 2

    def test_byte_budget_evicts_before_capacity(self):
        cache = PlanCache(capacity=100, max_total_bytes=1)
        c1 = _communicator()
        _init(c1, use_cache=False)

        def key(pipeline):
            return _keys(c1.program, pipeline=pipeline)[0]

        plan = CachedPlan(c1.schedule, None, 0.0)
        cache.put(key(1), plan)
        assert len(cache) == 1  # one over-budget plan is still kept
        cache.put(key(2), plan)
        assert len(cache) == 1  # ...but a second one evicts the first
        assert cache.stats.evictions == 1
        assert cache.total_bytes() == plan_nbytes(plan)

    def test_plan_nbytes_counts_arrays_deps_and_timing(self):
        c1 = _communicator()
        _init(c1, use_cache=False)
        rows = 16 * len(c1._timing.start_times)
        rows += 16 * len(c1._timing.resource_busy)
        assert plan_nbytes(CachedPlan(c1.schedule, None, 0.0)) \
            == c1.schedule.nbytes()
        assert plan_nbytes(CachedPlan(None, c1._timing, 0.0)) == rows
        assert plan_nbytes(CachedPlan(c1.schedule, c1._timing, 0.0)) \
            == c1.schedule.nbytes() + rows
        # The schedule's own figure includes the CSR dependency storage.
        assert c1.schedule.nbytes() > c1.schedule.dep_indices.nbytes
        assert plan_nbytes(CachedPlan(None, None, 0.0)) == 0

    def test_lru_eviction_accounted(self):
        cache = PlanCache(capacity=1)
        k1 = _keys(_communicator().program, hierarchy=(8,),
                   libraries=(Library.MPI,), pipeline=1)[0]
        k2 = _keys(_communicator().program, hierarchy=(8,),
                   libraries=(Library.MPI,), pipeline=2)[0]
        plan = CachedPlan(None, None, 0.0)
        cache.put(k1, plan)
        cache.put(k2, plan)
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        assert cache.get(k1) is None  # evicted
        assert cache.get(k2) is plan


class TestLayerSplit:
    """The schedule layer is shared by every library vector and dtype; the
    timing layer is not."""

    def test_library_vectors_share_one_lowering(self, monkeypatch,
                                                fresh_cache):
        spy = _Spy(monkeypatch)
        libraries = ([Library.MPI, Library.IPC], [Library.NCCL, Library.IPC])
        comms = []
        for library in libraries:
            comm = _communicator()
            comm.init(hierarchy=[2, 4], library=library, pipeline=2)
            comms.append(comm)
        assert (spy.lowered, spy.simulated) == (1, 2)
        assert comms[0].schedule is comms[1].schedule
        assert not any(c.cache_hit for c in comms)  # each priced once
        for comm, library in zip(comms, libraries):
            fresh = _communicator()
            fresh.init(hierarchy=[2, 4], library=library, pipeline=2,
                       use_cache=False)
            assert fresh.timing == comm.timing  # bit for bit
        assert fresh_cache.held("schedule")[0] == 1
        assert fresh_cache.held("timing")[0] == 2

    def test_dtypes_share_one_lowering(self, monkeypatch, fresh_cache):
        spy = _Spy(monkeypatch)
        for dtype in (np.float32, np.float64):
            comm = Communicator(MACHINE, dtype=dtype, materialize=False)
            compose(comm, "all_reduce", COUNT)
            _init(comm)
        assert (spy.lowered, spy.simulated) == (1, 2)

    def test_capacity_applies_to_each_layer(self, fresh_cache):
        """A sweep of ``DEFAULT_CAPACITY`` inits or fewer stays warm in both
        layers: each layer holds its own ``capacity`` entries, so the sweep's
        schedules and timings do not evict each other."""
        small = generic(2, 2, 1, name="capacity")
        sweep = DEFAULT_CAPACITY // 2 + 2  # > half: a shared LRU evicts

        def run_sweep():
            for count in range(1, sweep + 1):
                comm = Communicator(small, materialize=False)
                compose(comm, "broadcast", count)
                comm.init(hierarchy=[2, 2], library=[Library.MPI, Library.IPC])
                yield comm.cache_hit

        assert not any(run_sweep())
        assert all(run_sweep())
        for name in ("schedule", "timing"):
            assert _layer(fresh_cache, name).hits == sweep
            assert _layer(fresh_cache, name).evictions == 0
            assert fresh_cache.held(name)[0] == sweep
        assert len(fresh_cache) == 2 * sweep

    def test_each_entry_charges_its_own_arrays_once(self, fresh_cache):
        c1 = _init(_communicator())
        timing_rows = plan_nbytes(CachedPlan(None, c1.timing, 0.0))
        assert fresh_cache.held("schedule") == (1, c1.schedule.nbytes())
        assert fresh_cache.held("timing") == (1, timing_rows)
        assert fresh_cache.total_bytes() == c1.schedule.nbytes() + timing_rows


class TestCachedEqualsFresh:
    def test_cached_plan_prices_identically(self, fresh_cache):
        c1 = _init(_communicator())
        c2 = _init(_communicator())
        assert c2.cache_hit
        assert c2.schedule is c1.schedule  # shared, not re-lowered
        assert c2.timing.elapsed == c1.timing.elapsed
        fresh = _init(_communicator(), use_cache=False)
        assert fresh.timing.elapsed == c1.timing.elapsed
        assert [op for op in fresh.schedule.ops] == [op for op in c1.schedule.ops]

    def test_cached_plan_executes_identically(self, fresh_cache):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((MACHINE.world_size, COUNT * MACHINE.world_size))

        def run():
            comm = _communicator(materialize=True)
            _init(comm)
            comm.set_all("sendbuf", values.astype(np.float32))
            comm.run()
            return comm, comm.gather_all("recvbuf")

        c1, out1 = run()
        c2, out2 = run()
        assert c2.cache_hit
        np.testing.assert_array_equal(out1, out2)


class TestDiskLayer:
    def test_round_trip_across_cache_instances(self, tmp_path):
        disk = tmp_path / "plans"
        plancache.configure(disk_dir=disk)
        c1 = _init(_communicator())
        assert not c1.cache_hit
        # One archive per layer.
        assert len(list(disk.glob(f"v{SCHEMA_VERSION}-*.npz"))) == 2

        # A brand-new process-wide cache (same disk dir) hits via disk.
        cache2 = plancache.configure(disk_dir=disk)
        c2 = _init(_communicator())
        assert c2.cache_hit
        for name in ("schedule", "timing"):
            assert _layer(cache2, name).disk_hits == 1
            assert _layer(cache2, name).memory_hits == 0
        assert c2.timing == c1.timing
        assert c2.schedule.ops == c1.schedule.ops
        # ...and the disk hits were promoted into memory for the next lookup.
        c3 = _init(_communicator())
        assert c3.cache_hit
        for name in ("schedule", "timing"):
            assert _layer(cache2, name).memory_hits == 1

    def test_each_layer_round_trips_on_its_own(self, tmp_path):
        """A timing archive alone still spares the pricing, a schedule
        archive alone the lowering."""
        disk = tmp_path / "plans"
        plancache.configure(disk_dir=disk)
        _init(_communicator(), pipeline=2)
        by_layer = {}
        for path in plancache.get_cache().disk_entries():
            with np.load(path, allow_pickle=False) as payload:
                meta = json.loads(str(payload["meta"][()]))
            by_layer["schedule" if meta["has_schedule"] else "timing"] = path
        by_layer["timing"].unlink()
        cache2 = plancache.configure(disk_dir=disk)
        c2 = _init(_communicator(), pipeline=2)
        assert not c2.cache_hit
        assert _layer(cache2, "schedule").disk_hits == 1
        assert _layer(cache2, "timing").misses == 1

    def test_schema_version_invalidates(self, tmp_path, monkeypatch):
        disk = tmp_path / "plans"
        cache = plancache.configure(disk_dir=disk)
        _init(_communicator())
        path = cache.disk_entries()[0]

        # Simulate a plan persisted by an older schema: the payload says v1.
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        meta = json.loads(str(arrays["meta"][()]))
        meta["schema"] = SCHEMA_VERSION - 1
        arrays["meta"] = np.asarray(json.dumps(meta))
        with path.open("wb") as fh:
            np.savez(fh, **arrays)

        cache2 = plancache.configure(disk_dir=disk)
        c = _init(_communicator())
        assert not c.cache_hit  # stale schema ignored, fresh synthesis
        assert cache2.stats.misses == 1

    def test_corrupt_archive_is_a_miss_not_an_error(self, tmp_path):
        disk = tmp_path / "plans"
        cache = plancache.configure(disk_dir=disk)
        _init(_communicator())
        cache.disk_entries()[0].write_bytes(b"not an archive")
        cache2 = plancache.configure(disk_dir=disk)
        c = _init(_communicator())
        assert not c.cache_hit
        assert cache2.stats.disk_errors == 1

    def test_no_pickles_on_disk(self, tmp_path):
        """The persistent layer is pickle-free: pure arrays + JSON, one
        layer's arrays per archive."""
        disk = tmp_path / "plans"
        plancache.configure(disk_dir=disk)
        c1 = _init(_communicator())
        assert list(disk.glob("*.pkl")) == []
        files = []
        for path in plancache.get_cache().disk_entries():
            with np.load(path, allow_pickle=False) as payload:
                assert "meta" in payload.files
                files.append(set(payload.files))
        schedule = [f for f in files if "col_src" in f]
        timing = [f for f in files if "start_times" in f]
        assert len(schedule) == len(timing) == 1
        assert "dep_indices" in schedule[0]
        assert "start_times" not in schedule[0]
        assert "col_src" not in timing[0]
        # Round-trip through the archive preserves the lowered ops exactly.
        cache2 = plancache.configure(disk_dir=disk)
        c2 = _init(_communicator())
        assert c2.cache_hit
        assert c2.schedule.ops == c1.schedule.ops
        assert c2.timing.elapsed == c1.timing.elapsed

    def test_clear_disk_removes_all_versions_and_tmp_orphans(self, tmp_path):
        disk = tmp_path / "plans"
        cache = plancache.configure(disk_dir=disk)
        _init(_communicator())
        (disk / "v0-deadbeef.pkl").write_bytes(b"stale")
        (disk / "v1-cafe.tmp12345").write_bytes(b"interrupted store")
        assert cache.clear_disk() == 4  # two layer archives + two leftovers
        assert cache.disk_entries() == []
        assert list(disk.iterdir()) == []

    def test_set_disk_dir_keeps_warm_plans_and_stats(self, tmp_path):
        cache = plancache.configure()
        c1 = _init(_communicator())
        assert not c1.cache_hit and len(cache) == 2  # one entry per layer
        cache.set_disk_dir(tmp_path)
        c2 = _init(_communicator())
        assert c2.cache_hit  # warm memory layers survived the repointing
        assert cache.stats.memory_hits == 2

    def test_v2_archives_are_stale(self, tmp_path):
        """Archives of schema v2 (one file per whole plan) are never loaded
        and count as stale files, which ``clear_disk`` removes."""
        disk = tmp_path / "plans"
        cache = plancache.configure(disk_dir=disk)
        _init(_communicator())
        current = cache.disk_entries()
        legacy = disk / f"v2-{current[0].name.split('-', 1)[1]}"
        legacy.write_bytes(current[0].read_bytes())
        assert cache.disk_entries() == current
        assert legacy in cache.disk_files()
        assert len(cache.disk_files()) - len(current) == 1


class TestZeroOpPlans:
    """v2 ``.npz`` round-trip and size accounting on empty-DCE schedules."""

    @staticmethod
    def _zero_op_entries():
        """Schedule- and timing-layer entries of a schedule that dead-copy
        elimination empties entirely, under their keys."""
        from repro.core.passes.opt import DeadCopyEliminationPass
        from repro.core.schedule import ScheduleBuilder
        from repro.simulator.engine import simulate

        b = ScheduleBuilder(MACHINE.world_size)
        loc = b.alloc_scratch(1, 64)
        b.send(0, 1, ("buf", 0), loc, 64, level=0)  # written, never read
        swept, info = DeadCopyEliminationPass().run(b.build())
        assert info["removed"] == 1 and len(swept) == 0
        timing = simulate(swept, MACHINE, (Library.MPI,), 4)
        skey, tkey = _keys(_communicator().program, hierarchy=(8,),
                           libraries=(Library.MPI,), pipeline=1)
        return [(skey, CachedPlan(swept, None, 0.01)),
                (tkey, CachedPlan(None, timing, 0.01))]

    def test_zero_op_round_trip(self, tmp_path):
        (skey, splan), (tkey, tplan) = self._zero_op_entries()
        c1 = PlanCache(disk_dir=tmp_path)
        c1.put(skey, splan)
        c1.put(tkey, tplan)
        c2 = PlanCache(disk_dir=tmp_path)
        schedule = c2.get(skey).schedule
        timing = c2.get(tkey).timing
        assert c2.stats.disk_hits == 2
        assert len(schedule) == 0
        assert schedule.scratch == {}
        assert timing.elapsed == 0.0
        assert timing.start_times == []
        assert timing.resource_busy == {}
        # Empty columns keep their dtypes through the archive.
        for name in ("src", "count", "dep_indices"):
            assert (getattr(schedule, name).dtype
                    == getattr(splan.schedule, name).dtype)

    def test_zero_op_size_accounting(self, tmp_path):
        """``plan_nbytes`` agrees before and after the archive, and the
        byte ledger in both cache instances matches it exactly."""
        entries = self._zero_op_entries()
        total = sum(plan_nbytes(plan) for _, plan in entries)
        c1 = PlanCache(disk_dir=tmp_path)
        for key, plan in entries:
            c1.put(key, plan)
        assert c1.total_bytes() == total
        c2 = PlanCache(disk_dir=tmp_path)
        back = [(key, c2.get(key)) for key, _ in entries]
        for (_, plan), (_, loaded) in zip(entries, back):
            assert plan_nbytes(loaded) == plan_nbytes(plan)
        assert c2.total_bytes() == total
        # Re-putting the same keys must not drift the ledger.
        for key, loaded in back:
            c2.put(key, loaded)
        assert c2.total_bytes() == total

    def test_engine_field_survives_the_archive(self, tmp_path):
        """A levelized timing reloads as a levelized timing (the engine
        of record is part of the persisted metadata)."""
        from dataclasses import replace

        key, plan = self._zero_op_entries()[1]
        plan = CachedPlan(None, replace(plan.timing, engine="level"),
                          plan.synthesis_seconds)
        PlanCache(disk_dir=tmp_path).put(key, plan)
        back = PlanCache(disk_dir=tmp_path).get(key)
        assert back.timing.engine == "level"

    def test_legacy_archive_without_engine_reads_as_event(self, tmp_path):
        """Archives persisted before the engine field default to 'event'."""
        key, plan = self._zero_op_entries()[1]
        cache = PlanCache(disk_dir=tmp_path)
        cache.put(key, plan)
        path = cache.disk_entries()[0]
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        meta = json.loads(str(arrays["meta"][()]))
        del meta["engine"]
        arrays["meta"] = np.asarray(json.dumps(meta))
        with path.open("wb") as fh:
            np.savez(fh, **arrays)
        back = PlanCache(disk_dir=tmp_path).get(key)
        assert back is not None and back.timing.engine == "event"
