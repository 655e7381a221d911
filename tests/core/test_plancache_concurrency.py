"""PlanCache under concurrent access: locked LRU, atomic unique-temp stores.

The regression this file locks down: disk stores used a temp file named
only by *pid*, so two writers in one process (threads, or two PlanCache
instances sharing a directory — exactly what the plan service's shards and
the sweep workers do) storing the same key interleaved their ``np.savez``
streams into a single temp file and renamed a corrupt archive into place.
The threaded stress below fails on that code (corrupt loads / disk-error
counts) and passes with per-writer unique temp names.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.communicator import Communicator
from repro.core.composition import compose
from repro.core.plancache import (
    CachedPlan,
    PlanCache,
    plan_nbytes,
    schedule_key,
    timing_key,
)
from repro.machine.machines import generic
from repro.transport.library import Library

MACHINE = generic(2, 4, 2, name="concurrency")

#: Enough per-key bytes that a store takes a little while — interleaved
#: writers (the pre-fix failure mode) get caught with high probability.
COUNT = 1 << 12
PIPELINE = 8


def _layer_entries(count=COUNT, pipeline=PIPELINE, tag=0):
    """A real lowered schedule and its timing, each with its layer's key
    (tag varies the program): ``[(schedule key, entry), (timing key,
    entry)]``."""
    comm = Communicator(MACHINE, materialize=False)
    compose(comm, "all_reduce", count + tag)
    comm.init(
        hierarchy=[2, 4], library=[Library.MPI, Library.IPC],
        stripe=1, ring=1, pipeline=pipeline,
    )
    skey = schedule_key(comm.program, MACHINE, [2, 4], stripe=1, ring=1,
                        pipeline=pipeline)
    tkey = timing_key(skey, MACHINE, [Library.MPI, Library.IPC],
                      elem_bytes=4, dtype_name="float32")
    return [(skey, CachedPlan(comm.schedule, None, 1.0)),
            (tkey, CachedPlan(None, comm.timing, 1.0))]


def _plan_and_key(count=COUNT, pipeline=PIPELINE, tag=0):
    """The schedule-layer entry of :func:`_layer_entries`."""
    return _layer_entries(count, pipeline, tag)[0]


def test_same_key_concurrent_disk_stores_never_corrupt(tmp_path):
    """Two caches sharing a disk dir, hammering the same keys, stay clean.

    This is the plan-service topology: several PlanCache instances in one
    process pointed at one directory.  Pre-fix, their shared pid-named
    temp file interleaves two ``np.savez`` streams; the renamed archive is
    corrupt, which shows up either as writer disk errors or as a fresh
    reader failing to load the key.
    """
    disk = tmp_path / "shared"
    writers = [PlanCache(disk_dir=disk) for _ in range(2)]
    plans = [entry for i in range(3) for entry in _layer_entries(tag=i)]
    rounds = 6
    barrier = threading.Barrier(2 * len(plans))
    failures: list[BaseException] = []

    def hammer(cache: PlanCache, key, plan):
        try:
            for _ in range(rounds):
                barrier.wait(timeout=30)
                cache.put(key, plan)
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(cache, key, plan))
        for cache in writers
        for key, plan in plans
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert sum(c.stats.disk_errors for c in writers) == 0

    reader = PlanCache(disk_dir=disk)
    for key, plan in plans:
        loaded = reader.get(key)
        assert loaded is not None, f"key {key.digest[:12]} failed to load"
        if key.layer == "schedule":
            assert len(loaded.schedule) == len(plan.schedule)
            np.testing.assert_array_equal(
                loaded.schedule.src, plan.schedule.src
            )
        else:
            assert loaded.timing.elapsed == plan.timing.elapsed
    assert reader.stats.disk_errors == 0


def test_threaded_get_put_internal_consistency(tmp_path):
    """Mixed get/put traffic from many threads keeps the LRU invariants."""
    cache = PlanCache(capacity=4, disk_dir=tmp_path / "d")
    plans = [_plan_and_key(count=1 << 8, pipeline=2, tag=i) for i in range(8)]
    failures: list[BaseException] = []

    def worker(offset: int):
        try:
            for i in range(40):
                key, plan = plans[(offset + i) % len(plans)]
                if i % 3 == 0:
                    cache.put(key, plan)
                else:
                    cache.get(key)
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
    assert len(cache) <= 4
    expected_max = max(plan_nbytes(p) for _, p in plans) * 4
    assert 0 <= cache.total_bytes() <= expected_max
    stats = cache.stats
    assert stats.lookups == stats.memory_hits + stats.disk_hits + stats.misses


def test_eviction_accounting_matches_byte_budget():
    """Byte-budget evictions keep exact accounting (just-inserted survives)."""
    small = _plan_and_key(count=1 << 8, pipeline=2, tag=0)
    budget = plan_nbytes(small[1]) + 1  # roughly one small plan
    cache = PlanCache(capacity=64, max_total_bytes=budget)
    keys = [_plan_and_key(count=1 << 8, pipeline=2, tag=i) for i in range(4)]
    for key, plan in keys:
        cache.put(key, plan)
        # The just-inserted plan always survives, even over budget.
        assert cache.get(key) is not None
    assert cache.stats.evictions >= 3
    assert cache.total_bytes() <= max(budget, plan_nbytes(keys[-1][1]))
