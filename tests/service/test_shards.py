"""Sharded response cache: key ownership, partitioning, counters, eviction,
admission."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.service.protocol import machine_digest
from repro.machine.machines import by_name
from repro.service.shards import (
    FrequencySketch,
    ShardedPlanCache,
    response_nbytes,
)


DIGEST = machine_digest(by_name("delta", nodes=2))


def _body(tag: int, pad: int = 0) -> dict:
    return {"winner": {"tag": tag}, "pad": "x" * pad}


def _store(cache, digest, key, body) -> bool:
    """Reserve ``key`` and settle it with ``body`` (one planning pass)."""
    source, future = cache.claim(digest, key)
    assert source == "planned"
    stored = cache.settle(digest, key, body)
    assert future.result(timeout=0) == body
    return stored


def _lookup(cache, digest, key):
    """The stored body of ``key``, else ``None`` (retiring any reservation)."""
    source, found = cache.claim(digest, key)
    if source == "hit":
        return found
    if source == "planned":
        cache.settle(digest, key, error=LookupError(key))
    return None


def test_shard_index_stable_and_in_range():
    cache = ShardedPlanCache(num_shards=4)
    for system in ("delta", "perlmutter", "frontier", "aurora"):
        digest = machine_digest(by_name(system, nodes=4))
        idx = cache.shard_index(digest)
        assert 0 <= idx < 4
        assert cache.shard_index(digest) == idx  # deterministic


def test_different_machines_spread_over_shards():
    cache = ShardedPlanCache(num_shards=4)
    digests = [
        machine_digest(by_name(system, nodes=nodes))
        for system in ("delta", "perlmutter", "frontier", "aurora")
        for nodes in (2, 3, 4, 8)
    ]
    indices = {cache.shard_index(d) for d in digests}
    assert len(indices) > 1, "16 machine digests all mapped to one shard"


def test_counters_track_hits_misses_stores():
    cache = ShardedPlanCache(num_shards=2)
    digest = DIGEST
    assert _store(cache, digest, "k", _body(1))
    assert cache.claim(digest, "k") == ("hit", _body(1))
    stats = cache.stats()["total"]
    assert stats["lookups"] == 2
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["stores"] == 1
    assert stats["entries"] == 1
    assert stats["inflight"] == 0
    assert stats["bytes"] == response_nbytes(_body(1))
    assert stats["hit_rate"] == pytest.approx(0.5)
    # The other shard stayed untouched.
    per_shard = cache.stats()["shards"]
    idx = cache.shard_index(digest)
    other = per_shard[1 - idx]
    assert other["lookups"] == 0 and other["entries"] == 0


def test_byte_budget_evicts_and_counts():
    small = response_nbytes(_body(0, pad=64))
    cache = ShardedPlanCache(num_shards=1, capacity=64,
                             max_bytes=2 * small + 1)
    digest = DIGEST
    for i in range(4):
        assert _store(cache, digest, f"k{i}", _body(i, pad=64))
    stats = cache.stats()["total"]
    assert stats["evictions"] >= 2
    assert stats["bytes"] <= 2 * small + 1
    # Newest entry always survives its own insert.
    assert cache.claim(digest, "k3") == ("hit", _body(3, pad=64))


def test_admission_protects_hot_key_from_one_shot_scan():
    cache = ShardedPlanCache(num_shards=1, capacity=1, max_bytes=1 << 20)
    digest = DIGEST
    assert _store(cache, digest, "hot", _body(0))
    for _ in range(10):  # make "hot" popular in the sketch
        assert cache.claim(digest, "hot")[0] == "hit"
    # A cold key that would evict the hot incumbent is rejected...
    assert not _store(cache, digest, "cold", _body(1))
    assert cache.claim(digest, "hot") == ("hit", _body(0))
    # ...but earns admission once it is requested often enough.
    for _ in range(20):
        assert _lookup(cache, digest, "cold") is None
    assert _store(cache, digest, "cold", _body(1))
    assert cache.claim(digest, "cold") == ("hit", _body(1))
    stats = cache.stats()["total"]
    assert stats["admission_rejected"] >= 1


def test_sketch_estimates_and_ages():
    sketch = FrequencySketch(width=64, sample_size=100)
    for _ in range(10):
        sketch.increment("popular")
    sketch.increment("rare")
    assert sketch.estimate("popular") >= 10
    assert sketch.estimate("popular") > sketch.estimate("rare")
    assert sketch.estimate("never-seen-key") <= sketch.estimate("popular")
    # Aging: after sample_size total increments, counts halve.
    for _ in range(100):
        sketch.increment("filler")
    assert sketch.estimate("popular") <= 10


def test_sketch_rejects_tiny_width():
    with pytest.raises(ValueError):
        FrequencySketch(width=4)


def test_rejects_zero_shards():
    with pytest.raises(ValueError):
        ShardedPlanCache(num_shards=0)


# ----------------------------------------------------------- key ownership
def test_duplicate_claims_plan_once_and_share_the_body():
    """N concurrent claims of one key: one reservation, N-1 coalesced."""
    cache = ShardedPlanCache(num_shards=2)
    n = 6
    claimed = []
    barrier = threading.Barrier(n)

    def client():
        barrier.wait(timeout=30)
        claimed.append(cache.claim(DIGEST, "key"))

    threads = [threading.Thread(target=client) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    sources = sorted(source for source, _ in claimed)
    assert sources == ["coalesced"] * (n - 1) + ["planned"]
    futures = {id(future) for _, future in claimed}
    assert len(futures) == 1  # every waiter holds the reserved future
    total = cache.stats()["total"]
    assert total["inflight"] == 1
    assert total["lookups"] == total["misses"] == n

    assert cache.settle(DIGEST, "key", _body(7))
    assert all(f.result(timeout=0) == _body(7) for _, f in claimed)
    total = cache.stats()["total"]
    assert total["inflight"] == 0
    assert total["stores"] == 1
    assert total["entries"] == 1


def test_distinct_keys_do_not_coalesce():
    cache = ShardedPlanCache(num_shards=2)
    claims = [cache.claim(DIGEST, f"key{i}") for i in range(4)]
    assert [source for source, _ in claims] == ["planned"] * 4
    assert len({id(future) for _, future in claims}) == 4
    assert cache.stats()["total"]["inflight"] == 4
    for i in range(4):
        cache.settle(DIGEST, f"key{i}", _body(i))
    assert [f.result(timeout=0) for _, f in claims] == [
        _body(i) for i in range(4)]
    assert cache.stats()["total"]["inflight"] == 0


def test_settled_key_hits_until_evicted():
    """After completion the next claim is a hit; an evicted key plans again."""
    cache = ShardedPlanCache(num_shards=1, capacity=1, max_bytes=1 << 20)
    assert _store(cache, DIGEST, "a", _body(0))
    assert cache.claim(DIGEST, "a") == ("hit", _body(0))
    # "b" is asked for as often as "a", so admission lets it evict "a".
    assert [cache.claim(DIGEST, "b")[0] for _ in range(2)] == [
        "planned", "coalesced"]
    assert cache.settle(DIGEST, "b", _body(1))
    assert cache.stats()["total"]["evictions"] == 1
    assert cache.claim(DIGEST, "b") == ("hit", _body(1))
    assert cache.claim(DIGEST, "a")[0] == "planned"


def test_admission_rejected_key_plans_again():
    cache = ShardedPlanCache(num_shards=1, capacity=1, max_bytes=1 << 20)
    assert _store(cache, DIGEST, "hot", _body(0))
    for _ in range(5):
        cache.claim(DIGEST, "hot")
    assert not _store(cache, DIGEST, "cold", _body(1))
    assert cache.claim(DIGEST, "cold")[0] == "planned"
    assert cache.stats()["total"]["inflight"] == 1


def test_failed_plan_reaches_every_waiter_and_retires_key():
    cache = ShardedPlanCache(num_shards=2)
    source, reserved = cache.claim(DIGEST, "key")
    waiters = [cache.claim(DIGEST, "key") for _ in range(2)]
    assert source == "planned"
    assert all(s == "coalesced" and f is reserved for s, f in waiters)

    assert not cache.settle(DIGEST, "key", error=RuntimeError("boom"))
    for future in [reserved] + [f for _, f in waiters]:
        with pytest.raises(RuntimeError, match="boom"):
            future.result(timeout=0)
    total = cache.stats()["total"]
    assert total["inflight"] == 0
    assert total["stores"] == total["entries"] == 0
    # Nothing was stored, so the next request plans afresh.
    assert cache.claim(DIGEST, "key")[0] == "planned"


def test_counters_stay_consistent_under_concurrent_claims():
    """Each key plans once; lookups split into hits and misses; inflight
    drains to zero (24 threads, a short switch interval)."""
    cache = ShardedPlanCache(num_shards=2)
    keys = [f"key{i % 3}" for i in range(24)]
    seen = []
    lock = threading.Lock()

    def client(key):
        source, found = cache.claim(DIGEST, key)
        if source == "planned":
            cache.settle(DIGEST, key, _body(int(key[-1])))
        body = found if source == "hit" else found.result(timeout=30)
        with lock:
            seen.append((key, source, body))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == len(keys)
    assert all(body == _body(int(key[-1])) for key, _, body in seen)
    sources = [source for _, source, _ in seen]
    total = cache.stats()["total"]
    assert total["lookups"] == len(keys)
    assert total["hits"] + total["misses"] == total["lookups"]
    assert total["hits"] == sources.count("hit")
    assert sources.count("planned") == total["stores"] == 3
    assert total["inflight"] == 0
    assert total["entries"] == 3
