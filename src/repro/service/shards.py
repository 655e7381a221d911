"""Sharded response cache, in-flight table and frequency-sketch admission.

The daemon's hot path is a cache lookup, so its cache is engineered for
concurrent skewed traffic rather than raw capacity.  It is also the one
owner of every request key: :meth:`ShardedPlanCache.claim` answers a key
with its stored body, its in-flight planning future, or a newly reserved
future, all under one shard lock, and :meth:`ShardedPlanCache.settle`
stores the planned body and retires the key in one critical section, so
no request can miss both the stored body and the in-flight future:

* **Coalescing** — fleet traffic is bursty *and* redundant: when a
  512-node job launches, all of its ranks' launchers ask for the same plan
  within milliseconds.  The first request for a key reserves it and plans;
  every duplicate that arrives before the key settles waits on the same
  future, so the burst costs exactly one synthesis.
* **Sharding** — entries partition by *machine fingerprint digest*
  (:func:`repro.service.protocol.machine_digest`): every request for one
  machine lands on one shard, so a burst from a single fleet contends on
  one lock while requests for other machines proceed in parallel, and the
  per-shard counters read as per-machine-population statistics.
* **Per-shard LRU + byte budget** — each shard is a
  :class:`~repro.core.plancache.ByteBudgetLRU` over JSON response bodies,
  charged their encoded size.
* **Frequency-sketch admission** — Zipf-skewed traffic has a long tail of
  one-shot keys; plain LRU lets each of them evict a member of the hot
  set.  A count-min sketch (4 rows, periodically halved so history ages
  out) estimates each key's request frequency, and an insert that would
  evict is *rejected* when the incumbent LRU victim is estimated hotter —
  scan-resistance for a few kilobytes of sketch.

This layer caches the service's *response documents*; the plans themselves
also land in the ordinary :mod:`repro.core.plancache` via the planner, so
a shard miss that coalesces onto a planning task can still hit warm
schedule synthesis underneath.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..core.plancache import ByteBudgetLRU

#: Default shard count; a small power of two keeps the digest->shard map
#: balanced without burning memory on empty shards.
DEFAULT_SHARDS = 4

#: Default per-shard budgets.  Response bodies are a few KB each, so these
#: admit thousands of distinct (machine, collective, payload) keys.
DEFAULT_SHARD_CAPACITY = 512
DEFAULT_SHARD_BYTES = 8 << 20


class FrequencySketch:
    """Count-min sketch with periodic aging (the TinyLFU frequency filter).

    ``width`` counters x 4 rows of uint32; :meth:`increment` bumps one
    counter per row, :meth:`estimate` reads the minimum.  After
    ``sample_size`` increments every counter is halved, so estimates track
    *recent* popularity and a formerly hot key can age out.  Not
    thread-safe on its own (the owning shard's lock covers it).
    """

    ROWS = 4

    def __init__(self, width: int = 1024, sample_size: int | None = None) -> None:
        if width < 16:
            raise ValueError(f"sketch width must be >= 16, got {width}")
        self.width = int(width)
        self.sample_size = (
            int(sample_size) if sample_size is not None else 8 * self.width
        )
        self._table = np.zeros((self.ROWS, self.width), dtype=np.uint32)
        self._increments = 0
        # Fixed odd multipliers give 4 independent-enough row hashes from
        # one Python hash; determinism matters more than hash quality here.
        self._salts = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)

    def _slots(self, key: str) -> list[int]:
        h = int.from_bytes(key.encode()[:8].ljust(8, b"\0"), "little")
        return [((h * salt) >> 16) % self.width for salt in self._salts]

    def increment(self, key: str) -> None:
        """Record one occurrence of ``key`` (ages the sketch periodically)."""
        for row, slot in enumerate(self._slots(key)):
            if self._table[row, slot] < np.iinfo(np.uint32).max:
                self._table[row, slot] += 1
        self._increments += 1
        if self._increments >= self.sample_size:
            self._table >>= 1
            self._increments //= 2

    def estimate(self, key: str) -> int:
        """Estimated occurrence count of ``key`` (never underestimates)."""
        return int(min(
            self._table[row, slot]
            for row, slot in enumerate(self._slots(key))
        ))


@dataclass
class ShardStats:
    """Counters of one shard, surfaced by ``repro cache --json``."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    admission_rejected: int = 0

    def to_dict(self) -> dict:
        """JSON-shaped snapshot (plus derived hit rate)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "admission_rejected": self.admission_rejected,
            "hit_rate": self.hits / self.lookups if self.lookups else 0.0,
        }


@dataclass
class _Shard:
    """One lock + LRU + sketch + in-flight table + counters partition."""

    lru: ByteBudgetLRU
    sketch: FrequencySketch
    stats: ShardStats = field(default_factory=ShardStats)
    lock: threading.Lock = field(default_factory=threading.Lock)
    inflight: dict[str, Future] = field(default_factory=dict)


def response_nbytes(body: dict) -> int:
    """Byte charge of one cached response: its compact-JSON encoding."""
    return len(json.dumps(body, sort_keys=True, separators=(",", ":")))


class ShardedPlanCache:
    """Machine-fingerprint-sharded owner of plan request keys."""

    def __init__(
        self,
        num_shards: int = DEFAULT_SHARDS,
        capacity: int = DEFAULT_SHARD_CAPACITY,
        max_bytes: int = DEFAULT_SHARD_BYTES,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = int(num_shards)
        self._shards = [
            _Shard(ByteBudgetLRU(capacity, max_bytes), FrequencySketch())
            for _ in range(self.num_shards)
        ]

    def shard_index(self, machine_digest: str) -> int:
        """Shard serving one machine fingerprint digest."""
        return int(machine_digest[:8], 16) % self.num_shards

    def _shard(self, machine_digest: str) -> _Shard:
        return self._shards[self.shard_index(machine_digest)]

    def claim(self, machine_digest: str, key: str) -> tuple[str, object]:
        """Answer ``key`` as ``(source, value)`` under its shard lock.

        ``("hit", body)`` for a stored response; ``("coalesced", future)``
        when the key is already being planned; ``("planned", future)`` when
        this call reserved the key — the caller must then plan it and
        :meth:`settle` it, and the future resolves for every waiter once it
        does.  Every claim counts as one lookup (a hit or a miss) and feeds
        the frequency sketch, which is what lets a repeatedly *missed* key
        earn admission later.
        """
        shard = self._shard(machine_digest)
        with shard.lock:
            shard.stats.lookups += 1
            shard.sketch.increment(key)
            body = shard.lru.get(key)
            if body is not None:
                shard.stats.hits += 1
                return "hit", body
            shard.stats.misses += 1
            future = shard.inflight.get(key)
            if future is not None:
                return "coalesced", future
            future = shard.inflight[key] = Future()
            return "planned", future

    def settle(self, machine_digest: str, key: str, body: dict | None = None,
               error: BaseException | None = None) -> bool:
        """Finish a key :meth:`claim` reserved; True when its body was stored.

        The body is stored (admission permitting) and the key retired in one
        critical section, then the key's future resolves to ``body`` — or,
        given ``error``, nothing is stored and the future raises ``error``
        for every waiter.  Admission: an insert that would evict is allowed
        only if the new key's sketch estimate is at least the LRU victim's,
        so cold one-shot keys bounce off a hot working set instead of
        churning it; a rejected or later evicted key plans again on its
        next claim.
        """
        shard = self._shard(machine_digest)
        nbytes = response_nbytes(body) if error is None else 0
        stored = False
        with shard.lock:
            future = shard.inflight.pop(key)
            if error is None:
                stored = self._admit(shard, key, body, nbytes)
        if error is None:
            future.set_result(body)
        else:
            future.set_exception(error)
        return stored

    @staticmethod
    def _admit(shard: _Shard, key: str, body: dict, nbytes: int) -> bool:
        lru = shard.lru
        if (len(lru) + 1 > lru.capacity
                or lru.total_bytes() + nbytes > lru.max_total_bytes):
            victim = lru.peek_oldest()
            if victim is not None and (
                shard.sketch.estimate(key) < shard.sketch.estimate(victim[0])
            ):
                shard.stats.admission_rejected += 1
                return False
        evicted = lru.put(key, body, nbytes)
        shard.stats.stores += 1
        shard.stats.evictions += len(evicted)
        return True

    def stats(self) -> dict:
        """Per-shard and aggregate counters, JSON-shaped."""
        shards = []
        totals = ShardStats()
        gauges = {"entries": 0, "bytes": 0, "inflight": 0}
        for shard in self._shards:
            with shard.lock:
                doc = shard.stats.to_dict()
                doc["entries"] = len(shard.lru)
                doc["bytes"] = shard.lru.total_bytes()
                doc["inflight"] = len(shard.inflight)
            for name in ("lookups", "hits", "misses", "stores",
                         "evictions", "admission_rejected"):
                setattr(totals, name, getattr(totals, name) + doc[name])
            for name in gauges:
                gauges[name] += doc[name]
            shards.append(doc)
        return {"shards": shards, "total": {**totals.to_dict(), **gauges}}
