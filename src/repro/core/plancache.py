"""Cross-communicator plan cache (the persistence layer of Section 5.2).

``Communicator.init()`` is expensive: lowering a pipelined program emits tens
of thousands of point-to-point ops and the event engine prices every one of
them.  The two products depend on different inputs.  The lowered schedule is
a pure function of

    (program, machine, hierarchy, stripe, ring, pipeline, optimize, extra)

and does not depend on the per-level libraries at all: they only decide how
each point-to-point op is *priced*.  The timing adds

    (libraries, their transport profiles, elem_bytes, dtype)

on top of the schedule.  A planner that tries several library vectors for
one schedule therefore lowers it once and prices it once per vector.  One
:class:`PlanCache` holds both products in two layers:

``schedule_key``
    Builds the schedule-layer :class:`PlanKey` from the registered program,
    the machine fingerprint, and the lowering parameters.  :func:`extend_key`
    derives a further schedule-layer key from it (sub-communicators key
    their embedded schedule that way).

``timing_key``
    Builds the timing-layer key from a schedule key's *digest* plus the
    library, profile and dtype parts, so the program and machine are
    fingerprinted once per init.  Both keys embed :data:`SCHEMA_VERSION`, so
    any change to the lowered IR or the pricing model invalidates every
    persisted entry at once.

``PlanCache``
    Per layer, an in-process LRU (always on) with its own entry and byte
    budget, and an optional on-disk layer of versioned ``.npz`` archives
    under ``~/.cache/repro/plans/`` (or ``$REPRO_PLAN_CACHE_DIR``).  Lookups,
    hits and misses are counted per layer and surfaced by ``repro cache``.

Cached :class:`~repro.core.schedule.Schedule` objects are shared between
communicators; both interpreters (functional executor, event engine) treat
schedules as immutable, so sharing is safe.

The process-wide default cache is memory-only.  Set ``REPRO_PLAN_CACHE=disk``
(or call :func:`configure` with a directory) to enable persistence across
processes — the parallel sweep workers in :mod:`repro.bench.parallel` do this
so a warm sweep prices each distinct configuration exactly once per machine,
not once per process.

**Disk format.**  Each archive holds one layer's entry: a schedule entry its
structure-of-arrays columns and CSR dependency arrays, a timing entry its
timing rows, all as plain numpy arrays (``np.savez``); string/structural
metadata travels as one JSON document inside the archive.  Archives are
loaded with ``allow_pickle=False`` — no code ever executes from a cache
file; a corrupt, stale, or mismatched archive is treated as a miss.  Memory
accounting is exact (:func:`plan_nbytes`): a schedule entry is charged its
schedule's arrays and a timing entry its timing rows, so a timing entry never
charges its schedule a second time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..machine.spec import MachineSpec
from ..transport.profiles import profile
from .schedule import COLUMNS, Schedule

#: Bump whenever the lowered IR, the pricing model, or the key layout
#: changes; persisted plans with a different schema are ignored (and swept by
#: :meth:`PlanCache.clear_disk`).  v2: array-form Schedule IR + .npz layout.
#: v3: separate schedule and timing layers, one layer per archive.
SCHEMA_VERSION = 3

#: The layers of a :class:`PlanCache`, in the order reports list them.
LAYERS = ("schedule", "timing")

#: Environment knobs for the process-wide default cache.
ENV_CACHE_MODE = "REPRO_PLAN_CACHE"  # "disk" enables the on-disk layer
ENV_CACHE_DIR = "REPRO_PLAN_CACHE_DIR"  # overrides the default directory

#: Default in-process LRU capacity of each layer (entries, not bytes).
DEFAULT_CAPACITY = 256

#: Memory budget of each layer's in-process LRU in bytes, measured with
#: :func:`plan_nbytes` (the exact array footprint of an entry's schedule
#: columns and CSR dependency storage, or of its timing rows).  Large sweeps
#: over six-figure-op schedules evict early instead of pinning gigabytes the
#: pre-cache code released with each Communicator.
DEFAULT_MAX_TOTAL_BYTES = 256 << 20


def default_disk_dir() -> Path:
    """Directory of the persistent layer (honors ``REPRO_PLAN_CACHE_DIR``)."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "plans"


# ------------------------------------------------------------------- keying
def machine_fingerprint(machine: MachineSpec) -> tuple:
    """Stable value tuple of every field that affects lowering or pricing."""
    parts = []
    for f in fields(machine):
        value = getattr(machine, f.name)
        if f.name == "binding":
            value = value.value
        elif f.name == "levels":
            value = tuple(
                (lv.name, lv.extent, lv.bandwidth, lv.latency) for lv in value
            )
        elif f.name == "faults":
            # Degraded machines must never alias healthy cache entries: the
            # fault set's content tuple joins the fingerprint verbatim.
            value = value.fingerprint() if value is not None else None
        parts.append((f.name, value))
    return tuple(parts)


def program_fingerprint(program) -> tuple:
    """Stable value tuple of the registered primitives, step by step."""
    from .primitives import Multicast

    steps = []
    for step in program.steps:
        if not step:
            continue
        prims = []
        for prim in step:
            if isinstance(prim, Multicast):
                prims.append((
                    "M", prim.sendbuf.name, prim.sendbuf.offset,
                    prim.recvbuf.name, prim.recvbuf.offset,
                    prim.count, prim.root, prim.leaves,
                ))
            else:
                prims.append((
                    "R", prim.sendbuf.name, prim.sendbuf.offset,
                    prim.recvbuf.name, prim.recvbuf.offset,
                    prim.count, prim.root, prim.leaves, prim.op.name,
                ))
        steps.append(tuple(prims))
    return (program.world_size, tuple(steps))


@dataclass(frozen=True)
class PlanKey:
    """Content address of one cache entry.

    ``layer`` names the layer holding the entry (one of :data:`LAYERS`);
    ``parts`` is the full (hashable) identity tuple; ``digest`` is its
    SHA-256 hex digest, used as the LRU key and the on-disk file name.
    """

    layer: str
    digest: str
    parts: tuple

    def filename(self) -> str:
        """Name of this entry's archive in the disk layer."""
        return f"v{SCHEMA_VERSION}-{self.digest}.npz"


def _profile_values(prof) -> tuple:
    return tuple(getattr(prof, f.name) for f in fields(prof))


def _key(layer: str, parts: tuple) -> PlanKey:
    parts = (("schema", SCHEMA_VERSION), ("layer", layer)) + parts
    return PlanKey(layer, hashlib.sha256(repr(parts).encode()).hexdigest(),
                   parts)


def schedule_key(
    program,
    machine: MachineSpec,
    hierarchy,
    *,
    stripe: int,
    ring: int,
    pipeline: int,
    optimize: tuple = (),
    extra: tuple = (),
) -> PlanKey:
    """Schedule-layer key of one lowering.

    Everything the lowering reads is in it; the libraries, the dtype and the
    element size are not, since lowering never reads them.  ``extra``
    extends the identity tuple with caller-specific hashable components
    (``Communicator.init``'s ``cache_extra``).
    """
    parts = (
        ("program", program_fingerprint(program)),
        ("machine", machine_fingerprint(machine)),
        ("hierarchy", tuple(int(f) for f in hierarchy)),
        ("stripe", int(stripe)),
        ("ring", int(ring)),
        ("pipeline", int(pipeline)),
    )
    if optimize:
        parts += (("optimize", tuple(optimize)),)
    if extra:
        parts += (("extra", tuple(extra)),)
    return _key("schedule", parts)


def extend_key(key: PlanKey, extra: tuple) -> PlanKey:
    """A key of ``key``'s layer for an entry derived from ``key``'s entry.

    Sub-communicators key their embedded schedule this way: the group-space
    lowering stays under the plain key, shared by every same-shape group,
    while ``extra`` (parent machine and global rank placement) keeps each
    group's embedding distinct.
    """
    return _key(key.layer, (("base", key.digest), ("extra", tuple(extra))))


def timing_key(
    key: PlanKey,
    machine: MachineSpec,
    libraries,
    *,
    elem_bytes: int,
    dtype_name: str,
) -> PlanKey:
    """Timing-layer key of the schedule under ``key`` priced on ``machine``.

    Hashes the schedule key's digest, not its parts, so the program and
    machine are fingerprinted once per init.  ``machine`` must be the one
    the schedule key already names; only its name is read here, to look up
    the library profiles.
    """
    return _key("timing", (
        ("schedule", key.digest),
        ("libraries", tuple(lib.value for lib in libraries)),
        # Pricing depends on the calibrated per-library envelopes too, so an
        # edit to transport/profiles.py invalidates persisted timings without
        # anyone having to remember to bump SCHEMA_VERSION.
        ("profiles", tuple(
            (lib.value,) + _profile_values(profile(lib, machine.name))
            for lib in libraries
        )),
        ("elem_bytes", int(elem_bytes)),
        ("dtype", dtype_name),
    ))


# -------------------------------------------------------------------- value
@dataclass(frozen=True)
class CachedPlan:
    """One memoized product of ``Communicator.init``.

    A schedule-layer entry carries the lowered ``schedule`` (``timing`` is
    ``None``); a timing-layer entry carries the priced ``timing``
    (``schedule`` is ``None``).  ``synthesis_seconds`` records the cold cost
    of producing it, so cache statistics can report how much wall-clock
    time hits have saved.
    """

    schedule: Schedule | None
    timing: object  # TimingResult; untyped to avoid a core -> simulator import
    synthesis_seconds: float


def plan_nbytes(plan: CachedPlan) -> int:
    """Exact array byte footprint of one cached entry.

    Sums the schedule's column and CSR dependency arrays
    (:meth:`Schedule.nbytes`) plus the timing rows (two float64 values per
    op: start and completion) and the per-resource occupancy table.  This
    is the figure each layer's byte budget charges.  An entry holds one
    layer's product, so a schedule is charged in the schedule layer only
    and its timing rows in the timing layer only.
    """
    total = 0
    if plan.schedule is not None:
        total += plan.schedule.nbytes()
    timing = plan.timing
    if timing is not None:
        total += 16 * len(timing.start_times)  # start + completion, float64
        total += 16 * len(timing.resource_busy)  # key hash slot + float64
    return total


# ------------------------------------------------------- npz (de)serialization
def _plan_payload(key: PlanKey, plan: CachedPlan) -> dict[str, np.ndarray]:
    """Flatten a cached plan into named arrays plus one JSON metadata blob."""
    schedule = plan.schedule
    timing = plan.timing
    meta: dict = {
        "schema": SCHEMA_VERSION,
        "key_parts": repr(key.parts),
        "synthesis_seconds": plan.synthesis_seconds,
        "has_schedule": schedule is not None,
        "has_timing": timing is not None,
    }
    arrays: dict[str, np.ndarray] = {}
    if schedule is not None:
        meta["world_size"] = schedule.world_size
        meta["num_channels"] = schedule.num_channels
        meta["buffer_names"] = list(schedule.buffer_names)
        meta["tag_names"] = list(schedule.tag_names)
        meta["scratch"] = {
            name: {str(rank): count for rank, count in sizes.items()}
            for name, sizes in schedule.scratch.items()
        }
        for name, _ in COLUMNS:
            arrays[f"col_{name}"] = getattr(schedule, name)
        arrays["dep_indptr"] = schedule.dep_indptr
        arrays["dep_indices"] = schedule.dep_indices
    if timing is not None:
        meta["elapsed"] = timing.elapsed
        meta["engine"] = getattr(timing, "engine", "event")
        meta["resource_keys"] = [list(k) for k in timing.resource_busy]
        arrays["start_times"] = np.asarray(timing.start_times, dtype=np.float64)
        arrays["completion_times"] = np.asarray(
            timing.completion_times, dtype=np.float64
        )
        arrays["resource_busy"] = np.asarray(
            list(timing.resource_busy.values()), dtype=np.float64
        )
    arrays["meta"] = np.asarray(json.dumps(meta))
    return arrays


def _plan_from_payload(payload, key: PlanKey) -> CachedPlan | None:
    """Rebuild a cached plan from a loaded ``.npz``; None on any mismatch."""
    if "meta" not in payload:
        return None
    meta = json.loads(str(payload["meta"][()]))
    if (meta.get("schema") != SCHEMA_VERSION
            or meta.get("key_parts") != repr(key.parts)):
        return None
    schedule = None
    if meta["has_schedule"]:
        schedule = Schedule.from_arrays(
            meta["world_size"],
            {name: payload[f"col_{name}"] for name, _ in COLUMNS},
            payload["dep_indptr"], payload["dep_indices"],
            meta["buffer_names"], meta["tag_names"],
            {
                name: {int(rank): count for rank, count in sizes.items()}
                for name, sizes in meta["scratch"].items()
            },
            meta["num_channels"],
        )
    timing = None
    if meta["has_timing"]:
        from ..simulator.engine import TimingResult

        keys = [tuple(k) for k in meta["resource_keys"]]
        timing = TimingResult(
            elapsed=meta["elapsed"],
            start_times=payload["start_times"].tolist(),
            completion_times=payload["completion_times"].tolist(),
            resource_busy=dict(zip(keys, payload["resource_busy"].tolist())),
            engine=meta.get("engine", "event"),
        )
    return CachedPlan(schedule, timing, meta["synthesis_seconds"])


@dataclass
class LayerStats:
    """Lookups, stores and evictions of one cache layer."""

    lookups: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        """Lookups answered from memory or disk."""
        return self.memory_hits + self.disk_hits

    def render(self) -> str:
        """One-line summary."""
        return (f"lookups={self.lookups} hits={self.hits} "
                f"misses={self.misses} evictions={self.evictions}")


def _summed(name: str) -> property:
    return property(
        lambda self: sum(getattr(s, name) for s in self.layers.values()),
        doc=f"``{name}`` summed over both layers.",
    )


@dataclass
class CacheStats:
    """Hit/miss accounting per layer (``layers``) and over both layers."""

    layers: dict[str, LayerStats] = field(
        default_factory=lambda: {name: LayerStats() for name in LAYERS})
    disk_errors: int = 0
    seconds_saved: float = 0.0

    lookups = _summed("lookups")
    memory_hits = _summed("memory_hits")
    disk_hits = _summed("disk_hits")
    misses = _summed("misses")
    stores = _summed("stores")
    evictions = _summed("evictions")

    @property
    def hits(self) -> int:
        """Lookups answered from memory or disk, over both layers."""
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Share of lookups that hit, over both layers (0 before any)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def render(self) -> str:
        """One-line summary of the totals, then each layer's counts."""
        layers = "; ".join(f"{name}: {stats.render()}"
                           for name, stats in self.layers.items())
        return (
            f"lookups={self.lookups} hits={self.hits} "
            f"(memory {self.memory_hits}, disk {self.disk_hits}) "
            f"misses={self.misses} stores={self.stores} "
            f"evictions={self.evictions} hit-rate={self.hit_rate:.0%} "
            f"~{self.seconds_saved:.2f}s synthesis saved [{layers}]"
        )


class ByteBudgetLRU:
    """Entry- and byte-budgeted LRU map: the eviction core of the cache.

    Shared between :class:`PlanCache` (values are :class:`CachedPlan`,
    charged their exact array footprint) and the plan service's sharded
    cache (:mod:`repro.service.shards`, values are JSON-sized response
    bodies).  Every value is stored with its byte charge; inserting past
    either budget evicts oldest-first, but the entry just inserted always
    survives (a single over-budget value is still worth caching).

    Not thread-safe on its own — callers wrap access in their own lock,
    which lets them update their statistics atomically with the mutation.
    """

    def __init__(self, capacity: int, max_total_bytes: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.max_total_bytes = max_total_bytes
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self._total_bytes = 0

    def get(self, key: str):
        """The value under ``key`` (promoted to most-recent), else ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def peek_oldest(self) -> tuple[str, object] | None:
        """The eviction candidate (least-recently used), without promotion."""
        if not self._entries:
            return None
        key = next(iter(self._entries))
        return key, self._entries[key][0]

    def put(self, key: str, value, nbytes: int) -> list[tuple[str, object]]:
        """Insert ``value`` charged ``nbytes``; returns the evicted pairs."""
        old = self._entries.get(key)
        if old is not None:
            self._total_bytes -= old[1]
        self._entries[key] = (value, nbytes)
        self._entries.move_to_end(key)
        self._total_bytes += nbytes
        evicted: list[tuple[str, object]] = []
        while len(self._entries) > 1 and (
            len(self._entries) > self.capacity
            or self._total_bytes > self.max_total_bytes
        ):
            victim_key, (victim, victim_bytes) = self._entries.popitem(
                last=False)
            self._total_bytes -= victim_bytes
            evicted.append((victim_key, victim))
        return evicted

    def __len__(self) -> int:
        return len(self._entries)

    def total_bytes(self) -> int:
        """Sum of the byte charges of every held entry."""
        return self._total_bytes

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._total_bytes = 0


#: Distinguishes concurrent in-process writers of one disk entry: the pid
#: alone is not enough once several threads (or several PlanCache instances
#: sharing a directory, as the service shards and sweep workers do) store
#: the same key at once — a shared temp name interleaves two ``np.savez``
#: streams into one corrupt archive.
_tmp_counter = itertools.count()


class PlanCache:
    """Schedule and timing layers, each an LRU in memory, over one optional
    disk directory.

    A key's :attr:`PlanKey.layer` picks the layer :meth:`get` and
    :meth:`put` use.  Each layer has its own entry and byte budget
    (``capacity``, ``max_total_bytes``), so a sweep of ``capacity`` inits
    keeps both of its products warm.

    Thread-safe: the in-process layers and the statistics mutate only under
    an internal lock, and disk stores write to a uniquely named temp file
    (pid + thread + counter) before an atomic rename, so concurrent writers
    — threads of this process or unrelated processes sharing the directory
    — never expose a partial archive to readers.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        disk_dir: Path | str | None = None,
        max_total_bytes: int = DEFAULT_MAX_TOTAL_BYTES,
    ) -> None:
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._lrus = {name: ByteBudgetLRU(capacity, max_total_bytes)
                      for name in LAYERS}
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Entry budget of each in-process layer."""
        return self._lrus[LAYERS[0]].capacity

    @property
    def max_total_bytes(self) -> int:
        """Byte budget of each in-process layer."""
        return self._lrus[LAYERS[0]].max_total_bytes

    # ------------------------------------------------------------------ disk
    def _disk_path(self, key: PlanKey) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / key.filename()

    def _disk_load(self, key: PlanKey) -> CachedPlan | None:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            # allow_pickle=False: cache files can never execute code; a
            # schema or key mismatch (hash collision, stale writer) below is
            # treated as a miss, never an error.
            with np.load(path, allow_pickle=False) as payload:
                return _plan_from_payload(payload, key)
        except Exception:
            self.stats.disk_errors += 1
            return None

    def _disk_store(self, key: PlanKey, plan: CachedPlan) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(
                f".tmp{os.getpid()}-{threading.get_native_id()}"
                f"-{next(_tmp_counter)}"
            )
            with tmp.open("wb") as fh:
                np.savez(fh, **_plan_payload(key, plan))
            tmp.replace(path)  # atomic on POSIX: concurrent readers never
            # observe a partial archive
        except Exception:
            self.stats.disk_errors += 1

    # ------------------------------------------------------------------- api
    def get(self, key: PlanKey) -> CachedPlan | None:
        """Look up an entry in ``key``'s layer; promotes disk hits into
        memory."""
        with self._lock:
            stats = self.stats.layers[key.layer]
            stats.lookups += 1
            plan = self._lrus[key.layer].get(key.digest)
            if plan is not None:
                stats.memory_hits += 1
                self.stats.seconds_saved += plan.synthesis_seconds
                # Write-back: an entry warmed before the disk layer was
                # (re)pointed here still belongs in the shared directory.
                path = self._disk_path(key)
                if path is not None and not path.exists():
                    self._disk_store(key, plan)
                return plan
            plan = self._disk_load(key)
            if plan is not None:
                stats.disk_hits += 1
                self.stats.seconds_saved += plan.synthesis_seconds
                self._insert(key, plan)
                return plan
            stats.misses += 1
            return None

    def put(self, key: PlanKey, plan: CachedPlan) -> None:
        """Store a fresh entry in ``key``'s layer, in memory and on disk."""
        with self._lock:
            self.stats.layers[key.layer].stores += 1
            self._insert(key, plan)
            self._disk_store(key, plan)

    def _insert(self, key: PlanKey, plan: CachedPlan) -> None:
        evicted = self._lrus[key.layer].put(key.digest, plan,
                                            plan_nbytes(plan))
        self.stats.layers[key.layer].evictions += len(evicted)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(lru) for lru in self._lrus.values())

    def held(self, layer: str) -> tuple[int, int]:
        """``(entries, bytes)`` one in-process layer holds."""
        with self._lock:
            lru = self._lrus[layer]
            return len(lru), lru.total_bytes()

    def total_bytes(self) -> int:
        """Exact array bytes held by both in-process layers."""
        with self._lock:
            return sum(lru.total_bytes() for lru in self._lrus.values())

    def set_disk_dir(self, disk_dir: Path | str | None) -> None:
        """(Re)point the persistent layer without touching the warm LRUs.

        Used by the sweep engine so an already-warmed process-wide cache can
        start sharing plans through a given directory instead of being
        replaced (which would discard its plans and statistics).
        """
        with self._lock:
            self.disk_dir = Path(disk_dir) if disk_dir is not None else None

    def clear(self) -> None:
        """Drop both in-process layers (disk entries are kept)."""
        with self._lock:
            for lru in self._lrus.values():
                lru.clear()

    def clear_disk(self) -> int:
        """Delete every file of :meth:`disk_files`; returns the count."""
        removed = 0
        errors = 0
        for path in self.disk_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                errors += 1
        if errors:
            with self._lock:
                self.stats.disk_errors += errors
        return removed

    def _glob_disk(self, *patterns: str) -> list[Path]:
        if self.disk_dir is None or not self.disk_dir.exists():
            return []
        return sorted({p for pat in patterns for p in self.disk_dir.glob(pat)})

    def disk_entries(self) -> list[Path]:
        """Persisted entries of the *current* schema version, both layers:
        the only files a lookup can load."""
        return self._glob_disk(f"v{SCHEMA_VERSION}-*.npz")

    def disk_files(self) -> list[Path]:
        """Every file the persistent layer may have left: plans of *any*
        schema version, legacy ``.pkl`` archives from schema v1, and
        ``*.tmp<pid>`` leftovers from interrupted stores."""
        return self._glob_disk("v*-*.npz", "v*-*.pkl", "v*-*.tmp*")


# --------------------------------------------------------- process-wide cache
_default_cache: PlanCache | None = None
_default_lock = threading.Lock()

#: Sentinel for "caller did not say": configure() then honors the env vars.
_UNSET = object()


def _env_disk_dir() -> Path | None:
    mode = os.environ.get(ENV_CACHE_MODE, "").strip().lower()
    return default_disk_dir() if mode in ("disk", "1", "on") else None


def get_cache() -> PlanCache:
    """The process-wide cache ``Communicator.init`` consults by default."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = PlanCache(disk_dir=_env_disk_dir())
        return _default_cache


def configure(
    capacity: int = DEFAULT_CAPACITY,
    disk_dir: Path | str | None | object = _UNSET,
) -> PlanCache:
    """Replace the process-wide cache (e.g. to enable the disk layer).

    When ``disk_dir`` is not given, the ``REPRO_PLAN_CACHE`` environment
    configuration still applies — raising the capacity does not silently
    turn off a persistence layer the user enabled.  Pass ``disk_dir=None``
    explicitly to force a memory-only cache.
    """
    global _default_cache
    with _default_lock:
        resolved = _env_disk_dir() if disk_dir is _UNSET else disk_dir
        _default_cache = PlanCache(capacity=capacity, disk_dir=resolved)
        return _default_cache


def reset() -> None:
    """Forget the process-wide cache (next access rebuilds from the env)."""
    global _default_cache
    with _default_lock:
        _default_cache = None
