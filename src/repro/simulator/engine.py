"""Discrete-event engine: prices schedules on a machine model.

An event-driven priority list scheduler over the op dependency graph.  Each
op becomes *ready* when all of its dependencies complete; it *starts* when
every resource it occupies is free, holds each resource for that resource's
own duration (NICs at wire rate, endpoints at flow rate — see
:mod:`repro.simulator.timing`), and *completes* after latency + transfer +
reduction-kernel time.  The makespan of the graph is the simulated elapsed
time of the collective, matching the paper's measurement definition: "the
elapsed time from a global synchronization to the moment that the
communication buffers on all GPUs are safe to be reused" (Section 6.2).

Scheduling discipline: among ops that are ready at the same instant, the one
with the longest remaining dependency chain (upward rank) wins the resources;
ops that cannot start are *parked* on the resource currently blocking them
and are reconsidered the moment it frees.  This gives proper backfilling —
an idle link is never held hostage by a blocked higher-priority op — while
every wake-up is O(1) amortized, so large schedules (hundreds of thousands
of ops) price in seconds.

The scheduler is deterministic — equal upward ranks break ties by uid, and
resources freeing at the same instant are offered in resource-key tuple
order — so repeated measurement rounds of a memoized schedule return
identical times.  The loop runs over one
:class:`~repro.simulator.timing.PricedColumns` (each op priced once, resources
renumbered to dense ints in key order) rather than per-op objects.

Two entry points share one event loop:

* :func:`simulate` prices a single :class:`~repro.core.schedule.Schedule` on
  an otherwise idle machine — the paper's setting of one collective at a
  time;
* :func:`simulate_workload` prices *several* schedules (a list of
  :class:`JobSpec`, each with a launch offset and optional dependencies on
  earlier jobs) against **one shared set** of NIC/link/copy-engine resource
  timelines, so concurrent collectives contend for the wires exactly as
  concurrent ML-job traffic does.  See DESIGN.md Section 7 for the workload
  contract built on top of it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..core.schedule import Schedule, dependents_csr
from ..errors import ExecutionError
from ..machine.faults import resource_rate
from ..machine.spec import MachineSpec
from ..transport.library import Library
from .level import (LEVEL_MIN_OPS, attempt_level, graph_leveling,
                    schedule_leveling)
from .timing import PricedColumns, ResourceKey, price_schedule_columns

#: Engine selectors accepted by :func:`simulate` / :func:`simulate_workload`.
#: ``auto`` tries the levelized fast path on graphs worth the setup and
#: falls back transparently; ``level`` always attempts it (still falling
#: back when the certificate fails); ``event`` never tries.
ENGINES = ("auto", "event", "level")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ExecutionError(
            f"unknown engine {engine!r}; choose one of {ENGINES}"
        )

def rank_resources(by_resource: dict[tuple, float], n: int) -> list[tuple[tuple, float]]:
    """The ``n`` highest-valued resources of an occupancy map, busiest first.

    Ties break on the stringified resource key, so every report surface
    (timing results, workload results) ranks identically and renders
    deterministically.
    """
    return sorted(by_resource.items(), key=lambda kv: (-kv[1], str(kv[0])))[:n]


def busy_gigabytes(resource_busy: dict[tuple, float],
                   machine: MachineSpec) -> dict[tuple, float]:
    """Convert per-resource busy totals (seconds) into serialized GB.

    Each busy total converts at that resource's *own* rated bandwidth via
    :func:`repro.machine.faults.resource_rate` — never at the machine's
    uniform healthy NIC rate.  On a degraded machine a derated NIC is busy
    *longer* for the same traffic, so pricing its timeline at the uniform
    rate would overstate its throughput by exactly the derate factor; with
    the per-resource rate the wire portion of the traffic summarizes
    identically on healthy and degraded machines.  Busy totals also include
    the per-message alpha occupancy (which converts at the — possibly
    derated — rate), so the figure slightly overstates pure payload bytes
    for latency-bound resources.
    """
    return {
        key: busy * resource_rate(machine, key)
        for key, busy in resource_busy.items()
    }


@dataclass
class TimingResult:
    """Outcome of simulating one schedule."""

    elapsed: float  # makespan in seconds
    start_times: list[float]
    completion_times: list[float]
    resource_busy: dict[tuple, float]  # per-resource total occupancy
    engine: str = "event"  # which engine produced the numbers

    def throughput(self, payload_bytes: float) -> float:
        """GB/s given the collective's payload definition (Section 6.2)."""
        if self.elapsed <= 0:
            return float("inf")
        return payload_bytes / 1.0e9 / self.elapsed

    def busiest_resources(self, n: int = 8) -> list[tuple[tuple, float]]:
        """The ``n`` resources with the highest total occupancy, busiest first."""
        return rank_resources(self.resource_busy, n)

    def moved_gigabytes(self, machine: MachineSpec) -> dict[tuple, float]:
        """Serialized GB per resource at its own (possibly derated) rate."""
        return busy_gigabytes(self.resource_busy, machine)


def _resource_slots(cols: PricedColumns
                    ) -> tuple[list[ResourceKey], np.ndarray, list, list]:
    """Dense resource ids and per-op booking tuples of one priced graph.

    Ids are ranks in sorted resource-key tuple order, so simultaneous
    resource-free events pop in key order whatever encoding ``cols`` uses.
    Returns ``(keys, dense, rids, occs)``: ``keys[r]`` is the tuple key of
    id ``r``, ``dense`` the ``(n, s)`` id grid (``-1`` in unused slots), and
    ``rids[uid]``/``occs[uid]`` tuples of the op's ids and occupancies
    (``overhead + dur``) in slot order.
    """
    valid = cols.res_id >= 0
    ids, inverse = np.unique(cols.res_id[valid], return_inverse=True)
    found = [cols.resource_key(r) for r in ids.tolist()]
    order = sorted(range(len(found)), key=found.__getitem__)
    rank = np.empty(len(found), dtype=np.int64)
    rank[order] = np.arange(len(found), dtype=np.int64)
    dense = np.full(cols.res_id.shape, -1, dtype=np.int64)
    dense[valid] = rank[inverse]
    occ = cols.overhead()[:, None] + cols.res_dur

    n = len(cols)
    rids: list = [()] * n
    occs: list = [()] * n
    width = valid.sum(axis=1)
    for w in np.unique(width).tolist():
        if not w:
            continue  # gates book nothing
        rows = np.flatnonzero(width == w)
        for uid, r, o in zip(rows.tolist(),
                             zip(*dense[rows, :w].T.tolist()),
                             zip(*occ[rows, :w].T.tolist())):
            rids[uid] = r
            occs[uid] = o
    return [found[i] for i in order], dense, rids, occs


def _upward_ranks(total: list[float], dependents: list[list[int]]
                  ) -> list[float]:
    """Critical-path time from each op to the sink (HEFT-style urgency).

    ``total[uid]`` is the op's ``(alpha + transfer) + gamma``; dependents
    always carry larger uids, so one reverse sweep settles every rank.
    """
    upward = list(total)
    for uid in range(len(total) - 1, -1, -1):
        nxt = dependents[uid]
        if nxt:
            upward[uid] = total[uid] + max([upward[d] for d in nxt])
    return upward


def _run_graph(
    cols: PricedColumns,
    dependents: list[list[int]],
    indegree: list[int],
    ready_time: list[float],
) -> tuple[list[float], list[float], dict[tuple, float], int]:
    """Run the backfilling event loop over one priced dependency graph.

    ``ready_time[uid]`` seeds the earliest instant each initially-ready op
    (indegree zero) may start — :func:`simulate` passes all zeros, while
    :func:`simulate_workload` uses it to realize per-job launch offsets.
    The arrays are shared state between both public entry points; mutating
    ``indegree``/``ready_time`` in place is intentional.

    Returns ``(start_times, completion_times, resource_busy, done_count)``
    with ``resource_busy`` keyed by resource tuple in first-booking order;
    the caller is responsible for diagnosing ``done_count`` mismatches.
    """
    n = len(cols)
    keys, dense, rids, occs = _resource_slots(cols)
    transfer_a = cols.transfer_time()
    upward = _upward_ranks(
        ((cols.alpha + transfer_a) + cols.gamma).tolist(), dependents)
    alpha = cols.alpha.tolist()
    transfer = transfer_a.tolist()
    gamma = cols.gamma.tolist()
    # Op priorities as ints: rank in (-upward, uid) order, so longer
    # remaining chains win and equal ranks break ties by uid.
    by_prio_a = np.lexsort((np.arange(n), -np.asarray(upward)))
    prio_a = np.empty(n, dtype=np.int64)
    prio_a[by_prio_a] = np.arange(n)
    by_prio = by_prio_a.tolist()

    nres = len(keys)
    free_at = [0.0] * nres
    busy = [0.0] * nres
    # Parked ops per resource (priorities): each waits for it to free.
    parked: list[list[int]] = [[] for _ in keys]
    start_times = [0.0] * n
    completion = [0.0] * n
    booked: list[int] = []  # uids in booking order
    # Global event heap of (time, code): a code below ``nres`` is that
    # resource freeing, ``nres + prio`` that op becoming ready.  Frees at
    # one instant therefore pop before readies, in resource-key order
    # (freshly freed links are offered to parked high-priority ops before
    # newly-ready ones are considered), and readies in priority order.
    ready_code = (prio_a + nres).tolist()
    events: list[tuple[float, int]] = [
        (ready_time[uid], ready_code[uid])
        for uid in range(n)
        if indegree[uid] == 0
    ]
    heapq.heapify(events)
    push = heapq.heappush
    pop = heapq.heappop

    def book(uid: int, now: float) -> None:
        """Start the op now: occupy its resources, release its dependents."""
        for r, occupied in zip(rids[uid], occs[uid]):
            t = now + occupied
            free_at[r] = t
            busy[r] += occupied
            push(events, (t, r))
        finish = ((now + alpha[uid]) + transfer[uid]) + gamma[uid]
        start_times[uid] = now
        completion[uid] = finish
        booked.append(uid)
        for nxt in dependents[uid]:
            if finish > ready_time[nxt]:
                ready_time[nxt] = finish
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                push(events, (ready_time[nxt], ready_code[nxt]))

    while events:
        now, code = pop(events)
        if code >= nres:
            # An op became ready: book it if all its resources are free,
            # else park it on the resource that frees last.
            p = code - nres
            uid = by_prio[p]
            blocker = -1
            blocker_free = now
            for r in rids[uid]:
                t_free = free_at[r]
                if t_free > blocker_free:
                    blocker, blocker_free = r, t_free
            if blocker < 0:
                book(uid, now)
            else:
                push(parked[blocker], p)
            continue
        # A resource freed: offer it (and anything else now free) to parked
        # ops in priority order until it is busy again or the queue empties.
        queue = parked[code]
        while queue:
            p = pop(queue)
            uid = by_prio[p]
            migrate_to = -1
            migrate_free = now
            for r in rids[uid]:
                t_free = free_at[r]
                if t_free > migrate_free:
                    migrate_to, migrate_free = r, t_free
            if migrate_to < 0:
                book(uid, now)
                # The booking re-busied this resource; further parked ops
                # must wait for its next free event.
                if free_at[code] > now:
                    break
            else:
                # Blocked on a different resource now; migrate the parking.
                push(parked[migrate_to], p)
                if migrate_to == code:
                    break  # it re-parked here; this resource is busy again

    # Insert busy totals in first-booking order, as a dict built during
    # the loop would have: resources of each booked op in slot order.
    flat = dense[np.asarray(booked, dtype=np.int64)].reshape(-1)
    flat = flat[flat >= 0]
    _, first = np.unique(flat, return_index=True)
    busy_by_key = {keys[r]: busy[r] for r in flat[np.sort(first)].tolist()}
    return start_times, completion, busy_by_key, len(booked)


def _dependents(dep_indptr: np.ndarray, dep_indices: np.ndarray
                ) -> tuple[list[int], list[list[int]]]:
    """Indegree and dependents lists of a backward-dependency CSR."""
    indptr, indices = dependents_csr(dep_indptr, dep_indices)
    fwd = indices.tolist()
    b = indptr.tolist()
    return (np.diff(dep_indptr).tolist(),
            [fwd[b[u]:b[u + 1]] for u in range(len(b) - 1)])


def simulate(
    schedule: Schedule,
    machine: MachineSpec,
    libraries: tuple[Library, ...],
    elem_bytes: int,
    engine: str = "auto",
) -> TimingResult:
    """Simulate ``schedule`` on an idle machine; per-op timing + makespan.

    ``engine`` selects the implementation, never the answer: the levelized
    fast path only returns when its no-contention certificate proves the
    event loop would produce bit-identical times (see
    :mod:`repro.simulator.level`), so all three selectors yield the same
    numbers.  Check ``TimingResult.engine`` for which path actually ran.
    """
    _check_engine(engine)
    n = len(schedule)
    if not n:
        return TimingResult(0.0, [], [], {})

    cols = price_schedule_columns(schedule, machine, libraries, elem_bytes)
    if engine == "level" or (engine == "auto" and n >= LEVEL_MIN_OPS):
        solved = attempt_level(cols, schedule.dep_indptr, schedule.dep_indices,
                               schedule_leveling(schedule))
        if solved is not None:
            start, comp, busy = solved
            return TimingResult(
                elapsed=float(comp.max()),
                start_times=start.tolist(),
                completion_times=comp.tolist(),
                resource_busy=busy,
                engine="level",
            )

    return event_timing(schedule, cols)


def event_timing(schedule: Schedule, cols: PricedColumns) -> TimingResult:
    """Event-loop timing of a nonempty ``schedule`` from its priced columns.

    The event path of :func:`simulate`, for callers that already hold
    ``price_schedule_columns(schedule, ...)`` for other uses (the serving
    template compiler builds its booking tables from them), so no op is
    priced twice.
    """
    n = len(schedule)
    indegree, dependents = _dependents(schedule.dep_indptr,
                                       schedule.dep_indices)
    start_times, completion, busy, done = _run_graph(
        cols, dependents, indegree, [0.0] * n
    )
    if done != n:
        raise ExecutionError(
            f"dependency deadlock: only {done}/{n} ops executed"
        )

    return TimingResult(
        elapsed=max(completion),
        start_times=start_times,
        completion_times=completion,
        resource_busy=busy,
    )


# ------------------------------------------------------- concurrent workloads
#: Virtual graph node (job entry/exit gate): an empty-slot row of the
#: merged columns, which occupies nothing and takes no time.
_GATE = PricedColumns(alpha=np.zeros(1), gamma=np.zeros(1),
                      res_id=np.full((1, 4), -1, dtype=np.int64),
                      res_dur=np.zeros((1, 4)))


@dataclass(frozen=True)
class JobSpec:
    """One schedule entering a shared-timeline workload simulation.

    ``schedule`` must be expressed in the machine's global rank space (a
    :class:`~repro.core.communicator.SubCommunicator` provides this via its
    ``global_schedule``).  ``offset`` delays the job's launch by simulated
    seconds; ``after`` lists indices of *earlier* jobs in the workload that
    must fully complete before this one may start (launch offsets and job
    dependencies combine: the job starts at the later of the two).
    """

    schedule: Schedule
    libraries: tuple[Library, ...]
    elem_bytes: int = 4
    offset: float = 0.0
    after: tuple[int, ...] = ()
    name: str = ""


@dataclass
class JobTiming:
    """Realized window of one job inside a workload simulation.

    ``start`` is the instant the job's gate opened (its launch offset and
    every ``after`` dependency satisfied); ``finish`` is the completion of
    its last op.  ``op_start_times``/``op_completion_times`` are indexed by
    the job schedule's op uids and carry *absolute* workload-timeline
    instants, so trace tooling can join them with the schedule directly.
    """

    name: str
    start: float
    finish: float
    op_start_times: list[float] = field(repr=False, default_factory=list)
    op_completion_times: list[float] = field(repr=False, default_factory=list)

    @property
    def elapsed(self) -> float:
        """Seconds from gate-open to last-op completion (contended duration)."""
        return self.finish - self.start


@dataclass
class WorkloadTimingResult:
    """Outcome of simulating several schedules on one shared machine timeline."""

    makespan: float
    jobs: list[JobTiming]
    resource_busy: dict[tuple, float]
    engine: str = "event"  # which engine produced the numbers

    def utilization(self) -> dict[tuple, float]:
        """Busy fraction of the workload makespan per machine resource."""
        if self.makespan <= 0:
            return {}
        return {k: b / self.makespan for k, b in self.resource_busy.items()}

    def busiest_resources(self, n: int = 8) -> list[tuple[tuple, float]]:
        """The ``n`` resources with the highest total occupancy, busiest first."""
        return rank_resources(self.resource_busy, n)

    def moved_gigabytes(self, machine: MachineSpec) -> dict[tuple, float]:
        """Serialized GB per resource at its own (possibly derated) rate."""
        return busy_gigabytes(self.resource_busy, machine)


def simulate_workload(jobs, machine: MachineSpec,
                      engine: str = "auto") -> WorkloadTimingResult:
    """Price several schedules against one shared set of resource timelines.

    Unlike mapping :func:`simulate` over the jobs — where each schedule
    assumes an idle machine — every op of every job here books the *same*
    NIC/link/copy-engine timelines, so concurrent jobs slow each other down
    exactly as far as they share resources, and not at all when they are
    disjoint.  Within the merged graph the scheduling discipline (upward-rank
    priority, backfilling, deterministic ties) is unchanged; a workload with
    a single zero-offset job therefore reproduces :func:`simulate` exactly.

    Each job contributes two zero-cost virtual graph nodes: an *entry* gate
    (ready at ``offset``, and dependent on the exit gates of every job named
    in ``after``) feeding the job's root ops, and an *exit* gate joining its
    sink ops.  ``after`` may only reference earlier list positions, which
    keeps the merged graph topologically ordered by construction.

    Returns a :class:`WorkloadTimingResult`; per-job contended durations are
    in its ``jobs`` list, in input order.  ``engine`` follows the
    :func:`simulate` contract: the levelized path only answers when its
    certificate proves bit-identity with the event loop.
    """
    _check_engine(engine)
    jobs = list(jobs)
    if not jobs:
        return WorkloadTimingResult(0.0, [], {})

    blocks: list[PricedColumns] = []
    dep_counts: list[np.ndarray] = []
    dep_lists: list[np.ndarray] = []
    ready: list[float] = []
    entry_idx: list[int] = []
    exit_idx: list[int] = []
    for j, job in enumerate(jobs):
        label = job.name or f"job{j}"
        if job.offset < 0:
            raise ExecutionError(f"job {label!r}: launch offset must be >= 0")
        for k in job.after:
            if not 0 <= k < j:
                raise ExecutionError(
                    f"job {label!r} (index {j}) can only depend on earlier "
                    f"jobs, got after={tuple(job.after)}"
                )
        if job.schedule.world_size != machine.world_size:
            raise ExecutionError(
                f"job {label!r}: schedule spans {job.schedule.world_size} "
                f"ranks but {machine.name} has {machine.world_size}; embed "
                "group schedules into machine rank space first"
            )
        sched = job.schedule
        nops = len(sched)
        entry = len(ready)
        base = entry + 1
        # Entry gate: waits on the exit gates of the jobs named in `after`.
        dep_counts.append(np.array([len(job.after)]))
        dep_lists.append(np.array([exit_idx[k] for k in job.after],
                                  dtype=np.int64))
        # Job ops: their own deps shifted by `base`; roots wait on the entry.
        counts = np.diff(sched.dep_indptr)
        roots = counts == 0
        dep_counts.append(np.where(roots, 1, counts))
        dep_lists.append(np.insert(
            sched.dep_indices.astype(np.int64) + base,
            sched.dep_indptr[:-1][roots], entry))
        # Exit gate: joins the job's sinks (the entry, for an empty job).
        sinks = np.flatnonzero(
            np.bincount(sched.dep_indices, minlength=nops) == 0) + base
        if not sinks.size:
            sinks = np.array([entry])
        dep_counts.append(np.array([sinks.size]))
        dep_lists.append(sinks)
        blocks += [_GATE, price_schedule_columns(sched, machine, job.libraries,
                                                 job.elem_bytes), _GATE]
        ready += [job.offset] + [0.0] * (nops + 1)
        entry_idx.append(entry)
        exit_idx.append(base + nops)

    cols = PricedColumns(
        alpha=np.concatenate([b.alpha for b in blocks]),
        gamma=np.concatenate([b.gamma for b in blocks]),
        res_id=np.concatenate([b.res_id for b in blocks]),
        res_dur=np.concatenate([b.res_dur for b in blocks]),
    )
    nodes = len(ready)
    dep_indptr = np.zeros(nodes + 1, dtype=np.int64)
    np.cumsum(np.concatenate(dep_counts), out=dep_indptr[1:])
    dep_indices = np.concatenate(dep_lists)

    engine_used = "event"
    solved = None
    if engine == "level" or (engine == "auto" and nodes >= LEVEL_MIN_OPS):
        leveling = graph_leveling(dep_indptr, dep_indices)
        if leveling is not None:
            solved = attempt_level(cols, dep_indptr, dep_indices, leveling,
                                   ready=np.asarray(ready))
    if solved is not None:
        start_a, completion_a, busy = solved
        start = start_a.tolist()
        completion = completion_a.tolist()
        engine_used = "level"
    else:
        indegree, dependents = _dependents(dep_indptr, dep_indices)
        start, completion, busy, done = _run_graph(
            cols, dependents, indegree, ready
        )
        if done != nodes:
            raise ExecutionError(
                f"dependency deadlock: only {done}/{nodes} workload "
                "nodes executed"
            )

    timings = [
        JobTiming(
            name=job.name or f"job{j}",
            start=start[entry],
            finish=completion[exit_],
            op_start_times=start[entry + 1:exit_],
            op_completion_times=completion[entry + 1:exit_],
        )
        for j, (job, entry, exit_) in enumerate(zip(jobs, entry_idx, exit_idx))
    ]
    return WorkloadTimingResult(
        makespan=max(t.finish for t in timings),
        jobs=timings,
        resource_busy=busy,
        engine=engine_used,
    )
