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

The scheduler is deterministic (ties broken by uid), so repeated measurement
rounds of a memoized schedule return identical times.

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

from ..core.schedule import Schedule
from ..errors import ExecutionError
from ..machine.faults import resource_rate
from ..machine.spec import MachineSpec
from ..transport.library import Library
from .level import (LEVEL_MIN_OPS, attempt_level, graph_leveling,
                    schedule_leveling)
from .timing import (PricedOp, columns_from_priced, price_schedule,
                     price_schedule_columns)

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

#: Event kinds, ordered so resource-free events at time T are handled before
#: op-ready events at the same T (freshly freed links are offered to parked
#: high-priority ops before newly-ready ones are considered).
_RES_FREED = 0
_OP_READY = 1


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


def compute_upward_ranks(priced: list[PricedOp], dependents: list[list[int]]) -> list[float]:
    """Critical-path time from each op to the sink (HEFT-style urgency)."""
    upward = [0.0] * len(priced)
    for uid in range(len(priced) - 1, -1, -1):
        tail = max((upward[d] for d in dependents[uid]), default=0.0)
        upward[uid] = priced[uid].total_time + tail
    return upward


def _run_graph(
    priced: list[PricedOp],
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

    Returns ``(start_times, completion_times, resource_busy, done_count)``;
    the caller is responsible for diagnosing ``done_count`` mismatches.
    """
    n = len(priced)
    upward = compute_upward_ranks(priced, dependents)

    free_at: dict[tuple, float] = {}
    busy: dict[tuple, float] = {}
    start_times = [0.0] * n
    completion = [0.0] * n
    done = 0

    # Parked ops per resource: the op is waiting for this resource to free.
    parked: dict[tuple, list[tuple[float, int]]] = {}
    # Global event heap: (time, kind, priority, payload).
    events: list[tuple[float, int, float, object]] = [
        (ready_time[uid], _OP_READY, -upward[uid], uid)
        for uid in range(n)
        if indegree[uid] == 0
    ]
    heapq.heapify(events)

    def try_start(uid: int, now: float) -> bool:
        """Book the op if all its resources are free; else park it."""
        nonlocal done
        cost = priced[uid]
        blocker = None
        blocker_free = now
        for key, _dur in cost.resources:
            t_free = free_at.get(key, 0.0)
            if t_free > now and t_free > blocker_free:
                blocker, blocker_free = key, t_free
        if blocker is not None:
            heapq.heappush(parked.setdefault(blocker, []), (-upward[uid], uid))
            return False
        finish = now + cost.alpha + cost.transfer_time + cost.gamma
        for key, dur in cost.resources:
            occupied = cost.overhead + dur
            free_at[key] = now + occupied
            busy[key] = busy.get(key, 0.0) + occupied
            heapq.heappush(events, (now + occupied, _RES_FREED, 0.0, key))
        start_times[uid] = now
        completion[uid] = finish
        done += 1
        for nxt in dependents[uid]:
            ready_time[nxt] = max(ready_time[nxt], finish)
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(
                    events, (ready_time[nxt], _OP_READY, -upward[nxt], nxt)
                )
        return True

    while events:
        now, kind, _prio, payload = heapq.heappop(events)
        if kind == _OP_READY:
            try_start(payload, now)  # parks itself if blocked
            continue
        # A resource freed: offer it (and anything else now free) to parked
        # ops in priority order until it is busy again or the queue empties.
        queue = parked.get(payload)
        while queue:
            _neg, uid = queue[0]
            cost = priced[uid]
            startable = True
            migrate_to = None
            migrate_free = now
            for key, _dur in cost.resources:
                t_free = free_at.get(key, 0.0)
                if t_free > now:
                    startable = False
                    if t_free > migrate_free:
                        migrate_to, migrate_free = key, t_free
            heapq.heappop(queue)
            if startable:
                try_start(uid, now)
                # The booking re-busied this resource; further parked ops
                # must wait for its next free event.
                if free_at.get(payload, 0.0) > now:
                    break
            else:
                # Blocked on a different resource now; migrate the parking.
                heapq.heappush(
                    parked.setdefault(migrate_to, []), (-upward[uid], uid)
                )
                if migrate_to == payload:
                    break  # it re-parked here; this resource is busy again

    return start_times, completion, busy, done


def _graph_arrays(schedule: Schedule) -> tuple[list[int], list[list[int]]]:
    """Indegree and dependents arrays from a schedule's CSR columns."""
    n = len(schedule)
    indegree = np.diff(schedule.dep_indptr).tolist()
    dependents: list[list[int]] = [[] for _ in range(n)]
    owners = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(schedule.dep_indptr)
    ).tolist()
    for dep, owner in zip(schedule.dep_indices.tolist(), owners):
        dependents[dep].append(owner)
    return indegree, dependents


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

    if engine == "level" or (engine == "auto" and n >= LEVEL_MIN_OPS):
        cols = price_schedule_columns(schedule, machine, libraries, elem_bytes)
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

    priced: list[PricedOp] = price_schedule(schedule, machine, libraries,
                                            elem_bytes)
    indegree, dependents = _graph_arrays(schedule)
    start_times, completion, busy, done = _run_graph(
        priced, dependents, indegree, [0.0] * n
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
#: Virtual graph node (job entry/exit gate): occupies nothing, takes no time.
_VIRTUAL_OP = PricedOp((), 0.0, 0.0)


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

    priced: list[PricedOp] = []
    dep_rows: list[tuple] = []
    dependents: list[list[int]] = []
    indegree: list[int] = []
    ready: list[float] = []

    def push(cost: PricedOp, deps, t0: float = 0.0) -> int:
        uid = len(priced)
        priced.append(cost)
        dep_rows.append(deps)
        dependents.append([])
        indegree.append(len(deps))
        ready.append(t0)
        for dep in deps:
            dependents[dep].append(uid)
        return uid

    entry_idx: list[int] = []
    exit_idx: list[int] = []
    spans: list[tuple[int, int]] = []
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
        entry = push(
            _VIRTUAL_OP, tuple(exit_idx[k] for k in job.after), job.offset
        )
        base = len(priced)
        job_priced = price_schedule(sched, machine, job.libraries,
                                    job.elem_bytes)
        indptr = sched.dep_indptr.tolist()
        indices = sched.dep_indices.tolist()
        is_sink = [True] * nops
        for dep in indices:
            is_sink[dep] = False
        for uid in range(nops):
            deps = tuple(
                base + d for d in indices[indptr[uid]:indptr[uid + 1]]
            ) or (entry,)
            push(job_priced[uid], deps)
        sinks = [base + i for i, s in enumerate(is_sink) if s] or [entry]
        exit_ = push(_VIRTUAL_OP, tuple(sinks))
        entry_idx.append(entry)
        exit_idx.append(exit_)
        spans.append((base, base + nops))

    engine_used = "event"
    solved = None
    if engine == "level" or (engine == "auto" and len(priced) >= LEVEL_MIN_OPS):
        cols = columns_from_priced(priced)
        if cols is not None:
            indptr, indices, leveling = graph_leveling(dep_rows, len(priced))
            if leveling is not None:
                solved = attempt_level(cols, indptr, indices, leveling,
                                       ready=np.asarray(ready))
    if solved is not None:
        start_a, completion_a, busy = solved
        start = start_a.tolist()
        completion = completion_a.tolist()
        engine_used = "level"
    else:
        start, completion, busy, done = _run_graph(
            priced, dependents, indegree, ready
        )
        if done != len(priced):
            raise ExecutionError(
                f"dependency deadlock: only {done}/{len(priced)} workload "
                "nodes executed"
            )

    timings = []
    for j, job in enumerate(jobs):
        lo, hi = spans[j]
        timings.append(JobTiming(
            name=job.name or f"job{j}",
            start=start[entry_idx[j]],
            finish=completion[exit_idx[j]],
            op_start_times=start[lo:hi],
            op_completion_times=completion[lo:hi],
        ))
    return WorkloadTimingResult(
        makespan=max(t.finish for t in timings),
        jobs=timings,
        resource_busy=busy,
        engine=engine_used,
    )
