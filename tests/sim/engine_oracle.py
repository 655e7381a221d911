"""Reference event loop over scalar-priced ``PricedOp`` objects.

The engine's loop runs over :class:`~repro.simulator.timing.PricedColumns`
with dense integer resource ids.  This module keeps the object form it
replaced, verbatim: every op priced by :func:`repro.simulator.timing.price_op`,
resources keyed by their tuples in plain dicts, and event-heap entries
``(time, kind, priority, payload)`` whose simultaneous resource frees pop
in resource-key tuple order.  ``tests/sim/test_engine_oracle.py`` asserts
the engine reproduces it bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.simulator.timing import PricedOp, price_op

#: Event kinds, ordered so resource-free events at time T are handled before
#: op-ready events at the same T.
_RES_FREED = 0
_OP_READY = 1

#: Virtual graph node (job entry/exit gate): occupies nothing, takes no time.
_VIRTUAL_OP = PricedOp((), 0.0, 0.0)


def compute_upward_ranks(priced: list[PricedOp],
                         dependents: list[list[int]]) -> list[float]:
    """Critical-path time from each op to the sink (HEFT-style urgency)."""
    upward = [0.0] * len(priced)
    for uid in range(len(priced) - 1, -1, -1):
        tail = max((upward[d] for d in dependents[uid]), default=0.0)
        upward[uid] = priced[uid].total_time + tail
    return upward


def run_graph(priced, dependents, indegree, ready_time):
    """The backfilling event loop over priced objects.

    Returns ``(start_times, completion_times, resource_busy, done_count)``.
    """
    n = len(priced)
    upward = compute_upward_ranks(priced, dependents)

    free_at: dict[tuple, float] = {}
    busy: dict[tuple, float] = {}
    start_times = [0.0] * n
    completion = [0.0] * n
    done = 0

    parked: dict[tuple, list[tuple[float, int]]] = {}
    events: list[tuple[float, int, float, object]] = [
        (ready_time[uid], _OP_READY, -upward[uid], uid)
        for uid in range(n)
        if indegree[uid] == 0
    ]
    heapq.heapify(events)

    def try_start(uid: int, now: float) -> bool:
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
            try_start(payload, now)
            continue
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
                if free_at.get(payload, 0.0) > now:
                    break
            else:
                heapq.heappush(
                    parked.setdefault(migrate_to, []), (-upward[uid], uid)
                )
                if migrate_to == payload:
                    break

    return start_times, completion, busy, done


def _graph_arrays(schedule):
    """Indegree and dependents lists from a schedule's CSR columns."""
    n = len(schedule)
    indegree = np.diff(schedule.dep_indptr).tolist()
    dependents: list[list[int]] = [[] for _ in range(n)]
    owners = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(schedule.dep_indptr)
    ).tolist()
    for dep, owner in zip(schedule.dep_indices.tolist(), owners):
        dependents[dep].append(owner)
    return indegree, dependents


def simulate(schedule, machine, libraries, elem_bytes):
    """``(start_times, completion_times, makespan, resource_busy)``."""
    n = len(schedule)
    priced = [price_op(op, machine, libraries, elem_bytes)
              for op in schedule.ops]
    indegree, dependents = _graph_arrays(schedule)
    start, completion, busy, done = run_graph(priced, dependents, indegree,
                                              [0.0] * n)
    assert done == n
    return start, completion, max(completion, default=0.0), busy


def simulate_workload(jobs, machine):
    """``(makespan, [(start, finish, op_starts, op_completions)], busy)``
    of :class:`~repro.simulator.engine.JobSpec` jobs on one timeline."""
    priced: list[PricedOp] = []
    dependents: list[list[int]] = []
    indegree: list[int] = []
    ready: list[float] = []

    def push(cost, deps, t0=0.0):
        uid = len(priced)
        priced.append(cost)
        dependents.append([])
        indegree.append(len(deps))
        ready.append(t0)
        for dep in deps:
            dependents[dep].append(uid)
        return uid

    gates: list[tuple[int, int]] = []
    spans: list[tuple[int, int]] = []
    for job in jobs:
        sched = job.schedule
        nops = len(sched)
        entry = push(_VIRTUAL_OP, tuple(gates[k][1] for k in job.after),
                     job.offset)
        base = len(priced)
        indptr = sched.dep_indptr.tolist()
        indices = sched.dep_indices.tolist()
        is_sink = [True] * nops
        for dep in indices:
            is_sink[dep] = False
        for uid, op in enumerate(sched.ops):
            deps = tuple(
                base + d for d in indices[indptr[uid]:indptr[uid + 1]]
            ) or (entry,)
            push(price_op(op, machine, job.libraries, job.elem_bytes), deps)
        sinks = [base + i for i, s in enumerate(is_sink) if s] or [entry]
        exit_ = push(_VIRTUAL_OP, tuple(sinks))
        gates.append((entry, exit_))
        spans.append((base, base + nops))

    start, completion, busy, done = run_graph(priced, dependents, indegree,
                                              ready)
    assert done == len(priced)
    jobs_out = [
        (start[entry], completion[exit_], start[lo:hi], completion[lo:hi])
        for (entry, exit_), (lo, hi) in zip(gates, spans)
    ]
    return max(finish for _, finish, _, _ in jobs_out), jobs_out, busy
