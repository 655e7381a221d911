"""Chrome-trace export of workload simulations (``chrome://tracing``).

:func:`workload_trace` replays a :class:`~repro.workloads.workload.Workload`
through :func:`~repro.simulator.engine.simulate_workload` and emits the
trace-event JSON format Chrome and Perfetto read natively:

* one *jobs* process (pid 0) with one thread per job, carrying a complete
  ``"X"`` (duration) event per op — name is the op's schedule tag;
* one *resources* process (pid 1) with one thread per machine resource
  (NIC injection ports, intra-node links, copy engines), carrying matched
  ``"B"``/``"E"`` pairs for every booking.  Resources are booked
  exclusively by the engine, so the per-thread intervals never overlap and
  the pairs nest trivially.

Timestamps are microseconds on the shared workload timeline.  The export
is deterministic (simulated time only, no clocks), and
:func:`validate_trace` checks the schema invariants the CI tests lock
down: per-track monotonic ``ts`` and matched ``ph`` begin/end pairs.
"""

from __future__ import annotations

#: pid of the per-job op track and the per-resource booking track.
JOBS_PID = 0
RESOURCES_PID = 1


def workload_trace(workload, engine: str = "auto") -> dict:
    """Simulate ``workload`` and export its timelines as a Chrome trace.

    Returns the trace document (a JSON-safe dict with a ``traceEvents``
    list) — callers serialize it with ``json.dump`` and load the file into
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    import numpy as np

    from ..simulator.engine import simulate_workload
    from ..simulator.timing import price_schedule_columns

    machine = workload.machine
    specs = workload.job_specs()
    timing = simulate_workload(specs, machine, engine=engine)

    resource_tids: dict[tuple, int] = {}
    for key in sorted(timing.resource_busy):
        resource_tids[key] = len(resource_tids)

    events: list[dict] = []
    meta: list[dict] = [
        {"ph": "M", "pid": JOBS_PID, "name": "process_name",
         "args": {"name": f"jobs: {workload.name}"}},
        {"ph": "M", "pid": RESOURCES_PID, "name": "process_name",
         "args": {"name": f"resources: {machine.name}"}},
    ]
    for key, tid in resource_tids.items():
        meta.append({"ph": "M", "pid": RESOURCES_PID, "tid": tid,
                     "name": "thread_name", "args": {"name": str(key)}})

    job_ops: dict[int, list] = {}
    bookings: dict[int, list] = {}
    for j, (spec, job) in enumerate(zip(specs, timing.jobs)):
        label = job.name or f"job{j}"
        meta.append({"ph": "M", "pid": JOBS_PID, "tid": j,
                     "name": "thread_name", "args": {"name": label}})
        cols = price_schedule_columns(spec.schedule, machine,
                                      spec.libraries, spec.elem_bytes)
        booked = cols.res_id.tolist()
        occupancy = (cols.overhead()[:, None] + cols.res_dur).tolist()
        tid_of = {rid: resource_tids.get(cols.resource_key(rid))
                  for rid in np.unique(cols.res_id[cols.res_id >= 0]).tolist()}
        ops = list(spec.schedule.ops)
        for uid, op in enumerate(ops):
            start = job.op_start_times[uid]
            finish = job.op_completion_times[uid]
            name = op.tag or f"op{uid}"
            job_ops.setdefault(j, []).append({
                "ph": "X", "pid": JOBS_PID, "tid": j,
                "ts": start * 1e6, "dur": (finish - start) * 1e6,
                "name": name,
                "args": {"job": label, "uid": uid, "src": op.src,
                         "dst": op.dst, "count": op.count},
            })
            for rid, busy in zip(booked[uid], occupancy[uid]):
                tid = tid_of.get(rid)  # None for an unused slot
                if tid is None:
                    continue
                bookings.setdefault(tid, []).append(
                    (start * 1e6, (start + busy) * 1e6,
                     f"{label}:{name}", label, uid))

    # Ops are generated in schedule (uid) order, which is not execution
    # order — sort each track chronologically before the global merge so
    # B/E pairs stay matched.  Resource intervals never overlap (the
    # engine books resources exclusively), so sorting a track's bookings
    # by (start, end) and emitting B then E per booking yields a valid
    # per-track stream; the global sort below is stable, preserving it.
    for j in sorted(job_ops):
        track = job_ops[j]
        track.sort(key=lambda e: e["ts"])
        events.extend(track)
    for tid in sorted(bookings):
        for start_us, end_us, slice_name, label, uid in sorted(bookings[tid]):
            events.append({
                "ph": "B", "pid": RESOURCES_PID, "tid": tid,
                "ts": start_us, "name": slice_name,
                "args": {"job": label, "uid": uid}})
            events.append({
                "ph": "E", "pid": RESOURCES_PID, "tid": tid,
                "ts": end_us, "name": slice_name})
    events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "workload": workload.name,
            "machine": machine.describe(),
            "engine": timing.engine,
            "makespan_seconds": timing.makespan,
        },
    }


def scenario_trace(name: str, machine, payload_bytes: int | None = None,
                   engine: str = "auto") -> dict:
    """Chrome trace of one registered workload scenario on ``machine``."""
    from ..workloads.scenarios import DEFAULT_PAYLOAD_BYTES, build_scenario

    if payload_bytes is None:
        payload_bytes = DEFAULT_PAYLOAD_BYTES
    workload = build_scenario(name, machine, payload_bytes)
    return workload_trace(workload, engine=engine)


def arrival_trace(name: str, machine, *, arrivals: int = 256,
                  rate: float | None = None, seed: int = 0,
                  payload_bytes: int | None = None) -> dict:
    """Chrome trace of one serving scenario's request stream.

    One *requests* process with a thread per request class; each served
    request is a complete ``"X"`` event spanning arrival to finish on the
    shared simulated timeline.  Driven through the streaming replay engine
    (:func:`repro.serving.run_serving_scenario`), whose latencies are
    bit-identical to the exact event engine — so the export is
    deterministic for fixed ``(seed, rate, arrivals)``.
    """
    from ..serving import run_serving_scenario
    from ..serving.scenarios import DEFAULT_PAYLOAD_BYTES

    if payload_bytes is None:
        payload_bytes = DEFAULT_PAYLOAD_BYTES
    result = run_serving_scenario(
        name, machine, arrivals=arrivals, rate=rate, seed=seed,
        payload_bytes=payload_bytes)
    class_tids = {s.name: tid for tid, s in enumerate(result.classes)}
    meta = [
        {"ph": "M", "pid": JOBS_PID, "name": "process_name",
         "args": {"name": f"requests: {name}"}},
    ]
    for klass, tid in class_tids.items():
        meta.append({"ph": "M", "pid": JOBS_PID, "tid": tid,
                     "name": "thread_name", "args": {"name": klass}})
    events = []
    for request in result.requests_detail:
        events.append({
            "ph": "X", "pid": JOBS_PID, "tid": class_tids[request["class"]],
            "ts": request["arrival"] * 1e6,
            "dur": request["latency"] * 1e6,
            "name": f"{request['class']}#{request['index']}",
            "args": {"index": request["index"],
                     "engine": request["engine"]},
        })
    events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "scenario": name,
            "machine": machine.describe(),
            "arrivals": result.arrivals,
            "p50_seconds": result.overall.p50,
            "p99_seconds": result.overall.p99,
        },
    }


def validate_trace(trace: dict) -> list:
    """Schema check: per-track monotonic ``ts`` and matched ``B``/``E`` pairs.

    Returns a list of problem strings (empty when the trace is valid).
    Walks ``traceEvents`` in order: within each ``(pid, tid)`` track the
    timestamps must be non-decreasing, every ``E`` must close the ``B`` of
    the same name, every ``B`` must eventually close, and ``X`` durations
    must be non-negative.
    """
    problems: list = []
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    last_ts: dict[tuple, float] = {}
    stacks: dict[tuple, list] = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            continue
        if ph not in ("B", "E", "X"):
            problems.append(f"event {i}: unexpected ph {ph!r}")
            continue
        track = (event.get("pid"), event.get("tid"))
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if ts < last_ts.get(track, 0.0):
            problems.append(
                f"event {i}: ts {ts} goes backwards on track {track}")
        last_ts[track] = ts
        if ph == "X":
            if not isinstance(event.get("dur"), (int, float)) \
                    or event["dur"] < 0:
                problems.append(f"event {i}: X without non-negative dur")
        elif ph == "B":
            stacks.setdefault(track, []).append(event.get("name"))
        else:  # "E"
            stack = stacks.get(track)
            if not stack:
                problems.append(f"event {i}: E without open B on {track}")
            elif stack[-1] != event.get("name"):
                problems.append(
                    f"event {i}: E {event.get('name')!r} closes "
                    f"B {stack[-1]!r} on {track}")
                stack.pop()
            else:
                stack.pop()
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: {len(stack)} unclosed B events")
    return problems
