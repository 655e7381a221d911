"""Execution traces: per-op timelines and resource utilization.

The event engine already computes start/completion times for every op; this
module turns them into artifacts a performance engineer would actually use:

* :func:`build_trace` — per-op records joined with schedule metadata;
* :func:`resource_timeline` — busy intervals per NIC/link (the raw material
  of Figure 7's top half);
* :func:`ascii_gantt` — a terminal Gantt chart of the pipeline, stages as
  glyphs, one row per resource or rank (how the Figure 7 pipelines were
  eyeballed during development);
* :func:`chrome_trace` — Chrome ``about://tracing`` / Perfetto JSON export;
* :func:`utilization_report` — fraction of the makespan each resource is
  busy, separating "the NIC was the bottleneck" from "the schedule stalled".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..core.schedule import Schedule
from ..machine.spec import MachineSpec
from ..transport.library import Library
from .engine import TimingResult, rank_resources
from .timing import price_schedule_columns


@dataclass(frozen=True)
class TraceEvent:
    """One op's realized execution window."""

    uid: int
    name: str  # tag of the emitting transform ("mc-hop", "stripe-scatter"...)
    src: int
    dst: int
    count: int
    channel: int
    stage: int
    start: float
    finish: float
    resources: tuple[tuple, ...]

    @property
    def duration(self) -> float:
        """Realized wall-clock seconds between start and finish."""
        return self.finish - self.start


def build_trace(schedule: Schedule, timing: TimingResult, machine: MachineSpec,
                libraries: tuple[Library, ...], elem_bytes: int = 4
                ) -> list[TraceEvent]:
    """Join the schedule with the engine's realized times."""
    cols = price_schedule_columns(schedule, machine, libraries, elem_bytes)
    keys = {rid: cols.resource_key(rid)
            for rid in np.unique(cols.res_id[cols.res_id >= 0]).tolist()}
    events = []
    for op, row in zip(schedule.ops, cols.res_id.tolist()):
        events.append(TraceEvent(
            uid=op.uid,
            name=op.tag or ("copy" if op.is_local else "p2p"),
            src=op.src,
            dst=op.dst,
            count=op.count,
            channel=op.channel,
            stage=op.stage,
            start=timing.start_times[op.uid],
            finish=timing.completion_times[op.uid],
            resources=tuple(keys[rid] for rid in row if rid >= 0),
        ))
    return events


def resource_timeline(events: list[TraceEvent]) -> dict[tuple, list[TraceEvent]]:
    """Events grouped by the resources they occupied, start-ordered."""
    out: dict[tuple, list[TraceEvent]] = {}
    for ev in events:
        for key in ev.resources:
            out.setdefault(key, []).append(ev)
    for key in out:
        out[key].sort(key=lambda e: (e.start, e.uid))
    return out


#: Stage glyphs for the Gantt chart, cycling past nine stages.
_STAGE_GLYPHS = "0123456789"


def ascii_gantt(events: list[TraceEvent], *, width: int = 72,
                by: str = "rank", max_rows: int = 32) -> str:
    """Terminal Gantt chart: time on x, ranks (or resources) on y.

    Each cell shows the *stage* of the op active in that time slice, which
    makes the warm-up / steady-state / wind-down phases of a pipeline
    (Figure 7, m=5) directly visible.
    """
    if not events:
        return "(empty trace)"
    makespan = max(ev.finish for ev in events)
    if makespan <= 0:
        return "(zero-length trace)"

    rows: dict[object, list[TraceEvent]] = {}
    if by == "rank":
        for ev in events:
            rows.setdefault(ev.src, []).append(ev)
    elif by == "resource":
        rows = dict(resource_timeline(events))
    else:
        raise ValueError(f"by must be 'rank' or 'resource', got {by!r}")

    lines = [f"time 0 .. {makespan * 1e3:.3f} ms ({width} cols); digits = stage"]
    for key in sorted(rows, key=str)[:max_rows]:
        cells = [" "] * width
        for ev in rows[key]:
            lo = min(width - 1, int(ev.start / makespan * width))
            hi = min(width, max(lo + 1, int(ev.finish / makespan * width)))
            glyph = _STAGE_GLYPHS[ev.stage % len(_STAGE_GLYPHS)]
            for i in range(lo, hi):
                cells[i] = glyph
        label = str(key)
        lines.append(f"{label:>14s} |{''.join(cells)}|")
    if len(rows) > max_rows:
        lines.append(f"... ({len(rows) - max_rows} more rows)")
    return "\n".join(lines)


def chrome_trace(events: list[TraceEvent]) -> str:
    """Chrome tracing / Perfetto JSON (one row per sending rank)."""
    records = []
    for ev in events:
        records.append({
            "name": f"{ev.name} ch{ev.channel} st{ev.stage}",
            "cat": ev.name,
            "ph": "X",
            "ts": ev.start * 1e6,  # microseconds
            "dur": max(ev.duration, 1e-9) * 1e6,
            "pid": 0,
            "tid": ev.src,
            "args": {
                "uid": ev.uid,
                "src": ev.src,
                "dst": ev.dst,
                "elements": ev.count,
                "stage": ev.stage,
                "channel": ev.channel,
            },
        })
    return json.dumps({"traceEvents": records}, indent=None)


@dataclass(frozen=True)
class UtilizationReport:
    """Busy fractions per resource over the makespan."""

    makespan: float
    busy_fraction: dict[tuple, float]
    engine: str = "event"

    def bottlenecks(self, n: int = 5) -> list[tuple[tuple, float]]:
        """The ``n`` busiest resources, highest busy-fraction first.

        Equal fractions rank by resource key (:func:`rank_resources`), so
        the report does not depend on which engine filled the dict.
        """
        return rank_resources(self.busy_fraction, n)

    def render(self, n: int = 10) -> str:
        """Text report: makespan plus the ``n`` busiest resources."""
        lines = [f"makespan {self.makespan * 1e3:.3f} ms "
                 f"({self.engine} engine); busiest resources:"]
        for key, frac in self.bottlenecks(n):
            bar = "#" * int(frac * 40)
            lines.append(f"  {str(key):>22s} {frac:6.1%} {bar}")
        return "\n".join(lines)


def utilization_report(timing: TimingResult) -> UtilizationReport:
    """Summarize per-resource busy fractions over the makespan.

    The report records which engine (event loop or levelized batch) produced
    the timing, so traces taken at scale are attributable.
    """
    makespan = timing.elapsed
    if makespan <= 0:
        return UtilizationReport(0.0, {}, engine=timing.engine)
    return UtilizationReport(
        makespan,
        {key: busy / makespan for key, busy in timing.resource_busy.items()},
        engine=timing.engine,
    )
