#!/usr/bin/env python
"""Simulator-engine benchmark: event loop vs levelized batch at scale.

Runs the dependency-chained pipeline-parallel workload
(``repro.bench.figures.pipeline_stage_schedule``) on the aggregate
full-system Frontier model at 1,536 nodes — 12,288 ranks, ~98k ops — through
both simulation engines and emits ``BENCH_simulator.json`` for CI to archive,
so engine-speed regressions show up as artifact diffs.

The acceptance contract this file locks down:

* ``identical`` must be ``true`` — the levelized engine is only allowed to
  exist because it reproduces the event loop bit-for-bit whenever its
  serialization certificate accepts;
* ``speedup`` (event wall / level wall) must stay >= ``MIN_SPEEDUP`` on
  this >= 10k-rank model;
* ``fig8_engine_used`` documents, honestly, that a contended Figure 8
  collective (striped/pipelined all-reduce) *falls back* to the event loop:
  bandwidth-saturating collectives share NICs by design, so their optimistic
  certificate is rejected and the event engine remains the engine of record.

Usage::

    PYTHONPATH=src python tools/bench_simulator.py [--out BENCH_simulator.json]
"""

from __future__ import annotations

import sys
import time

from benchkit import Bench

#: Levelized-engine workload: leader-chained pipeline parallelism on the
#: aggregate Frontier model (1,536 of the 9,408 deployed nodes keeps the
#: single stage chain inside the engine's LEVEL_MAX_DEPTH guard).
SYSTEM = "frontier-full"
NODES = 1536
MICROBATCHES = 8
COUNT = 1 << 20  # elements per hop (4 MiB fp32)

#: Fallback probe: one contended fig8-style collective at testbed scale.
FIG8_SYSTEM = "perlmutter"
FIG8_COLLECTIVE = "all_reduce"
FIG8_PAYLOAD_BYTES = 1 << 26

#: Floor on ``speedup``.  It divides by the event loop, so when the loop
#: moved onto priced columns the floor was scaled to keep the absolute
#: level wall it demanded before: the earlier floor of 5 times the new/old
#: ratio of the event-wall medians (0.358 s / 0.786 s, 5 alternating runs
#: on one 2-core host), rounded up to one decimal.
MIN_SPEEDUP = 2.3

#: Runs per engine (the best wall time is reported).
REPEAT = 3


def _fig8_probe() -> dict:
    """Show the honest fallback: a contended collective stays on ``event``."""
    from repro.bench.configs import best_config
    from repro.bench.runner import payload_count
    from repro.core.communicator import Communicator
    from repro.core.composition import compose
    from repro.core.passes import lower_program
    from repro.core.plan import OptimizationPlan
    from repro.machine.machines import by_name
    from repro.simulator.engine import simulate

    machine = by_name(FIG8_SYSTEM, nodes=4)
    comm = Communicator(machine, materialize=False)
    compose(comm, FIG8_COLLECTIVE,
            payload_count(machine, FIG8_PAYLOAD_BYTES))
    cfg = best_config(machine, FIG8_COLLECTIVE)
    kw = cfg.init_kwargs()
    plan = OptimizationPlan.create(
        machine, kw["hierarchy"], kw["library"],
        stripe=kw["stripe"], ring=kw["ring"], pipeline=kw["pipeline"],
    )
    schedule = lower_program(comm.program, plan)
    timing = simulate(schedule, machine, plan.libraries, 4, engine="level")
    return {
        "system": FIG8_SYSTEM, "collective": FIG8_COLLECTIVE,
        "config": cfg.name, "payload_bytes": FIG8_PAYLOAD_BYTES,
        "ops": len(schedule),
        "engine_requested": "level",
        "engine_used": timing.engine,
    }


def measure() -> dict:
    """Run the benchmark; returns the JSON-ready result document."""
    from repro.bench.figures import compare_engines, pipeline_stage_schedule
    from repro.machine.machines import by_name
    from repro.transport.library import Library

    machine = by_name(SYSTEM, nodes=NODES)
    t0 = time.perf_counter()
    schedule = pipeline_stage_schedule(machine, microbatches=MICROBATCHES,
                                       count=COUNT)
    build_seconds = time.perf_counter() - t0
    row = compare_engines("pp-chain", schedule, machine,
                          (Library.MPI, Library.IPC), repeat=REPEAT)
    return {
        "workload": {
            "system": SYSTEM, "nodes": NODES, "ranks": machine.world_size,
            "microbatches": MICROBATCHES, "count": COUNT,
        },
        "ops": row.ops,
        "repeat": REPEAT,
        "build_seconds": round(build_seconds, 4),
        "event_seconds": round(row.event_wall, 4),
        "level_seconds": round(row.level_wall, 4),
        "speedup": round(row.speedup, 2),
        "engine_used": row.engine_used,
        "identical": row.identical,
        "makespan_seconds": row.makespan,
        "fig8_fallback_probe": _fig8_probe(),
    }


def check(result: dict) -> list[str]:
    """The hard acceptance contract; returns the violations."""
    failures = []
    if not result["identical"]:
        failures.append("levelized engine diverged from the event loop")
    if result["engine_used"] != "level":
        failures.append(
            "levelized engine fell back on the benchmark workload")
    if result["speedup"] < MIN_SPEEDUP:
        failures.append(f"speedup {result['speedup']} < {MIN_SPEEDUP}")
    return failures


BENCH = Bench(
    name="simulator",
    measure=measure,
    exact=("makespan_seconds",),
    drift={
        "event_seconds": "higher",
        "level_seconds": "higher",
        "speedup": "lower",
    },
    check=check,
)


if __name__ == "__main__":
    sys.exit(BENCH.main())
