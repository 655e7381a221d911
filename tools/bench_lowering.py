#!/usr/bin/env python
"""Synthesis microbenchmark: cold/warm lowering + simulation on fig8.

Measures the pass pipeline on the largest Figure 8 workload — Perlmutter
all-reduce, pipelined tree at depth 32, 256 MiB payload: the ~71k-op
schedule that dominates the fig8 panel's synthesis time — and emits
``BENCH_lowering.json`` for CI to archive, so synthesis-cost regressions
show up as artifact diffs.

Reported figures (seconds, best of ``REPEAT`` runs):

* ``cold_lower`` / ``cold_simulate`` / ``cold_total`` — the pass pipeline
  with template replication (the production path);
* ``reference_unreplicated_total`` — the same pipeline with channel
  separability disabled, i.e. every channel lowered explicitly through the
  shared dependency builder.  This is the pre-refactor synthesis strategy,
  kept runnable as the fallback path, so ``speedup_vs_unreplicated``
  measures what template replication buys on this workload;
* ``warm_total`` — a plan-cache hit (memoized schedule + timing).

Usage::

    PYTHONPATH=src python tools/bench_lowering.py [--out BENCH_lowering.json]
"""

from __future__ import annotations

import sys
import time

from benchkit import Bench

#: The fig8 workload under measurement (see bench.figures.fig8_points).
SYSTEM = "perlmutter"
NODES = 4
COLLECTIVE = "all_reduce"
PIPELINE = 32
PAYLOAD_BYTES = 1 << 28

#: Cold and reference runs per figure (the best one is reported).
REPEAT = 2


def _program_and_plan():
    from repro.bench.configs import best_config
    from repro.bench.runner import payload_count
    from repro.core.communicator import Communicator
    from repro.core.composition import compose
    from repro.core.plan import OptimizationPlan
    from repro.machine.machines import by_name

    machine = by_name(SYSTEM, nodes=NODES)
    comm = Communicator(machine, materialize=False)
    compose(comm, COLLECTIVE, payload_count(machine, PAYLOAD_BYTES))
    cfg = best_config(machine, COLLECTIVE).with_pipeline(PIPELINE)
    kw = cfg.init_kwargs()
    plan = OptimizationPlan.create(
        machine, kw["hierarchy"], kw["library"],
        stripe=kw["stripe"], ring=kw["ring"], pipeline=kw["pipeline"],
    )
    return machine, comm.program, plan, cfg


def measure() -> dict:
    """Run the benchmark; returns the JSON-ready result document."""
    from repro.core.passes import lower_program, pipelining
    from repro.simulator.engine import simulate

    machine, program, plan, cfg = _program_and_plan()
    elem_bytes = 4

    cold_lower = []
    cold_simulate = []
    schedule = None
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        schedule = lower_program(program, plan)
        t1 = time.perf_counter()
        simulate(schedule, machine, plan.libraries, elem_bytes)
        t2 = time.perf_counter()
        cold_lower.append(t1 - t0)
        cold_simulate.append(t2 - t1)

    # Pre-refactor reference: per-channel lowering via the fallback path.
    real = pipelining.channels_separable
    reference = []
    try:
        pipelining.channels_separable = lambda program: False
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            ref_schedule = lower_program(program, plan)
            simulate(ref_schedule, machine, plan.libraries, elem_bytes)
            reference.append(time.perf_counter() - t0)
        assert len(ref_schedule) == len(schedule)
    finally:
        pipelining.channels_separable = real

    # Warm path: plan-cache hit through the Communicator front door.
    from repro.bench.runner import payload_count
    from repro.core import plancache
    from repro.core.communicator import Communicator
    from repro.core.composition import compose

    plancache.configure(disk_dir=None)

    def init_once() -> float:
        comm = Communicator(machine, materialize=False)
        compose(comm, COLLECTIVE, payload_count(machine, PAYLOAD_BYTES))
        t0 = time.perf_counter()
        comm.init(**cfg.init_kwargs())
        return time.perf_counter() - t0

    init_once()  # populate the cache
    warm = [init_once() for _ in range(max(3, REPEAT))]

    cold_total = min(a + b for a, b in zip(cold_lower, cold_simulate))
    reference_total = min(reference)
    return {
        "workload": {
            "system": SYSTEM, "nodes": NODES, "collective": COLLECTIVE,
            "config": cfg.name, "pipeline": PIPELINE,
            "payload_bytes": PAYLOAD_BYTES,
        },
        "ops": len(schedule),
        "schedule_mbytes": round(schedule.nbytes() / 1e6, 3),
        "repeat": REPEAT,
        "cold_lower_seconds": round(min(cold_lower), 4),
        "cold_simulate_seconds": round(min(cold_simulate), 4),
        "cold_total_seconds": round(cold_total, 4),
        "reference_unreplicated_total_seconds": round(reference_total, 4),
        "speedup_vs_unreplicated": round(reference_total / cold_total, 2),
        "warm_total_seconds": round(min(warm), 6),
    }


BENCH = Bench(
    name="lowering",
    measure=measure,
    exact=("workload", "ops", "schedule_mbytes"),
    drift={
        "cold_lower_seconds": "higher",
        "cold_simulate_seconds": "higher",
        "cold_total_seconds": "higher",
        "reference_unreplicated_total_seconds": "higher",
        "speedup_vs_unreplicated": "lower",
    },
    factor=("warm_total_seconds",),
)


if __name__ == "__main__":
    sys.exit(BENCH.main())
