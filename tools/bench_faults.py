#!/usr/bin/env python
"""Fault-layer benchmark: re-plan latency and slowdown under degradation.

Runs the committed degraded-scenario probes (``repro.bench.degraded``) on
the Delta model — a seeded random fault set re-planned in place, and an
elastic shrink from 4 to 3 nodes — and emits ``BENCH_faults.json`` for CI
to archive, so re-plan-latency regressions show up as artifact diffs.

The acceptance contract this file locks down:

* ``replay_seconds >= healthy_seconds`` — monotone derates never make the
  healthy schedule *faster* on the degraded machine;
* ``replanned_seconds <= replay_seconds`` — the degraded search winner is
  never worse than doing nothing (the healthy plan is merged into the
  degraded ranking);
* ``empty_identity`` must be ``true`` — an empty fault set leaves the
  machine object, its fingerprint, and the simulated timeline byte-for-byte
  identical to healthy.

Simulated times are deterministic model outputs and must not drift at all;
the ``*_wall_seconds`` keys are host-dependent and tolerate 20% drift in CI.

Usage::

    PYTHONPATH=src python tools/bench_faults.py [--out BENCH_faults.json]
"""

from __future__ import annotations

import sys

from benchkit import Bench

SYSTEM = "delta"


def _empty_identity_probe() -> dict:
    """An empty fault set must be a byte-identical no-op."""
    from repro.bench.configs import best_config
    from repro.bench.runner import payload_count
    from repro.core.communicator import Communicator
    from repro.core.composition import compose
    from repro.core.plancache import machine_fingerprint
    from repro.machine.faults import FaultSet
    from repro.machine.machines import by_name

    machine = by_name(SYSTEM, nodes=2)
    unfaulted = FaultSet().apply(machine)
    same_spec = unfaulted == machine
    same_fp = machine_fingerprint(unfaulted) == machine_fingerprint(machine)

    def _elapsed(m):
        comm = Communicator(m, materialize=False)
        compose(comm, "all_reduce", payload_count(m, 1 << 22))
        comm.init(**best_config(m, "all_reduce").init_kwargs())
        return comm.timing.elapsed

    same_timeline = _elapsed(unfaulted) == _elapsed(machine)
    return {
        "same_spec": same_spec,
        "same_fingerprint": same_fp,
        "same_timeline": same_timeline,
        "ok": same_spec and same_fp and same_timeline,
    }


def measure() -> dict:
    """Run the probes; returns the JSON-ready result document."""
    from repro.bench.degraded import (
        PAYLOAD_BYTES,
        REPLAN_NODES,
        SEED,
        SHRINK_NODES,
        replan_probe,
        shrink_probe,
    )

    rep = replan_probe(SYSTEM)
    shrink = shrink_probe(SYSTEM)
    empty = _empty_identity_probe()
    return {
        "system": SYSTEM,
        "payload_bytes": PAYLOAD_BYTES,
        "replan": {
            "nodes": REPLAN_NODES,
            "seed": SEED,
            "faults": rep.faults.describe(),
            "healthy_seconds": rep.healthy_seconds,
            "replay_seconds": rep.replay_seconds,
            "replanned_seconds": rep.replanned_seconds,
            "replay_slowdown": round(rep.replay_slowdown, 4),
            "slowdown_vs_healthy": round(rep.slowdown_vs_healthy, 4),
            "replan_gain": round(rep.replan_gain, 4),
            "replan_wall_seconds": round(rep.replan_wall_seconds, 4),
        },
        "elastic_shrink": {
            "nodes_before": SHRINK_NODES,
            "nodes_after": shrink.nodes_after,
            "drained_nodes": list(shrink.drained_nodes),
            "healthy_seconds": shrink.healthy_seconds,
            "shrunk_seconds": shrink.shrunk_seconds,
            "slowdown_vs_healthy": round(shrink.slowdown, 4),
            "replan_wall_seconds": round(shrink.replan_wall_seconds, 4),
        },
        "empty_identity": empty,
    }


def check(result: dict) -> list[str]:
    """The hard acceptance contract; returns the violations."""
    failures = []
    rep = result["replan"]
    if rep["replay_seconds"] < rep["healthy_seconds"]:
        failures.append("degraded replay beat the healthy baseline")
    if rep["replanned_seconds"] > rep["replay_seconds"]:
        failures.append("degraded search winner lost to the healthy replay")
    if not result["empty_identity"]["ok"]:
        failures.append("empty fault set is not a byte-identical no-op")
    return failures


BENCH = Bench(
    name="faults",
    measure=measure,
    exact=("replan.*", "elastic_shrink.*"),
    drift={"*.replan_wall_seconds": "higher"},
    check=check,
)


if __name__ == "__main__":
    sys.exit(BENCH.main())
