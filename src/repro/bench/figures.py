"""Figure 8 grid, workload table, and simulation-engine comparisons.

:func:`fig8_points` / :func:`fig8_system` / :func:`fig8_bounds` produce the
Figure 8 measurements behind ``repro bench`` and the ``fig8_*`` baselines,
and :func:`workload_scenarios_table` runs the scenario suite behind
``repro workloads``; the :mod:`repro.analysis` registry turns their data
into records and owns the one generator and renderer per figure.  Also
home to the engine-comparison helpers behind ``repro sim`` and
``tools/bench_simulator.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.composition import FIGURE8_ORDER
from ..machine.spec import MachineSpec
from ..model.bounds import (
    BOUND_KIND,
    achievable_bound,
    empirical_bounds,
    theoretical_bound,
)
from ..transport.library import Library
from .configs import (
    best_config,
    direct_config,
    hierarchical_config,
    pipelined_config,
    striped_config,
)
from .runner import Measurement

# --------------------------------------------------------------------- Fig 8
def fig8_points(machine: MachineSpec, payload_bytes: int = 1 << 29,
                collectives=FIGURE8_ORDER) -> list:
    """The Figure 8 measurement grid as sweep points, in bar order."""
    from .parallel import SweepPoint

    points = []
    for name in collectives:
        for family in ("mpi", "vendor"):
            points.append(SweepPoint(machine, name, family=family,
                                     payload_bytes=payload_bytes))
        for cfg_fn in (direct_config, hierarchical_config, striped_config):
            points.append(SweepPoint(machine, name, config=cfg_fn(machine),
                                     payload_bytes=payload_bytes))
        points.append(SweepPoint(machine, name, config=best_config(machine, name),
                                 payload_bytes=payload_bytes))
        # Broadcast/Reduce additionally show the tree-topology bar.
        if name in ("broadcast", "reduce"):
            points.append(SweepPoint(machine, name,
                                     config=pipelined_config(machine, "tree"),
                                     payload_bytes=payload_bytes))
    return points


def fig8_system(machine: MachineSpec, payload_bytes: int = 1 << 29,
                collectives=FIGURE8_ORDER, jobs: int = 1,
                cache_dir=None) -> list[Measurement]:
    """One panel of Figure 8: every collective x every implementation.

    ``jobs > 1`` fans the grid out to worker processes through
    :func:`repro.bench.parallel.run_tasks`; the row order is identical to the
    serial run (baselines a library does not offer are dropped either way).
    """
    from .parallel import run_tasks

    points = fig8_points(machine, payload_bytes, collectives)
    results = run_tasks(points, jobs=jobs, cache_dir=cache_dir)
    return [m for m in results if m is not None]


def fig8_bounds(machine: MachineSpec) -> dict[str, dict[str, float]]:
    """Theoretical frames + empirical triangles per collective."""
    from .configs import INTER_LIBRARY

    inter = INTER_LIBRARY.get(machine.name, Library.MPI)
    emp = empirical_bounds(machine, inter_library=inter)
    out = {}
    for name in FIGURE8_ORDER:
        kind = BOUND_KIND[name]
        out[name] = {
            "theoretical": theoretical_bound(machine, name),
            "achievable": achievable_bound(machine, name),
            "empirical": getattr(emp, kind.replace("-", "_")),
            "empirical_kind": kind,
            "intra_node": emp.intra_node,
        }
    return out


# ---------------------------------------------------------- Workload scenarios
def workload_scenarios_table(machine: MachineSpec,
                             payload_bytes: int | None = None,
                             names=None, jobs: int = 1) -> list:
    """Run the ML traffic scenario suite on one machine (workload layer).

    Returns one :class:`~repro.workloads.workload.WorkloadResult` per
    scenario, in registry order; ``names`` restricts the suite and ``jobs``
    fans whole scenarios out to worker processes (a single scenario always
    prices on one shared timeline in one process).
    """
    from ..workloads.scenarios import (
        DEFAULT_PAYLOAD_BYTES,
        applicable_scenarios,
        run_scenarios,
    )

    if payload_bytes is None:
        payload_bytes = DEFAULT_PAYLOAD_BYTES
    if names is None:
        names = applicable_scenarios(machine)
    return run_scenarios(names, machine, payload_bytes, jobs=jobs)


# ------------------------------------------------------- Simulation engines
def pipeline_stage_schedule(machine: MachineSpec, microbatches: int = 4,
                            count: int = 1 << 20):
    """Dependency-chained pipeline-parallel traffic (one schedule, no fences
    crossed by concurrent flows).

    Per microbatch and node, the node's non-leader ranks reduce into the
    leader over an explicit chain of intra-node sends, and each leader then
    forwards the accumulated activation to the next node's leader — also
    chained on the previous stage's forward.  Every shared resource therefore
    carries at most one flow at a time, which is exactly the schedule class
    the levelized engine's optimistic certificate accepts; contended
    collectives (striping, tree fan-out) instead fall back to the event loop.
    Used by the engine benchmarks and the EXPERIMENTS event-vs-level table.
    """
    from ..core.ops import ReduceOp
    from ..core.schedule import ScheduleBuilder

    g = machine.gpus_per_node
    nodes = machine.world_size // g
    b = ScheduleBuilder(machine.world_size)
    for _mb in range(microbatches):
        prev_stage = None
        for node in range(nodes):
            leader = node * g
            prev = None
            for k in range(1, g):
                deps = (prev,) if prev is not None else ()
                prev = b.send(leader + k, leader, ("buf", 0), ("acc", 0),
                              count, deps=deps, level=1, tag="pp-gather",
                              reduce_op=ReduceOp.SUM)
            if node + 1 < nodes:
                deps = (prev,) if prev is not None else ()
                if prev_stage is not None:
                    deps = deps + (prev_stage,)
                prev_stage = b.send(leader, (node + 1) * g, ("acc", 0),
                                    ("buf", 0), count, deps=deps, level=0,
                                    tag="pp-fwd")
        b.end_step()
    return b.build()


@dataclass(frozen=True)
class EngineComparison:
    """Event vs level wall-clock on one schedule (one row of the table)."""

    label: str
    system: str
    ranks: int
    ops: int
    event_wall: float
    level_wall: float
    engine_used: str
    makespan: float
    identical: bool

    @property
    def speedup(self) -> float:
        """Event wall-clock over level wall-clock (>1 means level is faster)."""
        return self.event_wall / max(self.level_wall, 1e-12)


def compare_engines(label: str, schedule, machine: MachineSpec, libraries,
                    elem_bytes: int = 4, repeat: int = 1) -> EngineComparison:
    """Run one schedule through both engines; best-of-``repeat`` wall times.

    ``engine_used`` reports what the ``engine="level"`` request actually ran
    (a schedule whose certificate is rejected falls back to ``"event"``), and
    ``identical`` checks the two per-op timelines bit-for-bit.
    """
    import time

    from ..simulator.engine import simulate

    def best(engine):
        walls, result = [], None
        for _ in range(max(1, repeat)):
            t0 = time.perf_counter()
            result = simulate(schedule, machine, libraries, elem_bytes,
                              engine=engine)
            walls.append(time.perf_counter() - t0)
        return min(walls), result

    event_wall, event_res = best("event")
    level_wall, level_res = best("level")
    identical = (
        event_res.start_times == level_res.start_times
        and event_res.completion_times == level_res.completion_times
    )
    return EngineComparison(
        label=label, system=machine.name, ranks=machine.world_size,
        ops=len(schedule), event_wall=event_wall, level_wall=level_wall,
        engine_used=level_res.engine, makespan=level_res.elapsed,
        identical=identical,
    )


def sim_engine_table(rows: list[EngineComparison]) -> str:
    """Text table of event-vs-level comparisons (EXPERIMENTS.md format)."""
    lines = [
        f"{'case':28s} {'ranks':>7s} {'ops':>8s} {'event(s)':>9s} "
        f"{'level(s)':>9s} {'speedup':>8s} {'ran':>6s} {'identical':>9s}"
    ]
    for r in rows:
        lines.append(
            f"{r.label:28s} {r.ranks:>7d} {r.ops:>8d} {r.event_wall:>9.3f} "
            f"{r.level_wall:>9.3f} {r.speedup:>7.1f}x {r.engine_used:>6s} "
            f"{str(r.identical):>9s}"
        )
    return "\n".join(lines)
