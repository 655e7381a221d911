"""Data generators for every figure and table of the paper's evaluation.

Each ``figN_*`` function returns plain data (dicts / lists of
:class:`~repro.bench.runner.Measurement`).  The :mod:`repro.analysis`
registry flattens that data into records and owns the one renderer per
figure, so the committed ``benchmarks/output`` baselines, ``repro figures``,
``repro bench`` and ``repro workloads`` all print through the same code.
Also home to the engine-comparison helpers behind ``repro sim``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.communicator import Communicator
from ..core.composition import FIGURE8_ORDER
from ..machine.nic import binding_table, nic_loads, utilization
from ..machine.spec import MachineSpec
from ..machine.topology import TreeTopology
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
    ring_config,
    striped_config,
    tree_config,
)
from .runner import Measurement, run_baseline, run_hiccl

# --------------------------------------------------------------------- Fig 1
def fig1_broadcast_volume(nodes: int = 2, gpus_per_node: int = 3,
                          count: int = 1024) -> dict[str, dict[str, int]]:
    """Direct vs hierarchical broadcast volume (Figure 1).

    Returns inter/intra-node element volumes for both strategies; the direct
    strategy redundantly moves ``(p - g)`` copies across nodes while the
    hierarchical one moves exactly ``nodes - 1``.
    """
    from ..machine.machines import generic

    machine = generic(nodes, gpus_per_node, 1, name="fig1")
    out = {}
    for label, hierarchy, libs in (
        ("direct", [machine.world_size], [Library.MPI]),
        ("hierarchical", [nodes, gpus_per_node], [Library.MPI, Library.IPC]),
    ):
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(count, "sendbuf")
        recv = comm.alloc(count, "recvbuf")
        comm.add_multicast(send, recv, count, 0, list(range(machine.world_size)))
        comm.init(hierarchy=hierarchy, library=libs)
        out[label] = comm.schedule.volume_by_kind(machine)
    return out


# --------------------------------------------------------------------- Fig 2
def fig2_bindings() -> list[dict]:
    """The three binding examples of Figure 2 with their utilizations."""
    cases = [
        ("packed", 3, 1, "a"),
        ("round-robin", 3, 2, "b"),
        ("bijective", 3, 3, "c"),
    ]
    out = []
    from ..machine.nic import Binding

    policy_of = {"packed": Binding.PACKED, "round-robin": Binding.ROUND_ROBIN,
                 "bijective": Binding.BIJECTIVE}
    for policy, g, k, panel in cases:
        pol = policy_of[policy]
        out.append({
            "panel": panel,
            "policy": policy,
            "g": g,
            "k": k,
            "table": binding_table(g, k, pol),
            "loads": nic_loads(g, k, pol),
            "utilization": utilization(g, k, pol),
        })
    return out


# --------------------------------------------------------------------- Fig 5
FIG5_FACTORIZATIONS = [
    ("a", [3, 8]),
    ("b", [4, 6]),
    ("c", [3, 2, 4]),
    ("d", [2, 2, 6]),
    ("e", [3, 2, 2, 2]),
    ("f", [2, 2, 2, 3]),
]


def fig5_trees() -> list[tuple[str, TreeTopology]]:
    """The six 24-GPU factorizations of Figure 5."""
    return [(panel, TreeTopology(factors, 24)) for panel, factors in FIG5_FACTORIZATIONS]


# --------------------------------------------------------------------- Fig 6
def fig6_stage_counts(count: int = 1 << 12) -> dict[str, int]:
    """Stage counts of the striped tree (4) and striped ring (5) of Figure 6.

    12 GPUs as 4 nodes x 3 GPUs; broadcast from GPU 0 with stripe(3).
    """
    from ..machine.machines import generic

    machine = generic(4, 3, 1, name="fig6")
    out = {}
    for label, hierarchy, ring in (
        ("tree {2,2,3}", [2, 2, 3], 1),
        ("ring {4,3}", [4, 3], 4),
    ):
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(count, "sendbuf")
        recv = comm.alloc(count, "recvbuf")
        comm.add_multicast(send, recv, count, 0, list(range(12)))
        comm.init(hierarchy=hierarchy,
                  library=[Library.MPI] * (len(hierarchy) - 1) + [Library.IPC],
                  ring=ring, stripe=3, pipeline=1)
        out[label] = comm.schedule.stage_count()
    return out


# --------------------------------------------------------------------- Fig 7
def fig7_matrices(count: int = 1 << 12) -> dict[str, dict]:
    """Hierarchical communication matrices of Figure 7 (bottom).

    (a) broadcast on {2,2,3} with {MPI, NCCL, IPC} and stripe(3);
    (b) broadcast on {4,3} + ring(4) with {NCCL, IPC} and stripe(3).
    Returns per-case the 12x12 volume matrix and the library label matrix.
    """
    from ..machine.machines import generic

    machine = generic(4, 3, 1, name="fig7")
    cases = {
        "tree": dict(hierarchy=[2, 2, 3],
                     library=[Library.MPI, Library.NCCL, Library.IPC],
                     ring=1, stripe=3, pipeline=5),
        "ring": dict(hierarchy=[4, 3],
                     library=[Library.NCCL, Library.IPC],
                     ring=4, stripe=3, pipeline=5),
    }
    out = {}
    for label, kwargs in cases.items():
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(count, "sendbuf")
        recv = comm.alloc(count, "recvbuf")
        comm.add_multicast(send, recv, count, 0, list(range(12)))
        comm.init(**kwargs)
        out[label] = {
            "volume": comm.schedule.comm_matrix(),
            "library": comm.schedule.library_matrix(comm.plan.libraries),
        }
    return out


# --------------------------------------------------------------------- Fig 8
#: Implementations shown per collective in Figure 8, in bar order.
FIG8_VARIANTS = ("mpi", "vendor", "direct", "hierarchical", "striped", "pipelined")


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
    :func:`repro.bench.parallel.run_sweep`; the row order is identical to the
    serial run (baselines a library does not offer are dropped either way).
    """
    from .parallel import run_sweep

    points = fig8_points(machine, payload_bytes, collectives)
    results = run_sweep(points, jobs=jobs, cache_dir=cache_dir)
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


# --------------------------------------------------------------------- Fig 9
FIG9_CASES = {
    # (collective, topology): Figure 9's four panels on Perlmutter.
    "gather": "tree",
    "scatter": "tree",
    "broadcast": "ring",
    "reduce": "ring",
}

FIG9_DEPTHS = (1, 2, 4, 8, 16, 32, 64, 128)


def fig9_curves(machine: MachineSpec, collective: str,
                payloads_bytes=None,
                depths=FIG9_DEPTHS) -> dict[int, list[Measurement]]:
    """Throughput vs buffer size for each pipeline depth (one Fig 9 panel)."""
    if payloads_bytes is None:
        payloads_bytes = [1 << s for s in range(14, 31, 2)]  # 16 KB .. 1 GB
    topology = FIG9_CASES[collective]
    out: dict[int, list[Measurement]] = {}
    for m_depth in depths:
        if topology == "ring":
            cfg = ring_config(machine, pipeline=m_depth)
        else:
            cfg = tree_config(machine, pipeline=m_depth)
        out[m_depth] = [
            run_hiccl(machine, collective, cfg, payload_bytes=pb,
                      warmup=0, rounds=1)
            for pb in payloads_bytes
        ]
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


# -------------------------------------------------------------------- Fig 10
FIG10_DEPTHS = (1, 2, 4, 8, 16, 32)


def fig10_scaling(machine_factory, node_counts=(2, 4, 8, 16, 32, 64),
                  payload_bytes: int = 1 << 30,
                  depths=FIG10_DEPTHS,
                  mpi_cap_bytes: int = 1 << 30) -> dict[str, dict[int, float]]:
    """All-reduce scaling (Figure 10): GB/s per node count per series.

    Series: ``hiccl-m{depth}`` for each pipeline depth, plus the vendor ring
    and MPI baselines.  MPI is measured at a capped 1 GB payload, matching
    the paper's note about MPI's large-count limitations [17].
    """
    series: dict[str, dict[int, float]] = {f"hiccl-m{d}": {} for d in depths}
    series["vendor"] = {}
    series["mpi"] = {}
    for nodes in node_counts:
        machine = machine_factory(nodes)
        for d in depths:
            cfg = ring_config(machine, pipeline=d)
            meas = run_hiccl(machine, "all_reduce", cfg,
                             payload_bytes=payload_bytes, warmup=0, rounds=1)
            series[f"hiccl-m{d}"][nodes] = meas.throughput
        vendor = run_baseline(machine, "all_reduce", "vendor",
                              payload_bytes=payload_bytes, warmup=0, rounds=1)
        if vendor:
            series["vendor"][nodes] = vendor.throughput
        mpi = run_baseline(machine, "all_reduce", "mpi",
                           payload_bytes=min(payload_bytes, mpi_cap_bytes),
                           warmup=0, rounds=1)
        if mpi:
            series["mpi"][nodes] = mpi.throughput
    return series
