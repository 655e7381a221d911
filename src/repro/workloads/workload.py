"""Shared-timeline workload runtime: compose communicators into one job.

A :class:`Workload` collects several *initialized* communicators — full-
machine :class:`~repro.core.communicator.Communicator` instances and
:class:`~repro.core.communicator.SubCommunicator` process groups of the same
machine — each with a launch offset and optional dependencies on earlier
entries, and prices them together through
:func:`repro.simulator.engine.simulate_workload` on one shared set of
NIC/link/copy-engine timelines.

The headline metric is the per-collective **slowdown**: the contended
duration of each job (gate-open to last-op completion on the shared
timeline) divided by its isolated makespan (the communicator's own
``timing.elapsed``, priced on an idle machine at ``init()``).  Two jobs
touching disjoint resources compose with slowdown exactly 1.0; jobs sharing
NICs or links pay for the overlap.  See DESIGN.md Section 7 for the full
contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.communicator import Communicator
from ..errors import CompositionError, InitializationError
from ..machine.spec import MachineSpec
from ..simulator.engine import JobSpec, rank_resources, simulate_workload


@dataclass(frozen=True)
class JobReport:
    """Per-job outcome of one workload run."""

    name: str
    start: float  # gate-open instant on the shared timeline (seconds)
    finish: float  # last-op completion (seconds)
    elapsed: float  # contended duration: finish - start
    isolated: float  # the same schedule's makespan on an idle machine
    slowdown: float  # elapsed / isolated


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of pricing one workload on the shared machine timeline."""

    name: str
    system: str
    makespan: float
    jobs: tuple[JobReport, ...]
    utilization: dict[tuple, float]  # busy fraction of makespan per resource

    @property
    def worst_slowdown(self) -> float:
        """Largest per-job slowdown (1.0 = no job paid for contention)."""
        return max((job.slowdown for job in self.jobs), default=1.0)

    def job(self, name: str) -> JobReport:
        """The report of the job registered under ``name``."""
        for report in self.jobs:
            if report.name == name:
                return report
        raise KeyError(f"workload {self.name!r} has no job {name!r}")

    def busiest_resources(self, n: int = 6) -> list[tuple[tuple, float]]:
        """The ``n`` most utilized resources, busiest first (ties by key)."""
        return rank_resources(self.utilization, n)

    def render(self) -> str:
        """Deterministic text table of the run (stable across repeats)."""
        lines = [
            f"workload {self.name} on {self.system}: "
            f"makespan {self.makespan * 1e3:.3f} ms, "
            f"worst slowdown {self.worst_slowdown:.2f}x",
            f"  {'job':24s} {'start ms':>9s} {'finish ms':>10s} "
            f"{'elapsed ms':>11s} {'isolated ms':>12s} {'slowdown':>9s}",
        ]
        for job in self.jobs:
            lines.append(
                f"  {job.name:24s} {job.start * 1e3:9.3f} "
                f"{job.finish * 1e3:10.3f} {job.elapsed * 1e3:11.3f} "
                f"{job.isolated * 1e3:12.3f} {job.slowdown:8.2f}x"
            )
        lines.append("  busiest resources:")
        for key, frac in self.busiest_resources(4):
            lines.append(f"    {str(key):>24s} {frac:6.1%}")
        return "\n".join(lines)


class Workload:
    """A named set of initialized communicators priced on one shared timeline.

    Usage::

        wl = Workload(machine, "moe_layer")
        wl.add(dispatch_comm, "dispatch")
        wl.add(tp_comm, "tp-allgather")                  # concurrent
        wl.add(combine_comm, "combine", after=("dispatch",))
        result = wl.run()                                # WorkloadResult

    The same communicator may be added several times (e.g. one all-gather
    plan replayed for every layer of an FSDP step); each entry is an
    independent job on the timeline.
    """

    def __init__(self, machine: MachineSpec, name: str = "workload") -> None:
        """Create an empty workload over ``machine``."""
        self.machine = machine
        self.name = name
        self._entries: list[tuple[Communicator, str, float, tuple[int, ...]]] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def job_names(self) -> list[str]:
        """Registered job names, in timeline order."""
        return [name for _, name, _, _ in self._entries]

    def entries(self) -> list[tuple[Communicator, str, float, tuple[int, ...]]]:
        """Registered jobs as ``(comm, name, offset, deps)`` tuples.

        Deps are entry indices (already resolved).  The list is a copy; the
        workload planner reads it to discover tunable groups and to rebuild
        variants via :meth:`with_communicators`.
        """
        return list(self._entries)

    def with_communicators(self, comms) -> "Workload":
        """A new workload with entry ``i`` driven by ``comms[i]``.

        Names, offsets, and dependencies are preserved; ``comms`` must have
        one initialized communicator per existing entry.  This is how the
        workload planner prices alternative per-group plans on the same
        timeline structure.
        """
        comms = list(comms)
        if len(comms) != len(self._entries):
            raise CompositionError(
                f"with_communicators: expected {len(self._entries)} "
                f"communicators, got {len(comms)}"
            )
        out = Workload(self.machine, self.name)
        for comm, (_, name, offset, deps) in zip(comms, self._entries):
            out.add(comm, name, offset=offset, after=deps)
        return out

    def add(self, comm: Communicator, name: str | None = None,
            offset: float = 0.0, after=()) -> int:
        """Register one communicator's schedule as a job; returns its index.

        ``comm`` must be initialized and belong to this workload's machine
        (for a :class:`~repro.core.communicator.SubCommunicator`, the parent
        machine).  ``offset`` delays the launch by simulated seconds;
        ``after`` lists jobs — by index or by name — that must complete
        before this one starts.
        """
        if comm.schedule is None:
            raise InitializationError(
                f"job {name!r}: communicator must be init()ed before add()"
            )
        if comm.global_machine != self.machine:
            raise CompositionError(
                f"job {name!r}: communicator belongs to machine "
                f"{comm.global_machine.describe()!r}, workload prices "
                f"{self.machine.describe()!r}"
            )
        index = len(self._entries)
        if name is None:
            name = f"job{index}"
        deps = tuple(self._resolve(ref, index) for ref in after)
        self._entries.append((comm, name, float(offset), deps))
        return index

    def _resolve(self, ref, index: int) -> int:
        if isinstance(ref, str):
            for j, (_, name, _, _) in enumerate(self._entries):
                if name == ref:
                    return j
            raise CompositionError(
                f"job #{index} depends on unknown job {ref!r}; dependencies "
                "must be added to the workload first"
            )
        j = int(ref)
        if not 0 <= j < index:
            raise CompositionError(
                f"job #{index} can only depend on earlier jobs, got {ref}"
            )
        return j

    def job_specs(self) -> list[JobSpec]:
        """One :class:`~repro.simulator.engine.JobSpec` per registered job,
        in entry order: what :meth:`run` hands the shared-timeline engine."""
        return [
            JobSpec(
                schedule=comm.global_schedule,
                libraries=comm.plan.libraries,
                elem_bytes=comm.dtype.itemsize,
                offset=offset,
                after=deps,
                name=name,
            )
            for comm, name, offset, deps in self._entries
        ]

    def run(self, engine: str = "auto") -> WorkloadResult:
        """Price every job on the shared timeline and report slowdowns.

        ``engine`` selects the simulation engine (see
        :data:`repro.simulator.engine.ENGINES`); the default ``"auto"``
        lets large merged graphs attempt the levelized batch engine and
        falls back to the event loop whenever the serialization
        certificate is rejected, with bit-identical results either way.
        """
        if not self._entries:
            raise CompositionError("workload has no jobs; add() some first")
        timing = simulate_workload(self.job_specs(), self.machine,
                                   engine=engine)
        reports = []
        for (comm, name, _, _), job in zip(self._entries, timing.jobs):
            isolated = comm.timing.elapsed
            reports.append(JobReport(
                name=name,
                start=job.start,
                finish=job.finish,
                elapsed=job.elapsed,
                isolated=isolated,
                slowdown=job.elapsed / isolated if isolated > 0 else 1.0,
            ))
        return WorkloadResult(
            name=self.name,
            system=self.machine.name,
            makespan=timing.makespan,
            jobs=tuple(reports),
            utilization=timing.utilization(),
        )
