"""Workload-aware plan search: tune groups against the *contended* makespan.

A training step is not a sequence of isolated collectives — its process
groups share NICs, links, and copy engines on one timeline
(:mod:`repro.workloads`), and the plan that wins in isolation is not always
the plan that wins under contention (a deep pipeline that saturates an idle
NIC just queues more messages behind three neighbours on a busy one).

:func:`plan_workload` therefore tunes each distinct communicator *group* of
a built :class:`~repro.workloads.workload.Workload` against the makespan of
:func:`repro.simulator.engine.simulate_workload` rather than against the
group's isolated time:

1. every distinct group (same ranks, same program, same dtype) gets a
   model-ordered candidate shortlist from its own
   :class:`~repro.planner.space.SearchSpace` (policy seeds first, Equation
   1-2 estimates ranking the rest — the same machinery the isolated planner
   uses);
2. each shortlisted candidate is priced in isolation (the per-group
   *isolated-tuning* baseline the result reports against);
3. greedy coordinate descent over groups swaps candidates one group at a
   time, keeping a swap only when the full workload makespan improves, until
   a pass changes nothing (or ``rounds`` passes elapse).

Re-initializing a group plan goes through ``Communicator.init`` /
``SubCommunicator.init``, so every synthesis and embedded pricing is
memoized in the plan cache (group lowerings under their schedule key, the
embedded schedule and its parent-priced timing under that key extended with
the group's placement); the descent re-simulates only the shared timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import plancache
from ..core.communicator import Communicator, SubCommunicator
from ..errors import CompositionError, HicclError
from ..workloads.workload import Workload, WorkloadResult
from .score import analyze_program, estimate_seconds
from .space import PlanCandidate, SearchSpace


@dataclass(frozen=True)
class GroupChoice:
    """Tuning outcome of one communicator group of a workload."""

    label: str  # name of the group's first job
    jobs: tuple[str, ...]  # every job driven by this group
    shortlist: tuple[PlanCandidate, ...]
    isolated_best: PlanCandidate  # fastest in isolation
    chosen: PlanCandidate  # fastest under contention

    @property
    def changed(self) -> bool:
        """Whether contention moved the choice away from the isolated best."""
        return self.chosen != self.isolated_best


@dataclass
class WorkloadPlanStats:
    """Simulation accounting of one workload planning run."""

    groups: int = 0
    shortlisted: int = 0
    isolated_evals: int = 0
    workload_sims: int = 0

    def render(self) -> str:
        """One-line counter summary."""
        return (
            f"{self.groups} groups, {self.shortlisted} shortlisted "
            f"candidates, {self.isolated_evals} isolated evals, "
            f"{self.workload_sims} workload simulations"
        )


@dataclass
class WorkloadPlanResult:
    """Outcome of contended tuning: baseline vs tuned workload runs."""

    name: str
    baseline: WorkloadResult  # per-group isolated-best plans
    tuned: WorkloadResult  # coordinate-descent plans
    choices: list[GroupChoice]
    stats: WorkloadPlanStats

    @property
    def improvement(self) -> float:
        """Baseline makespan over tuned makespan (>= 1.0 by construction)."""
        if self.tuned.makespan <= 0:
            return 1.0
        return self.baseline.makespan / self.tuned.makespan

    def render(self) -> str:
        """Deterministic text summary of the tuning run."""
        lines = [
            f"workload planning for {self.name!r}: isolated-tuned makespan "
            f"{self.baseline.makespan * 1e3:.3f} ms -> contended-tuned "
            f"{self.tuned.makespan * 1e3:.3f} ms "
            f"({self.improvement:.3f}x)",
            f"  {self.stats.render()}",
        ]
        for choice in self.choices:
            marker = "*" if choice.changed else " "
            lines.append(
                f"  {marker} {choice.label:24s} {choice.chosen.describe()}"
            )
        return "\n".join(lines)


def _group_key(comm: Communicator) -> tuple:
    """Identity of a tunable group: placement + program + dtype."""
    if isinstance(comm, SubCommunicator):
        ranks = comm.global_ranks
    else:
        ranks = tuple(range(comm.world_size))
    return (ranks, plancache.program_fingerprint(comm.program),
            comm.dtype.name)


def _rebuild(comm: Communicator, candidate: PlanCandidate) -> Communicator:
    """A fresh communicator with ``comm``'s program under ``candidate``.

    Synthesis and pricing hit the plan cache whenever this (program,
    machine, parameters, placement) combination was initialized before.
    """
    if isinstance(comm, SubCommunicator):
        fresh: Communicator = SubCommunicator(
            comm.parent, comm.global_ranks, dtype=comm.dtype,
            materialize=False,
        )
    else:
        fresh = Communicator(comm.machine, dtype=comm.dtype,
                             materialize=False)
    fresh.program = comm.program
    fresh.init(**candidate.init_kwargs())
    return fresh


def _current_candidate(comm: Communicator) -> PlanCandidate:
    plan = comm.plan
    return PlanCandidate(
        hierarchy=tuple(plan.topology.factors),
        libraries=tuple(plan.libraries),
        stripe=plan.stripe,
        ring=plan.ring,
        pipeline=plan.pipeline,
    )


def group_shortlist(
    comm: Communicator,
    *,
    pipelines=(1, 2, 4, 8),
    limit: int = 4,
    include_current: bool = True,
) -> list[PlanCandidate]:
    """Model-ordered candidate shortlist for one group communicator.

    Policy seeds lead, then the best remaining candidates by the Equation
    1-2 estimate on the group machine, capped at ``limit``; the group's
    current plan is appended when not already present so tuning can never
    regress below the as-built configuration.
    """
    space = SearchSpace.build(comm.machine, pipelines=pipelines)
    candidates = space.candidates()
    if not candidates:
        raise CompositionError(
            f"no valid plan candidates for group machine "
            f"{comm.machine.describe()!r}"
        )
    traffic = analyze_program(comm.program, comm.machine,
                              comm.dtype.itemsize)
    estimates = {
        cand: estimate_seconds(traffic, comm.machine, cand)
        for cand in candidates
    }
    ordered = sorted(candidates, key=lambda c: (estimates[c], c.sort_key()))
    policy = set(space.policy_candidates())
    shortlist = [c for c in ordered if c in policy][: min(2, limit)]
    for cand in ordered:
        if len(shortlist) >= limit:
            break
        if cand not in shortlist:
            shortlist.append(cand)
    if include_current:
        current = _current_candidate(comm)
        if current not in shortlist:
            shortlist.append(current)
    return shortlist


def plan_workload(
    workload: Workload,
    *,
    pipelines=(1, 2, 4, 8),
    candidates_per_group: int = 4,
    rounds: int = 2,
) -> WorkloadPlanResult:
    """Tune every group of ``workload`` against the contended makespan.

    Returns a :class:`WorkloadPlanResult` whose ``baseline`` prices the
    workload with each group's *isolated-best* shortlist candidate and whose
    ``tuned`` prices the coordinate-descent outcome; ``tuned.makespan <=
    baseline.makespan`` always holds (the descent starts from the baseline
    assignment and only accepts improvements).
    """
    entries = workload.entries()
    if not entries:
        raise CompositionError("workload has no jobs to plan")
    stats = WorkloadPlanStats()

    # ---------------------------------------------------- group discovery
    keys: list[tuple] = []  # group key per entry
    groups: dict[tuple, dict] = {}
    for index, (comm, name, _, _) in enumerate(entries):
        key = _group_key(comm)
        keys.append(key)
        info = groups.setdefault(
            key, {"comm": comm, "jobs": [], "indices": []}
        )
        info["jobs"].append(name)
        info["indices"].append(index)
    order = sorted(groups, key=lambda k: groups[k]["indices"][0])
    stats.groups = len(order)

    # ------------------------------------- shortlists + isolated pricing
    shortlists: dict[tuple, list[PlanCandidate]] = {}
    built: dict[tuple[tuple, PlanCandidate], Communicator] = {}
    isolated_best: dict[tuple, PlanCandidate] = {}
    for key in order:
        comm = groups[key]["comm"]
        shortlist = group_shortlist(
            comm, pipelines=pipelines, limit=candidates_per_group,
        )
        priced: list[tuple[float, PlanCandidate]] = []
        for cand in shortlist:
            try:
                fresh = _rebuild(comm, cand)
            except HicclError:
                continue
            built[(key, cand)] = fresh
            priced.append((fresh.timing.elapsed, cand))
            stats.isolated_evals += 1
        if not priced:
            raise CompositionError(
                f"no shortlist candidate of group {groups[key]['jobs'][0]!r} "
                "initializes cleanly"
            )
        shortlists[key] = [cand for _, cand in priced]
        stats.shortlisted += len(priced)
        isolated_best[key] = min(
            priced, key=lambda sc: (sc[0], sc[1].sort_key())
        )[1]

    # -------------------------------------------------- contended descent
    def run_assignment(assignment: dict[tuple, PlanCandidate]) -> WorkloadResult:
        comms = [built[(key, assignment[key])] for key in keys]
        stats.workload_sims += 1
        return workload.with_communicators(comms).run()

    assignment = dict(isolated_best)
    baseline = run_assignment(assignment)
    best = baseline
    for _ in range(max(1, rounds)):
        improved = False
        for key in order:
            incumbent = assignment[key]
            for cand in shortlists[key]:
                if cand == incumbent:
                    continue
                trial = dict(assignment)
                trial[key] = cand
                result = run_assignment(trial)
                if result.makespan < best.makespan:
                    assignment = trial
                    best = result
                    incumbent = cand
                    improved = True
        if not improved:
            break

    choices = [
        GroupChoice(
            label=groups[key]["jobs"][0],
            jobs=tuple(groups[key]["jobs"]),
            shortlist=tuple(shortlists[key]),
            isolated_best=isolated_best[key],
            chosen=assignment[key],
        )
        for key in order
    ]
    return WorkloadPlanResult(
        name=workload.name,
        baseline=baseline,
        tuned=best,
        choices=choices,
        stats=stats,
    )
