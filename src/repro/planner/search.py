"""Staged, model-guided, parallel plan search.

``strategy="grid"`` prices **every** grid point with a full-payload
synthesis + simulation: the exhaustive reference the equivalence tests
compare against.  The default ``strategy="staged"`` searches in four
stages:

1. **Generate** — a :class:`~repro.planner.space.SearchSpace` enumerates all
   five parameters, including the per-level library vector the grid search
   hard-coded.
2. **Prune** — after fully pricing a couple of model-chosen policy seeds,
   every remaining candidate whose *sound* analytic lower bound
   (:func:`repro.planner.score.lower_bound_seconds`) cannot beat the
   incumbent is discarded without ever being lowered.
3. **Successive halving** — survivors are recomposed, lowered, and priced
   at truncated payloads (``payload / f`` for each factor in the budget's
   ``truncate_factors``), keeping only the top fraction per rung, exactly
   like a real autotuner running cheap short measurements before committing
   to long ones.
4. **Finalists** — the few remaining candidates are priced at the full
   payload; the best one wins.  :class:`SearchStats` counts every stage so
   tests can assert the contract: full-payload simulations on at most a
   third of the candidates the exhaustive grid would have priced.

Candidate evaluations run through :func:`repro.bench.parallel.run_tasks`
(``jobs > 1`` fans them out to the shared worker pool) and are memoized
through the plan cache: each evaluation is a ``Communicator.init``, whose
schedule lands in :mod:`repro.core.plancache` under its lowering key and
whose timing under that key plus the libraries and dtype — candidates that
differ only in their library vector share one lowering, and a warm search
prices nothing twice, in this process or any worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.communicator import Communicator
from ..core.composition import compose
from ..errors import HicclError, InitializationError
from ..machine.spec import MachineSpec
from .score import (
    TrafficSummary,
    analyze_program,
    estimate_seconds,
    lower_bound_seconds,
)
from .space import PlanCandidate, SearchSpace


@dataclass(frozen=True)
class SearchBudget:
    """Knobs bounding how much simulation the staged search may spend.

    ``truncate_factors`` are the successive-halving rungs (payload divisors,
    cheapest first); after each rung only ``keep_fraction`` of the field (but
    never fewer than ``min_finalists``) advances.  ``max_full`` caps
    full-payload simulations *including seeds*; ``None`` derives the cap
    from the legacy grid size as ``max(min_finalists + seeds, grid // 3)``.
    """

    truncate_factors: tuple[int, ...] = (16, 4)
    keep_fraction: float = 1 / 3
    min_finalists: int = 2
    seeds: int = 2
    max_full: int | None = None

    def full_cap(self, grid_size: int) -> int:
        """Full-payload simulation cap for a given exhaustive-grid size."""
        if self.max_full is not None:
            return self.max_full
        return max(self.min_finalists + self.seeds, grid_size // 3)


@dataclass
class SearchStats:
    """Stage-by-stage accounting of one search run."""

    generated: int = 0
    grid_size: int = 0
    pruned: int = 0
    truncated_evals: int = 0
    full_evals: int = 0
    rung_sizes: tuple[int, ...] = ()
    warm_seeds: int = 0

    def render(self) -> str:
        """One-line counter summary (warm seeds shown only when present)."""
        rungs = "/".join(str(n) for n in self.rung_sizes) or "-"
        line = (
            f"{self.generated} candidates generated "
            f"(legacy grid: {self.grid_size}), {self.pruned} pruned "
            f"analytically, {self.truncated_evals} truncated-payload "
            f"evals (rungs {rungs}), {self.full_evals} full-payload evals"
        )
        if self.warm_seeds:
            line += f", {self.warm_seeds} warm seed(s)"
        return line


@dataclass(frozen=True)
class Evaluated:
    """One candidate with its full-payload simulated time."""

    candidate: PlanCandidate
    seconds: float

    def describe(self) -> str:
        """Candidate summary plus its simulated milliseconds."""
        return f"{self.candidate.describe()}: {self.seconds * 1e3:.3f} ms"


@dataclass
class PlanResult:
    """Outcome of one planner run: full-payload-priced candidates + stats."""

    evaluated: list[Evaluated]
    stats: SearchStats

    @property
    def best(self) -> Evaluated:
        """The fastest fully priced candidate."""
        return self.evaluated[0]

    def top(self, n: int = 5) -> list[Evaluated]:
        """The ``n`` fastest fully priced candidates."""
        return self.evaluated[:n]

    def render(self, n: int = 5) -> str:
        """Deterministic text summary (stats line + top candidates)."""
        lines = [self.stats.render(), "best:"]
        lines += [f"  {e.describe()}" for e in self.top(n)]
        return "\n".join(lines)


# ------------------------------------------------------------------ builders
@dataclass(frozen=True)
class CollectiveBuilder:
    """Picklable program factory for a named Table 2 collective.

    ``scale`` divides the per-chunk element count, which is how the halving
    rungs compose the same collective at a truncated payload.
    """

    machine: MachineSpec
    collective: str
    count: int
    dtype_name: str = "float32"

    def __call__(self, scale: int = 1):
        """Program moving ``count // scale`` elements per chunk."""
        comm = Communicator(
            self.machine, dtype=np.dtype(self.dtype_name), materialize=False
        )
        compose(comm, self.collective, max(1, self.count // scale))
        return comm.program


@dataclass(frozen=True)
class _EvalTask:
    """One candidate pricing, runnable in this process or a pool worker."""

    program: object
    machine: MachineSpec
    candidate: PlanCandidate
    dtype_name: str

    def run(self) -> float | None:
        """Synthesize + simulate; ``None`` if the configuration is invalid."""
        comm = Communicator(
            self.machine, dtype=np.dtype(self.dtype_name), materialize=False
        )
        comm.program = self.program
        try:
            comm.init(**self.candidate.init_kwargs())
        except HicclError:
            return None
        return comm.timing.elapsed


def _evaluate(
    candidates: list[PlanCandidate],
    program,
    machine: MachineSpec,
    dtype_name: str,
    jobs: int,
    cache_dir,
) -> list[tuple[PlanCandidate, float]]:
    """Price candidates (in parallel when ``jobs > 1``); drops invalid ones."""
    from ..bench.parallel import run_tasks

    tasks = [
        _EvalTask(program, machine, cand, dtype_name) for cand in candidates
    ]
    seconds = run_tasks(tasks, jobs=jobs, cache_dir=cache_dir)
    return [
        (cand, sec) for cand, sec in zip(candidates, seconds)
        if sec is not None
    ]


def _ranked(pairs: list[tuple[PlanCandidate, float]]) -> list[tuple[PlanCandidate, float]]:
    return sorted(pairs, key=lambda cs: (cs[1], cs[0].sort_key()))


def _stratified_keep(
    ranked: list[tuple[PlanCandidate, float]], keep: int
) -> list[PlanCandidate]:
    """Top-``keep`` of a rung plus the best candidate per pipeline depth.

    The ideal pipeline depth is the one parameter whose ranking shifts with
    payload size (Figure 9: deep pipelines only pay off on large buffers),
    so a truncated-payload rung may legitimately misrank depths.  Keeping
    each depth's best representative guarantees the full-payload stage sees
    every depth — this is what makes "the halving stage never evicts the
    eventual winner" hold on the committed configurations.
    """
    kept = [cand for cand, _ in ranked[:keep]]
    seen_depths = {cand.pipeline for cand in kept}
    for cand, _ in ranked[keep:]:
        if cand.pipeline not in seen_depths:
            seen_depths.add(cand.pipeline)
            kept.append(cand)
    return kept


def search_program(
    builder,
    machine: MachineSpec,
    *,
    dtype=np.float32,
    space: SearchSpace | None = None,
    budget: SearchBudget | None = None,
    strategy: str = "staged",
    jobs: int = 1,
    cache_dir=None,
    collective: str | None = None,
    payload_bytes: float | None = None,
    warm_start: tuple = (),
) -> PlanResult:
    """Search the optimization space for the best plan of one program.

    ``builder`` is either a callable ``builder(scale) -> Program`` (payload
    truncation available; :class:`CollectiveBuilder` for named collectives)
    or a plain :class:`~repro.core.primitives.Program` (no truncation: the
    halving rungs are replaced by the Equation 1-2 model ranking, so the
    full-simulation cap still holds).  ``strategy="grid"`` prices every
    candidate at full payload — the legacy exhaustive behaviour and the
    reference the equivalence tests compare against.  ``collective`` and
    ``payload_bytes`` (optional) let the pruning score add the Table 3
    floor.  Results are deterministic for any ``jobs``.

    ``warm_start`` is an optional tuple of :class:`PlanCandidate`\\ s (e.g.
    winners translated from a *similar* machine by the plan service's
    nearest-fingerprint index) priced fully **alongside** the policy seeds.
    Warm seeds only ever add fully priced candidates — they tighten the
    pruning incumbent but never displace a policy seed, and they do not
    count against the full-evaluation cap (the finalist list is as long as
    a cold search's) — so the warm-started winner can never be worse than
    the cold winner on the same space.  Candidates outside the space are
    silently dropped; the grid strategy ignores ``warm_start`` entirely.
    """
    dtype = np.dtype(dtype)
    if space is None:
        space = SearchSpace.build(machine)
    if budget is None:
        budget = SearchBudget()
    scalable = callable(builder)
    program = builder(1) if scalable else builder
    stats = SearchStats()
    candidates = space.candidates()
    stats.generated = len(candidates)
    grid = space.grid_candidates()
    stats.grid_size = len(grid)
    if not candidates:
        raise InitializationError("no valid configuration found")

    def run_full(cands):
        stats.full_evals += len(cands)
        return _evaluate(cands, program, machine, dtype.name, jobs, cache_dir)

    if strategy == "grid":
        priced = run_full(candidates)
        if not priced:
            raise InitializationError("no valid configuration found")
        return PlanResult(
            evaluated=[Evaluated(c, s) for c, s in _ranked(priced)],
            stats=stats,
        )
    if strategy != "staged":
        raise InitializationError(
            f"unknown search strategy {strategy!r}; use 'staged' or 'grid'"
        )

    traffic = analyze_program(program, machine, dtype.itemsize)
    estimates = {
        cand: estimate_seconds(traffic, machine, cand) for cand in candidates
    }
    ordered = sorted(
        candidates, key=lambda c: (estimates[c], c.sort_key())
    )
    policy = set(space.policy_candidates())
    seeds = [c for c in ordered if c in policy][: budget.seeds]
    attempted = set(seeds)
    priced_seeds = run_full(seeds)
    if not priced_seeds:
        # Degenerate space (no policy seed priced): fall back to the
        # model-ordered front of the whole space.
        fallback = ordered[: budget.seeds]
        attempted.update(fallback)
        priced_seeds = run_full(fallback)
    if not priced_seeds:
        raise InitializationError("no valid configuration found")
    candidate_set = set(candidates)
    warm = []
    for cand in warm_start:
        if cand in candidate_set and cand not in attempted:
            attempted.add(cand)
            warm.append(cand)
    stats.warm_seeds = len(warm)
    priced_seeds += run_full(warm)
    incumbent = min(sec for _, sec in priced_seeds)

    rest = [c for c in ordered if c not in attempted]
    survivors = [
        c for c in rest
        if lower_bound_seconds(
            traffic, machine, c,
            collective=collective, payload_bytes=payload_bytes,
        ) < incumbent
    ]
    stats.pruned = len(rest) - len(survivors)

    rungs: list[int] = []
    if scalable:
        for factor in budget.truncate_factors:
            if not survivors:
                break
            rungs.append(len(survivors))
            stats.truncated_evals += len(survivors)
            truncated = _evaluate(
                survivors, builder(factor), machine, dtype.name, jobs,
                cache_dir,
            )
            keep = max(
                budget.min_finalists,
                math.ceil(len(truncated) * budget.keep_fraction),
            )
            survivors = _stratified_keep(_ranked(truncated), keep)
    stats.rung_sizes = tuple(rungs)

    # When the cap forces a cut, keep one representative per pipeline depth
    # ahead of same-depth runners-up (see _stratified_keep).
    first_of_depth: list[PlanCandidate] = []
    runners_up: list[PlanCandidate] = []
    depths_seen: set[int] = set()
    for cand in survivors:
        if cand.pipeline not in depths_seen:
            depths_seen.add(cand.pipeline)
            first_of_depth.append(cand)
        else:
            runners_up.append(cand)
    survivors = first_of_depth + runners_up

    # Warm seeds are *extra* priced candidates: excluding them from the cap
    # keeps the finalist list exactly as long as a cold search's, which is
    # what makes warm-starting sound (never-worse winner).
    cap = budget.full_cap(stats.grid_size)
    finalists = survivors[: max(0, cap + stats.warm_seeds - stats.full_evals)]
    priced = priced_seeds + run_full(finalists)
    return PlanResult(
        evaluated=[Evaluated(c, s) for c, s in _ranked(priced)],
        stats=stats,
    )


def plan_collective(
    machine: MachineSpec,
    collective: str,
    payload_bytes: int = 1 << 30,
    *,
    dtype=np.float32,
    space: SearchSpace | None = None,
    budget: SearchBudget | None = None,
    strategy: str = "staged",
    jobs: int = 1,
    cache_dir=None,
    warm_start: tuple = (),
) -> PlanResult:
    """Plan one named Table 2 collective at a total payload of ``p * d``.

    The per-chunk element count follows the Section 6.2 convention
    (``payload_bytes / (p * elem_bytes)``); truncation rungs recompose the
    collective at smaller counts, and the pruning score includes the Table 3
    floor for ``collective``.  ``warm_start`` seeds the staged search with
    fully priced extra candidates (see :func:`search_program`).
    """
    dtype = np.dtype(dtype)
    count = max(1, int(payload_bytes) // (machine.world_size * dtype.itemsize))
    builder = CollectiveBuilder(machine, collective, count, dtype.name)
    return search_program(
        builder, machine, dtype=dtype, space=space, budget=budget,
        strategy=strategy, jobs=jobs, cache_dir=cache_dir,
        collective=collective,
        payload_bytes=count * machine.world_size * dtype.itemsize,
        warm_start=warm_start,
    )
