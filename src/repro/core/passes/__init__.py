"""Compiler-style pass pipeline: Program -> array-form Schedule.

HiCCL's central claim is the decoupling of collective *logic* from
machine-specific *optimizations* (Section 3).  This package realizes the
synthesis path as an explicit sequence of independently testable passes
over a typed lowering IR (:mod:`repro.core.passes.lir`):

1. :class:`~repro.core.passes.logic.ExpandLogicPass` — registered program
   to step-partitioned primitives (the logic, machine-free);
2. :class:`~repro.core.passes.logic.HierarchyPass` — bind the virtual
   factor tree (Section 4.2);
3. :class:`~repro.core.passes.pipelining.PipelinePass` — channel slicing
   with template planning (Section 4.5): at most one lowering per distinct
   channel chunk shape, channels replicated at the array level;
4. :class:`~repro.core.passes.striping.StripePass` — multi-NIC striping
   branches (Section 4.3);
5. :class:`~repro.core.passes.ringtree.RingTreePass` — ring/tree selection
   and recursive hierarchical factorization (Sections 4.2/4.4);
6. :class:`~repro.core.passes.bind.BindPass` — channel binding: implicit
   fence dependencies, race validation, uid assignment, array assembly.

Optional IR -> IR optimizations over the bound schedule
(:mod:`repro.core.passes.opt`): contiguous-send fusion and dead-copy
elimination.  Both change pricing and are **off by default** so committed
baselines regenerate byte-identically.

Use :func:`lower_program` for the one-call path, or :class:`PassPipeline`
to keep per-pass summaries (``repro lower --dump`` renders them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..plan import OptimizationPlan
from ..primitives import Program
from ..schedule import Schedule
from .bind import BindPass
from .lir import LoweringState
from .logic import ExpandLogicPass, HierarchyPass
from .opt import DeadCopyEliminationPass, FuseContiguousSendsPass
from .pipelining import PipelinePass, split_even
from .ringtree import Accumulator, RingTreePass
from .striping import StripePass

__all__ = [
    "Accumulator",
    "BindPass",
    "DeadCopyEliminationPass",
    "ExpandLogicPass",
    "FuseContiguousSendsPass",
    "HierarchyPass",
    "LoweredProgram",
    "OPTIMIZATION_PASSES",
    "PassPipeline",
    "PipelinePass",
    "RingTreePass",
    "StripePass",
    "lower_program",
    "split_even",
]

#: Registry of the optional post-bind optimization passes, by flag name.
OPTIMIZATION_PASSES = {
    "fuse": FuseContiguousSendsPass,
    "dce": DeadCopyEliminationPass,
}


@dataclass
class LoweredProgram:
    """Result of a pipeline run: the schedule plus per-pass summaries."""

    schedule: Schedule
    summaries: list[dict] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable per-pass dump (the ``repro lower --dump`` body)."""
        lines = []
        for summary in self.summaries:
            name = summary["pass"]
            detail = "  ".join(
                f"{k}={v}" for k, v in summary.items() if k != "pass"
            )
            lines.append(f"  [{name:16s}] {detail}")
        return "\n".join(lines)


class PassPipeline:
    """The ordered pass sequence lowering one program under one plan."""

    def __init__(self, plan: OptimizationPlan, *, optimize=()) -> None:
        """Assemble the pipeline; ``optimize`` names optional post-bind
        passes from :data:`OPTIMIZATION_PASSES` (``"fuse"``, ``"dce"``),
        applied in the given order (they change pricing)."""
        unknown = set(optimize) - set(OPTIMIZATION_PASSES)
        if unknown:
            raise ValueError(
                f"unknown optimization pass(es) {sorted(unknown)}; "
                f"available: {sorted(OPTIMIZATION_PASSES)}"
            )
        self.plan = plan
        self.structural = [
            ExpandLogicPass(),
            HierarchyPass(),
            PipelinePass(),
            StripePass(),
            RingTreePass(),
        ]
        self.bind = BindPass()
        self.optimizations = [OPTIMIZATION_PASSES[name]() for name in optimize]

    def run(self, program: Program) -> LoweredProgram:
        """Lower ``program``; returns the schedule with pass summaries."""
        state = LoweringState(program, self.plan)
        for pass_ in self.structural:
            pass_.run(state)
        schedule = self.bind.run(state)
        summaries = state.summaries
        for pass_ in self.optimizations:
            schedule, summary = pass_.run(schedule)
            summaries.append(summary)
        return LoweredProgram(schedule, summaries)


def lower_program(program: Program, plan: OptimizationPlan, *,
                  optimize=()) -> Schedule:
    """Lower ``program`` to a point-to-point schedule under ``plan``.

    ``optimize`` names optional post-bind passes, as for
    :class:`PassPipeline`.  The default (no optimizations) reproduces the
    historical lowering's schedules exactly.
    """
    return PassPipeline(plan, optimize=optimize).run(program).schedule
