"""Picklable planning tasks the service submits to the worker pool.

A :class:`PlanTask` is the unit of work behind one coalesced request key:
everything needed to run :func:`repro.planner.plan_collective` travels in
the task (machine, collective, payload, search options, warm-start donors),
and ``run()`` returns a small JSON-shaped outcome dict — no live
``Schedule``/``Communicator`` objects cross the pool boundary, so the same
task runs identically on the in-process thread (``jobs <= 1``) and in a
``ProcessPoolExecutor`` worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..machine.spec import MachineSpec
from ..planner.search import SearchBudget, plan_collective
from ..planner.space import PlanCandidate, SearchSpace
from .similarity import translate_candidate

#: Default pipeline depths the service searches.  Deliberately narrower
#: than the library default (1, 4, 16, 32): a service answering fleets of
#: requests trades a sliver of plan quality for a much smaller cold-plan
#: latency; callers opt back into the full grid via request options.
SERVICE_PIPELINES = (1, 4)


def candidate_to_dict(cand: PlanCandidate) -> dict:
    """JSON-shaped candidate (library enums become their string values)."""
    return {
        "hierarchy": list(cand.hierarchy),
        "libraries": [lib.value for lib in cand.libraries],
        "stripe": cand.stripe,
        "ring": cand.ring,
        "pipeline": cand.pipeline,
    }


def candidate_from_dict(doc: dict) -> PlanCandidate:
    """Inverse of :func:`candidate_to_dict`."""
    from ..transport.library import Library

    return PlanCandidate(
        hierarchy=tuple(int(f) for f in doc["hierarchy"]),
        libraries=tuple(Library(v) for v in doc["libraries"]),
        stripe=int(doc["stripe"]),
        ring=int(doc["ring"]),
        pipeline=int(doc["pipeline"]),
    )


def table_to_dict(table) -> dict:
    """JSON-shaped :class:`~repro.planner.table.PlanTable` document."""
    return {
        "machine_name": table.machine_name,
        "collective": table.collective,
        "dtype": table.dtype_name,
        "entries": [
            {
                "size_class": e.size_class,
                "payload_bytes": e.payload_bytes,
                "candidate": candidate_to_dict(e.candidate),
                "plan_seconds": e.plan_seconds,
                "baseline_seconds": e.baseline_seconds,
            }
            for e in table.entries
        ],
    }


def table_from_dict(doc: dict):
    """Inverse of :func:`table_to_dict`."""
    from ..planner.table import PlanTable, PlanTableEntry

    return PlanTable(
        machine_name=str(doc["machine_name"]),
        collective=str(doc["collective"]),
        dtype_name=str(doc["dtype"]),
        entries=tuple(
            PlanTableEntry(
                size_class=str(e["size_class"]),
                payload_bytes=int(e["payload_bytes"]),
                candidate=candidate_from_dict(e["candidate"]),
                plan_seconds=float(e["plan_seconds"]),
                baseline_seconds=float(e["baseline_seconds"]),
            )
            for e in doc["entries"]
        ),
    )


@dataclass(frozen=True)
class PlanTask:
    """One collective-planning job, picklable end to end.

    ``warm_donors`` are winning candidates from *similar* machines (the
    service's nearest-fingerprint index); ``run()`` translates each into
    this machine's search space and seeds the staged search with them.
    """

    machine: MachineSpec
    collective: str
    payload_bytes: int
    dtype_name: str = "float32"
    pipelines: tuple[int, ...] = SERVICE_PIPELINES
    search_libraries: bool = False
    max_full: int | None = None
    warm_donors: tuple[PlanCandidate, ...] = ()

    def run(self) -> dict:
        """Plan the collective; returns a JSON-shaped outcome document."""
        began = time.perf_counter()
        space = SearchSpace.build(
            self.machine,
            pipelines=self.pipelines,
            search_libraries=self.search_libraries,
        )
        warm = []
        for donor in self.warm_donors:
            translated = translate_candidate(space, donor)
            if translated is not None and translated not in warm:
                warm.append(translated)
        budget = SearchBudget(max_full=self.max_full)
        result = plan_collective(
            self.machine,
            self.collective,
            self.payload_bytes,
            dtype=self.dtype_name,
            space=space,
            budget=budget,
            warm_start=tuple(warm),
        )
        wall = time.perf_counter() - began
        best = result.best
        return {
            "winner": candidate_to_dict(best.candidate),
            "plan_seconds": best.seconds,
            "plan_wall_seconds": wall,
            "warm_seeds": result.stats.warm_seeds,
            "stats": {
                "generated": result.stats.generated,
                "pruned": result.stats.pruned,
                "truncated_evals": result.stats.truncated_evals,
                "full_evals": result.stats.full_evals,
            },
            "top": [
                {"candidate": candidate_to_dict(e.candidate),
                 "seconds": e.seconds}
                for e in result.top(3)
            ],
        }


@dataclass(frozen=True)
class PlanTableTask:
    """One size-classed plan-table job, picklable end to end.

    Runs :func:`repro.planner.plan_table` — a baseline search at the
    largest size class plus one warm-started search per smaller class —
    and ships the table back as a JSON-shaped document
    (:func:`table_to_dict`), so serving drivers on the client side rebuild
    it with :func:`table_from_dict` and materialize entries through their
    own plan cache.
    """

    machine: MachineSpec
    collective: str
    size_classes: tuple[tuple[str, int], ...]
    dtype_name: str = "float32"
    pipelines: tuple[int, ...] = SERVICE_PIPELINES
    search_libraries: bool = False
    max_full: int | None = None

    def run(self) -> dict:
        """Plan the table; returns a JSON-shaped outcome document."""
        from ..planner.table import plan_table

        began = time.perf_counter()
        space = SearchSpace.build(
            self.machine,
            pipelines=self.pipelines,
            search_libraries=self.search_libraries,
        )
        budget = SearchBudget(max_full=self.max_full)
        table = plan_table(
            self.machine,
            self.collective,
            self.size_classes,
            dtype=self.dtype_name,
            space=space,
            budget=budget,
        )
        return {
            "table": table_to_dict(table),
            "plan_wall_seconds": time.perf_counter() - began,
        }
