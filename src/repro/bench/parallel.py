"""Parallel sweep engine: fan a grid of measurement points out to workers.

The evaluation figures are embarrassingly parallel — Figure 8 alone prices
~77 independent (collective, implementation, payload) points, each a full
``Communicator.init()`` synthesis.  This module runs such grids through a
``concurrent.futures.ProcessPoolExecutor``:

* every grid point is a picklable :class:`SweepPoint` (machine + collective +
  either a :class:`~repro.bench.configs.HicclConfig` or a baseline family);
* each worker process warms its *own* in-process plan cache
  (:mod:`repro.core.plancache`), and all workers can share plans through the
  cache's disk layer when ``cache_dir`` is given, so a warm sweep prices each
  distinct configuration exactly once per machine rather than once per
  process;
* results are merged deterministically: :func:`run_tasks` returns them in the
  exact order of the input points regardless of which worker finished first,
  with un-runnable baselines (a library that lacks the collective, Table 1)
  reported as ``None`` just as the serial runner does.

``repro bench --jobs N`` on the CLI and the ``jobs=`` parameter of
:func:`repro.bench.figures.fig8_system` call :func:`run_tasks` directly; it
runs any picklable object with a ``run()`` method, which is how the planner
(:mod:`repro.planner.search`) fans candidate evaluations out to the same
worker pool.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass

from ..machine.spec import MachineSpec
from .configs import HicclConfig
from .runner import DEFAULT_PAYLOAD_BYTES, Measurement, run_baseline, run_hiccl

#: Baseline families understood by :class:`SweepPoint` (see ``run_baseline``).
BASELINE_FAMILIES = ("mpi", "vendor", "direct")


@dataclass(frozen=True)
class SweepPoint:
    """One independent measurement of a sweep grid.

    ``config`` selects a HiCCL run; ``family`` selects a baseline.  Exactly
    one of the two must be set.
    """

    machine: MachineSpec
    collective: str
    config: HicclConfig | None = None
    family: str | None = None
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    warmup: int = 0
    rounds: int = 1

    def __post_init__(self) -> None:
        if (self.config is None) == (self.family is None):
            raise ValueError("SweepPoint needs exactly one of config= or family=")
        if self.family is not None and self.family not in BASELINE_FAMILIES:
            raise ValueError(f"unknown baseline family {self.family!r}")

    @property
    def label(self) -> str:
        impl = self.family if self.family else f"hiccl-{self.config.name}"
        return (f"{self.machine.name}/{self.collective}/{impl}"
                f"@{self.payload_bytes}")

    def run(self) -> Measurement | None:
        """Measure this point in the current process."""
        if self.family is not None:
            return run_baseline(
                self.machine, self.collective, self.family,
                payload_bytes=self.payload_bytes,
                warmup=self.warmup, rounds=self.rounds,
            )
        return run_hiccl(
            self.machine, self.collective, self.config,
            payload_bytes=self.payload_bytes,
            warmup=self.warmup, rounds=self.rounds,
        )


def _run_indexed(index: int, task) -> tuple[int, object]:
    return index, task.run()


def _worker_init(cache_dir: str | None) -> None:
    """Process-pool initializer: point each worker at the shared disk layer.

    With a shared ``cache_dir`` the workers read/write the persistent layer,
    so plans synthesized by one worker are hits for every other worker (and
    for later sweeps).  Without one, the worker's cache is left exactly as
    inherited — including any ``REPRO_PLAN_CACHE`` env configuration and any
    plans warmed in the parent before the fork.
    """
    if cache_dir is not None:
        from ..core import plancache

        plancache.get_cache().set_disk_dir(cache_dir)


def default_jobs() -> int:
    """Worker count when the caller asks for ``--jobs 0`` (all cores)."""
    return max(1, os.cpu_count() or 1)


def run_tasks(
    tasks,
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
) -> list:
    """Run picklable ``.run()`` tasks, ``jobs`` at a time; results in order.

    A *task* is any picklable object with a ``run()`` method (sweep
    :class:`SweepPoint`\\ s, planner candidate evaluations, ...).  ``jobs
    <= 1`` runs serially in this process (and therefore shares this
    process's plan cache); ``cache_dir`` points the plan cache — the
    workers' or, for a serial run, this process's — at a shared on-disk
    layer; the in-process layer and its statistics are kept either way.
    Results are returned in input order regardless of which worker
    finished first.
    """
    tasks = list(tasks)
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(tasks) <= 1:
        if cache_dir is None:
            return [t.run() for t in tasks]
        # Serial runs honor the shared disk layer exactly as a worker would,
        # so mixed serial/parallel sweeps see the same persisted plans — but
        # the repointing is scoped to the sweep: the process-wide cache gets
        # its previous disk layer back afterwards.
        from ..core import plancache

        cache = plancache.get_cache()
        previous = cache.disk_dir
        cache.set_disk_dir(cache_dir)
        try:
            return [t.run() for t in tasks]
        finally:
            cache.set_disk_dir(previous)
    results: list = [None] * len(tasks)
    cache_arg = str(cache_dir) if cache_dir is not None else None
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        initializer=_worker_init, initargs=(cache_arg,),
    ) as pool:
        futures = [
            pool.submit(_run_indexed, i, t) for i, t in enumerate(tasks)
        ]
        for fut in as_completed(futures):
            index, result = fut.result()
            results[index] = result
    return results


def _run_task(task):
    return task.run()


class TaskPool:
    """Persistent worker pool running ``.run()`` tasks with async completion.

    :func:`run_tasks` is a batch API: it blocks until the whole grid is
    priced.  Long-running callers — the plan service
    (:mod:`repro.service.server`) foremost — instead need to *submit* work
    as it arrives and react per task; this class wraps the same worker
    semantics (picklable ``.run()`` tasks, per-worker plan caches, optional
    shared ``cache_dir`` disk layer) behind ``submit() -> Future``.

    ``jobs <= 1`` degrades to a single *thread* rather than a process: the
    task runs in-process (sharing this process's plan cache) but completion
    stays asynchronous, so callers never block on submission.  The pool is
    lazy — workers start on first submit — and reusable across submissions;
    call :meth:`shutdown` (or use it as a context manager) when done.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        if jobs == 0:
            jobs = default_jobs()
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._executor = None

    def _ensure(self):
        if self._executor is None:
            if self.jobs <= 1:
                self._executor = ThreadPoolExecutor(max_workers=1)
                _worker_init(self.cache_dir)
            else:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_worker_init, initargs=(self.cache_dir,),
                )
        return self._executor

    def submit(self, task) -> Future:
        """Schedule one ``.run()`` task; the future resolves to its result."""
        return self._ensure().submit(_run_task, task)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (idempotent); pending tasks finish when ``wait``."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "TaskPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: shut the workers down."""
        self.shutdown()


def hiccl_grid(
    machine: MachineSpec,
    collectives,
    configs,
    payloads_bytes=(DEFAULT_PAYLOAD_BYTES,),
    warmup: int = 0,
    rounds: int = 1,
) -> list[SweepPoint]:
    """Cartesian HiCCL grid: collectives x configs x payloads, in that order."""
    return [
        SweepPoint(machine, collective, config=cfg, payload_bytes=pb,
                   warmup=warmup, rounds=rounds)
        for collective in collectives
        for cfg in configs
        for pb in payloads_bytes
    ]
