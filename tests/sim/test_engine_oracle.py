"""Differential test: the columns event loop vs the object-loop oracle.

:mod:`engine_oracle` keeps the event loop as it ran over scalar-priced
``PricedOp`` objects keyed by resource tuples.  The engine now runs the
same discipline over ``PricedColumns`` with dense integer resource ids, so
two details must survive the port bit for bit:

* **tie order** — resource-free events at one instant pop in resource-key
  tuple order (``link_rx`` before ``link_tx``), not in the packed-code
  order of the column encoding;
* **float association** — finish times are ``((now + alpha) + transfer)
  + gamma`` and occupancies ``overhead + dur``, exactly as the objects
  summed them.

The random DAGs run on a 4-rank machine with one NIC per node, so ops
share few resources: equal payloads free tx/rx pairs at the same instant,
and blocked ops park and migrate between queues.  The workload cases add
launch offsets (some equal), ``after`` edges and seeded fault sets, whose
asymmetric tx/rx rates break those ties differently.  ``derandomize=True``
keeps every example reproducible.
"""

from __future__ import annotations

import engine_oracle as oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.configs import best_config
from repro.bench.runner import payload_count
from repro.core.communicator import Communicator
from repro.core.composition import compose
from repro.core.ops import ReduceOp
from repro.core.schedule import ScheduleBuilder
from repro.machine.faults import FaultSet
from repro.machine.machines import by_name, generic
from repro.simulator.engine import JobSpec, simulate, simulate_workload
from repro.transport.library import Library

SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

MACHINE = generic(2, 2, 1, name="oracle")
LIBS = (Library.MPI, Library.IPC)
REGION = 1 << 16


@st.composite
def contended_schedule(draw, max_ops: int = 30):
    """Random DAG over few resources: equal payloads, shared endpoints.

    Writes land in disjoint per-op regions so the builder's race detection
    never fires; dependencies point backward.
    """
    n_ops = draw(st.integers(1, max_ops))
    world = MACHINE.world_size
    b = ScheduleBuilder(world)
    uids: list[int] = []
    for i in range(n_ops):
        src = draw(st.integers(0, world - 1))
        dst = draw(st.integers(0, world - 1))
        count = draw(st.sampled_from([256, 4096, 4096]))
        n_deps = draw(st.integers(0, min(2, len(uids))))
        deps = tuple(sorted({draw(st.sampled_from(uids))
                             for _ in range(n_deps)})) if uids else ()
        region = i * REGION
        if src == dst:
            uid = b.copy(src, ("src", region), ("dst", region), count,
                         deps=deps)
        else:
            same_node = (src // MACHINE.gpus_per_node
                         == dst // MACHINE.gpus_per_node)
            reduce_op = draw(st.sampled_from([None, ReduceOp.SUM]))
            uid = b.send(src, dst, ("src", region), ("dst", region), count,
                         level=1 if same_node else 0, deps=deps,
                         reduce_op=reduce_op)
        uids.append(uid)
    return b.build()


def _assert_same_busy(busy, expected):
    """Equal values *and* the same first-booking key order."""
    assert list(busy.items()) == list(expected.items())


class TestRandomDags:
    @settings(max_examples=80, **SETTINGS)
    @given(sched=contended_schedule())
    def test_event_loop_matches_oracle(self, sched):
        timing = simulate(sched, MACHINE, LIBS, 4, engine="event")
        start, completion, makespan, busy = oracle.simulate(
            sched, MACHINE, LIBS, 4)
        assert timing.start_times == start
        assert timing.completion_times == completion
        assert timing.elapsed == makespan
        _assert_same_busy(timing.resource_busy, busy)


@st.composite
def contended_workload(draw):
    """2-4 jobs with offsets, ``after`` edges and a seeded fault set."""
    n_jobs = draw(st.integers(2, 4))
    jobs = []
    for j in range(n_jobs):
        after = tuple(sorted(draw(st.sets(st.integers(0, j - 1),
                                          max_size=2)))) if j else ()
        jobs.append(JobSpec(
            schedule=draw(contended_schedule(max_ops=12)),
            libraries=LIBS,
            offset=draw(st.sampled_from([0.0, 0.0, 2e-6, 1e-5])),
            after=after,
            name=f"j{j}",
        ))
    seed = draw(st.integers(0, 2**16))
    faults = draw(st.sampled_from([
        FaultSet(),
        FaultSet.random(MACHINE, seed, down_nics=0, link_derates=1,
                        stragglers=1),
        FaultSet.random(MACHINE, seed, down_nics=1, link_derates=2,
                        stragglers=2),
    ]))
    return jobs, faults.apply(MACHINE)


class TestWorkloads:
    @settings(max_examples=60, **SETTINGS)
    @given(case=contended_workload())
    def test_workload_loop_matches_oracle(self, case):
        jobs, machine = case
        result = simulate_workload(jobs, machine, engine="event")
        makespan, expected_jobs, busy = oracle.simulate_workload(jobs,
                                                                 machine)
        assert result.makespan == makespan
        for got, (start, finish, op_starts, op_comps) in zip(result.jobs,
                                                             expected_jobs):
            assert (got.start, got.finish) == (start, finish)
            assert got.op_start_times == op_starts
            assert got.op_completion_times == op_comps
        _assert_same_busy(result.resource_busy, busy)


@pytest.mark.parametrize("collective", ["all_reduce", "all_to_all"])
def test_contended_collective_matches_oracle(collective):
    """A striped, pipelined fig8 lowering: thousands of parked ops."""
    machine = by_name("perlmutter", nodes=2)
    comm = Communicator(machine, materialize=False)
    compose(comm, collective, payload_count(machine, 1 << 22))
    comm.init(**best_config(machine, collective).init_kwargs())
    libs = comm.plan.libraries
    timing = simulate(comm.schedule, machine, libs, 4, engine="event")
    start, completion, makespan, busy = oracle.simulate(comm.schedule,
                                                        machine, libs, 4)
    assert timing.start_times == start
    assert timing.completion_times == completion
    assert timing.elapsed == makespan
    _assert_same_busy(timing.resource_busy, busy)
