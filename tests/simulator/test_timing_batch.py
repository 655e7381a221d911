"""Batch pricing must be bit-identical to the scalar reference.

DESIGN.md promises that :func:`repro.simulator.timing.price_schedule`
equals mapping :func:`price_op` over the schedule's ops elementwise — same
float64 operations in the same order — so the vectorized cost model can
never silently drift from the documented scalar one.  These tests pin that
contract on real lowered schedules across machine models, NIC bindings,
reductions, and both the above- and below-threshold paths.
"""

from __future__ import annotations

import pytest

from repro.core.communicator import Communicator
from repro.core.composition import compose
from repro.machine.faults import FaultSet
from repro.machine.machines import aurora, delta, frontier, generic, perlmutter
from repro.simulator.timing import BATCH_MIN_OPS, price_op, price_schedule
from repro.transport.library import Library


def _schedule(machine, collective, count, **init_kwargs):
    comm = Communicator(machine, materialize=False)
    compose(comm, collective, count)
    comm.init(use_cache=False, **init_kwargs)
    return comm.schedule, comm.plan.libraries


CASES = [
    # (machine, collective, init kwargs) — spans all four paper systems,
    # packed/bijective/round-robin bindings, dual-die intra levels,
    # reductions, striping, rings, pipelining, and a degraded machine whose
    # down NIC, link derates and stragglers price tx and rx asymmetrically.
    (perlmutter(nodes=4), "all_reduce",
     dict(hierarchy=[4, 4], library=[Library.NCCL, Library.IPC],
          stripe=4, ring=1, pipeline=4)),
    (perlmutter(nodes=2), "broadcast",
     dict(hierarchy=[2, 4], library=[Library.NCCL, Library.IPC],
          stripe=4, ring=2, pipeline=8)),
    (delta(nodes=2), "reduce",
     dict(hierarchy=[2, 4], library=[Library.MPI, Library.IPC],
          stripe=2, ring=1, pipeline=8)),
    (frontier(nodes=2), "all_gather",
     dict(hierarchy=[2, 4, 2], library=[Library.MPI, Library.IPC, Library.IPC],
          stripe=4, ring=1, pipeline=2)),
    (aurora(nodes=2), "gather",
     dict(hierarchy=[2, 6, 2], library=[Library.MPI, Library.IPC, Library.IPC],
          stripe=4, ring=1, pipeline=1)),
    (generic(2, 3, 2, name="oddshape"), "all_to_all",
     dict(hierarchy=[2, 3], library=[Library.MPI, Library.IPC],
          stripe=1, ring=1, pipeline=4)),
    (FaultSet.random(frontier(nodes=2), 1).apply(frontier(nodes=2)),
     "reduce_scatter",
     dict(hierarchy=[2, 4, 2], library=[Library.MPI, Library.IPC, Library.IPC],
          stripe=4, ring=1, pipeline=2)),
]


@pytest.mark.parametrize("machine,collective,kwargs",
                         CASES, ids=[f"{m.name}-{c}" for m, c, _ in CASES])
@pytest.mark.parametrize("elem_bytes", [4, 8])
def test_price_schedule_elementwise_equal(machine, collective, kwargs,
                                          elem_bytes):
    schedule, libraries = _schedule(machine, collective, 1 << 12, **kwargs)
    assert len(schedule) >= BATCH_MIN_OPS  # the numpy path, not the fallback
    batch = price_schedule(schedule, machine, libraries, elem_bytes)
    scalar = [price_op(op, machine, libraries, elem_bytes)
              for op in schedule.ops]
    assert batch == scalar  # PricedOp is frozen: exact float + resource keys


def test_small_schedules_take_the_scalar_path():
    machine = generic(2, 2, 1, name="tiny")
    schedule, libraries = _schedule(
        machine, "broadcast", 8,
        hierarchy=[2, 2], library=[Library.MPI, Library.IPC])
    assert len(schedule) < BATCH_MIN_OPS
    assert price_schedule(schedule, machine, libraries, 4) == [
        price_op(op, machine, libraries, 4) for op in schedule.ops]


def test_invalid_level_raises_same_error():
    machine = perlmutter(nodes=2)
    schedule, libraries = _schedule(
        machine, "broadcast", 1 << 12,
        hierarchy=[2, 4], library=[Library.NCCL, Library.IPC], pipeline=4)
    with pytest.raises(ValueError, match="no valid library level"):
        price_schedule(schedule, machine, (), 4)
