"""Pass pipeline: semantics preservation, templates, round-trip, opt passes.

The satellite contract of the pass-based lowering refactor:

* every pass preserves data-movement semantics — the functional executor
  produces identical buffers on randomized programs, on both committed
  machine models (Perlmutter and Delta, the systems whose tuned baselines
  are committed under ``benchmarks/output/``);
* the template-replication fast path of the pipelining pass emits exactly
  the same schedule as lowering every channel explicitly;
* the array <-> object round trip is lossless;
* the optional fusion/DCE passes change only pricing, never data movement.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import plancache
from repro.core.communicator import Communicator
from repro.core.ops import ReduceOp
from repro.core.passes import OPTIMIZATION_PASSES, PassPipeline, lower_program
from repro.core.passes import pipelining
from repro.core.plan import OptimizationPlan
from repro.core.schedule import Schedule, ScheduleBuilder
from repro.machine.machines import by_name
from repro.transport.library import Library

#: The two committed machine models (tuned baselines live in
#: benchmarks/output/tuned_{perlmutter,delta}.txt).
MACHINES = [by_name("perlmutter", nodes=2), by_name("delta", nodes=2)]


@pytest.fixture(autouse=True)
def fresh_cache():
    """Keep every lowering cold so pipelines actually run."""
    plancache.configure(disk_dir=None)
    yield
    plancache.reset()


def random_program(comm: Communicator, rng: random.Random,
                   prims: int = 4) -> list[str]:
    """Register a race-free random composition; returns the recv buffers.

    Every primitive writes its own recv buffer, so any mixture of
    multicasts and reductions across fences is race-free by construction
    while still sharing send-side ranges (fodder for fence dependencies).
    """
    p = comm.world_size
    count = rng.choice([5, 16, 33])
    send = comm.alloc(count, "sendbuf")
    recvs = []
    for i in range(prims):
        recv = comm.alloc(count, f"recv{i}")
        recvs.append(f"recv{i}")
        root = rng.randrange(p)
        leaves = rng.sample(range(p), rng.randint(1, p))
        if rng.random() < 0.5:
            comm.add_multicast(send, recv, count, root, leaves)
        else:
            op = rng.choice([ReduceOp.SUM, ReduceOp.MAX])
            comm.add_reduction(send, recv, count, leaves, root, op)
        if rng.random() < 0.4:
            comm.add_fence()
    return recvs


def random_plan(machine, rng: random.Random) -> dict:
    """A valid random optimization plan for ``machine``."""
    g = machine.gpus_per_node
    nodes = machine.nodes
    hierarchy = rng.choice([[machine.world_size], [nodes, g], [nodes, 2, g // 2]])
    libraries = [Library.MPI] * len(hierarchy)
    ring = rng.choice([1, hierarchy[0]]) if len(hierarchy) > 1 else 1
    return dict(
        hierarchy=hierarchy, library=libraries,
        stripe=rng.randint(1, g), ring=ring,
        pipeline=rng.choice([1, 3, 8]),
    )


def _buffers_after_execution(machine, seed: int, optimize=()) -> dict:
    rng = random.Random(seed)
    comm = Communicator(machine)
    recvs = random_program(comm, rng)
    plan = random_plan(machine, rng)
    comm.init(**plan, use_cache=False, optimize=optimize)
    count = comm.array("sendbuf", 0).shape[0]
    vals = np.random.default_rng(seed).integers(
        -9, 9, (machine.world_size, count)
    ).astype(np.float32)
    comm.set_all("sendbuf", vals)
    comm.run()
    return {name: comm.gather_all(name).copy() for name in recvs}


class TestSemanticsPreserved:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_optimization_passes_preserve_data_movement(self, machine, seed):
        """fuse+dce executor output == baseline on randomized programs."""
        base = _buffers_after_execution(machine, seed)
        opt = _buffers_after_execution(machine, seed, optimize=("fuse", "dce"))
        assert base.keys() == opt.keys()
        for name in base:
            np.testing.assert_array_equal(base[name], opt[name])

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(6))
    def test_template_replication_matches_per_channel_lowering(
            self, machine, seed, monkeypatch):
        """The array-replicated channels equal the explicit fallback path."""
        def lowered(force_fallback: bool):
            rng = random.Random(seed)
            comm = Communicator(machine, materialize=False)
            random_program(comm, rng)
            plan_kwargs = random_plan(machine, rng)
            plan = OptimizationPlan.create(
                machine, plan_kwargs["hierarchy"], plan_kwargs["library"],
                stripe=plan_kwargs["stripe"], ring=plan_kwargs["ring"],
                pipeline=plan_kwargs["pipeline"],
            )
            if force_fallback:
                monkeypatch.setattr(
                    pipelining, "channels_separable", lambda program: False
                )
            else:
                monkeypatch.undo()
            return lower_program(comm.program, plan)

        fast = lowered(False)
        slow = lowered(True)
        # Same ops modulo scratch buffer naming (allocation grouping
        # differs between the two paths; fresh names never alias either way).
        def normalized(schedule):
            names = {}

            def norm(buf):
                if buf.startswith("_"):
                    return names.setdefault(buf, f"S{len(names)}")
                return buf

            return [
                (op.src, op.dst, norm(op.src_buf), op.src_off,
                 norm(op.dst_buf), op.dst_off, op.count, op.reduce_op,
                 op.level, op.channel, op.stage, op.deps, op.tag)
                for op in schedule.ops
            ]

        assert normalized(fast) == normalized(slow)
        assert sorted(
            sorted(v.items()) for v in fast.scratch.values()
        ) == sorted(sorted(v.items()) for v in slow.scratch.values())

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("optimize", [("fuse", "dce"), ("dce", "fuse")],
                             ids="-".join)
    def test_pass_summaries_cover_every_stage(self, machine, optimize):
        """Every pass reports a summary, the optional ones in the given
        order."""
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(64, "sendbuf")
        recv = comm.alloc(64, "recvbuf")
        comm.add_multicast(send, recv, 64, 0, list(range(machine.world_size)))
        plan = OptimizationPlan.create(
            machine, [machine.nodes, machine.gpus_per_node],
            [Library.MPI, Library.IPC], stripe=2, pipeline=4,
        )
        result = PassPipeline(plan, optimize=optimize).run(comm.program)
        names = [s["pass"] for s in result.summaries]
        assert names == [
            "expand-logic", "hierarchy", "pipelining", "striping",
            "ring-tree", "channel-binding",
        ] + [OPTIMIZATION_PASSES[name].name for name in optimize]
        bind = result.summaries[5]
        assert bind["ops"] == len(result.schedule) or bind["ops"] >= len(
            result.schedule)  # opt passes may shrink the final schedule
        assert "scratch-high-water" in bind and "by-kind" in bind
        assert result.render()  # human-readable dump is non-empty


class TestRoundTrip:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("seed", range(4))
    def test_array_object_round_trip_lossless(self, machine, seed):
        rng = random.Random(1000 + seed)
        comm = Communicator(machine, materialize=False)
        random_program(comm, rng)
        comm.init(**random_plan(machine, rng), use_cache=False)
        sched = comm.schedule
        rebuilt = Schedule.from_ops(
            sched.world_size, sched.ops, sched.scratch, sched.num_channels
        )
        for column in ("src", "dst", "src_off", "dst_off", "count",
                       "reduce", "level", "channel", "stage"):
            np.testing.assert_array_equal(
                getattr(sched, column), getattr(rebuilt, column), err_msg=column
            )
        np.testing.assert_array_equal(sched.dep_indptr, rebuilt.dep_indptr)
        np.testing.assert_array_equal(sched.dep_indices, rebuilt.dep_indices)
        assert rebuilt.scratch == sched.scratch
        assert rebuilt.ops == sched.ops  # P2POp views are fully equal

    def test_views_match_csr(self):
        machine = MACHINES[0]
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(32, "sendbuf")
        recv = comm.alloc(32, "recvbuf")
        comm.add_reduction(send, recv, 32, list(range(machine.world_size)),
                           0, ReduceOp.SUM)
        comm.init(hierarchy=[2, 4], library=[Library.MPI, Library.IPC],
                  pipeline=2, use_cache=False)
        sched = comm.schedule
        for op in sched.ops:
            assert op.deps == sched.deps_of(op.uid)
            assert op.src == int(sched.src[op.uid])
            assert op.count == int(sched.count[op.uid])


class TestVectorizedStats:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_stats_match_object_loop_reference(self, machine):
        rng = random.Random(42)
        comm = Communicator(machine, materialize=False)
        random_program(comm, rng)
        comm.init(**random_plan(machine, rng), use_cache=False)
        sched = comm.schedule
        # Reference implementations over the object views.
        vols = {"inter-node": 0, "intra-node": 0, "local": 0}
        mat = [[0] * sched.world_size for _ in range(sched.world_size)]
        for op in sched.ops:
            if op.is_local:
                vols["local"] += op.count
            elif machine.same_node(op.src, op.dst):
                vols["intra-node"] += op.count
            else:
                vols["inter-node"] += op.count
            if not op.is_local:
                mat[op.src][op.dst] += op.count
        assert sched.volume_by_kind(machine) == vols
        assert sched.comm_matrix() == mat
        assert sched.total_elements() == sum(op.count for op in sched.ops)
        assert sched.stage_count() == len(
            {op.stage for op in sched.ops if op.channel == 0}
        )
        levels = {}
        for op in sched.ops:
            lvl = -1 if op.level is None else op.level
            levels[lvl] = levels.get(lvl, 0) + op.count
        assert sched.volume_by_level() == levels


class TestOptimizationPasses:
    def test_fusion_collapses_pipelined_single_branch(self):
        """Adjacent channel chunks of one hop merge into one message."""
        machine = by_name("delta", nodes=2)
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(256, "s")
        recv = comm.alloc(256, "r")
        comm.add_multicast(send, recv, 256, 0, list(range(8)))
        plan = OptimizationPlan.create(machine, [2, 4],
                                       [Library.MPI, Library.IPC],
                                       stripe=1, pipeline=16)
        unfused = lower_program(comm.program, plan)
        fused = lower_program(comm.program, plan, optimize=("fuse",))
        assert len(fused) < len(unfused) / 4
        assert fused.total_elements() == unfused.total_elements()

    def test_dce_removes_unread_scratch_write(self):
        b = ScheduleBuilder(4)
        u0 = b.send(0, 1, ("s", 0), ("r", 0), 8, level=0)
        dead_loc = b.alloc_scratch(2, 8, hint="dead")
        b.send(0, 2, ("s", 0), dead_loc, 8, level=0, deps=(u0,))
        sched = b.build()
        from repro.core.passes.opt import DeadCopyEliminationPass

        swept, summary = DeadCopyEliminationPass().run(sched)
        assert summary["removed"] == 1
        assert len(swept) == 1
        assert swept.ops[0].dst_buf == "r"

    def test_dce_cascades_through_dead_chains(self):
        """A producer whose only consumer is dead dies in the same sweep."""
        b = ScheduleBuilder(4)
        stage1 = b.alloc_scratch(1, 8, hint="c1")
        stage2 = b.alloc_scratch(2, 8, hint="c2")
        b.send(0, 1, ("s", 0), stage1, 8, level=0)
        b.send(1, 2, stage1, stage2, 8, level=0, deps=(0,))
        b.send(0, 3, ("s", 0), ("r", 0), 8, level=0)
        sched = b.build()
        from repro.core.passes.opt import DeadCopyEliminationPass

        swept, summary = DeadCopyEliminationPass().run(sched)
        assert summary["removed"] == 2
        assert len(swept) == 1

    def test_dce_keeps_read_scratch(self):
        b = ScheduleBuilder(4)
        loc = b.alloc_scratch(1, 8, hint="live")
        b.send(0, 1, ("s", 0), loc, 8, level=0)
        b.send(1, 2, loc, ("r", 0), 8, level=0, deps=(0,))
        sched = b.build()
        from repro.core.passes.opt import DeadCopyEliminationPass

        swept, summary = DeadCopyEliminationPass().run(sched)
        assert summary["removed"] == 0
        assert len(swept) == 2

    def test_fused_schedule_executes_correctly(self):
        machine = by_name("perlmutter", nodes=2)
        comm = Communicator(machine)
        send = comm.alloc(100, "s")
        recv = comm.alloc(100, "r")
        comm.add_multicast(send, recv, 100, 3, list(range(8)))
        comm.init(hierarchy=[2, 4], library=[Library.MPI, Library.IPC],
                  stripe=1, pipeline=8, use_cache=False,
                  optimize=("fuse", "dce"))
        vals = np.arange(800, dtype=np.float32).reshape(8, 100)
        comm.set_all("s", vals)
        comm.run()
        got = comm.gather_all("r")
        for r in range(8):
            np.testing.assert_array_equal(got[r], vals[3])

    def test_unknown_optimize_flag_rejected(self):
        machine = MACHINES[0]
        comm = Communicator(machine, materialize=False)
        send = comm.alloc(8, "s")
        recv = comm.alloc(8, "r")
        comm.add_multicast(send, recv, 8, 0, [0, 1])
        with pytest.raises(ValueError, match="unknown optimization"):
            comm.init(hierarchy=[8], library=[Library.MPI],
                      optimize=("inline",), use_cache=False)


def _digest_parts(schedule) -> tuple:
    """Everything lowering produces: the 12 columns, the CSR dependency
    arrays, buffer and tag names, scratch sizes and the channel count."""
    from repro.core.schedule import COLUMNS

    return (
        tuple(getattr(schedule, name).tobytes() for name, _ in COLUMNS),
        schedule.dep_indptr.tobytes(), schedule.dep_indices.tobytes(),
        schedule.buffer_names, schedule.tag_names, schedule.scratch,
        schedule.num_channels,
    )


#: (machine, collective) pairs whose every planner candidate the premise
#: test lowers: the four committed systems on the cheap rooted collectives,
#: and the two tuned-baseline systems on two all-to-all ones as well.
_PREMISE_CASES = [
    (system, collective)
    for system in ("delta", "perlmutter", "frontier", "aurora")
    for collective in ("broadcast", "reduce")
] + [
    (system, collective)
    for system in ("delta", "perlmutter")
    for collective in ("all_reduce", "all_gather")
]


@pytest.mark.parametrize("system,collective", _PREMISE_CASES)
def test_lowering_never_reads_the_libraries(system, collective):
    """The plan cache keys schedules without the library vector; that is
    sound only while lowering ignores it.  Lowering with no libraries at
    all must be bit-identical to lowering with each candidate's own."""
    import dataclasses

    from repro.core.composition import compose
    from repro.planner.space import SearchSpace

    machine = by_name(system, nodes=2)
    comm = Communicator(machine, materialize=False)
    compose(comm, collective, 64)
    bare = {}
    for cand in SearchSpace.build(machine, pipelines=(1, 4)).candidates():
        plan = OptimizationPlan.create(
            machine, cand.hierarchy, cand.libraries, stripe=cand.stripe,
            ring=cand.ring, pipeline=cand.pipeline)
        shape = (cand.hierarchy, cand.stripe, cand.ring, cand.pipeline)
        if shape not in bare:
            bare[shape] = _digest_parts(lower_program(
                comm.program, dataclasses.replace(plan, libraries=())))
        assert _digest_parts(lower_program(comm.program, plan)) \
            == bare[shape], cand
