"""Optional IR -> IR optimization passes over the bound schedule.

Two optimizations the historical monolithic lowering could not express,
because they need a *whole* bound dependency graph to reason about:

:class:`FuseContiguousSendsPass`
    Merges runs of transfers between the same endpoint pair whose source
    and destination ranges are contiguous and whose dependency sets are
    identical — the per-message alpha cost is then paid once for the run
    instead of once per chunk.  The richest fodder is *pipeline channels*:
    consecutive channels of the same logical hop carry adjacent payload
    slices, so on latency-bound payloads the pass collapses an over-split
    pipeline back into single messages (the fused op keeps the first
    chunk's channel; fusion cascades stage by stage as the merged uids make
    downstream dependency sets equal again).

:class:`DeadCopyEliminationPass`
    Drops ops whose written range lands in scratch and is never read by
    any later op (transitively: a producer whose only consumer died is
    collected in the same backward sweep).  User-visible buffers are
    outputs by definition and are never eliminated.

Both passes preserve data-movement semantics (the functional executor
produces identical buffers) but *change pricing* — a fused message pays one
latency, a dead copy pays nothing — so they are **off by default**: the
committed baselines regenerate byte-identically without them.  Enable via
``lower_program(..., optimize=("fuse", "dce"))``, ``Communicator.init(
optimize=("fuse", "dce"))``, or ``repro lower --fuse --dce``.
"""

from __future__ import annotations

from ..intervals import IntervalSet
from ..schedule import P2POp, Schedule


class FuseContiguousSendsPass:
    """Merge contiguous same-pair transfers with identical dependencies."""

    name = "fuse-contiguous"

    def run(self, schedule: Schedule) -> tuple[Schedule, dict]:
        """Return the fused schedule and a summary of what was merged."""
        kept: list[P2POp] = []
        uid_map: dict[int, int] = {}
        #: fusion key -> (index into ``kept``, src_end, dst_end, deps)
        candidates: dict[tuple, tuple[int, int, int, tuple[int, ...]]] = {}
        fused = 0
        for op in schedule.ops:
            deps = tuple(sorted({uid_map[d] for d in op.deps}))
            # Channel is deliberately absent: adjacent pipeline channels of
            # one logical hop are the main fusion opportunity.
            key = (op.src, op.dst, op.src_buf, op.dst_buf, op.level,
                   op.stage, op.reduce_op, op.tag)
            cand = candidates.get(key)
            if (cand is not None
                    and op.src_off == cand[1]
                    and op.dst_off == cand[2]
                    and deps == cand[3]):
                idx, _, _, _ = cand
                prev = kept[idx]
                kept[idx] = P2POp(
                    uid=prev.uid, src=prev.src, dst=prev.dst,
                    src_buf=prev.src_buf, src_off=prev.src_off,
                    dst_buf=prev.dst_buf, dst_off=prev.dst_off,
                    count=prev.count + op.count,
                    reduce_op=prev.reduce_op, level=prev.level,
                    channel=prev.channel, stage=prev.stage,
                    deps=prev.deps, tag=prev.tag,
                )
                uid_map[op.uid] = prev.uid
                candidates[key] = (idx, op.src_off + op.count,
                                   op.dst_off + op.count, deps)
                fused += 1
                continue
            uid = len(kept)
            uid_map[op.uid] = uid
            kept.append(P2POp(
                uid=uid, src=op.src, dst=op.dst,
                src_buf=op.src_buf, src_off=op.src_off,
                dst_buf=op.dst_buf, dst_off=op.dst_off,
                count=op.count, reduce_op=op.reduce_op, level=op.level,
                channel=op.channel, stage=op.stage, deps=deps, tag=op.tag,
            ))
            candidates[key] = (uid, op.src_off + op.count,
                               op.dst_off + op.count, deps)
        result = Schedule.from_ops(
            schedule.world_size, kept, schedule.scratch, schedule.num_channels
        )
        return result, {"pass": self.name, "fused": fused,
                        "ops": len(result)}


class DeadCopyEliminationPass:
    """Drop writes into scratch that no later op ever reads."""

    name = "dead-copy-elim"

    def run(self, schedule: Schedule) -> tuple[Schedule, dict]:
        """Return the swept schedule and a summary of what was removed."""
        scratch_bufs = set(schedule.scratch)
        live_reads: dict[tuple[int, str], IntervalSet] = {}

        def reads_overlap(rank: int, buf: str, lo: int, hi: int) -> bool:
            reads = live_reads.get((rank, buf))
            return reads is not None and bool(reads.tags_overlapping(lo, hi))

        def record_read(rank: int, buf: str, lo: int, hi: int) -> None:
            live_reads.setdefault((rank, buf), IntervalSet()).add(lo, hi, 0)

        alive: list[P2POp] = []
        removed = 0
        for op in reversed(schedule.ops):
            dead = (
                op.dst_buf in scratch_bufs
                and not reads_overlap(op.dst, op.dst_buf, op.dst_off,
                                      op.dst_off + op.count)
            )
            if dead:
                removed += 1
                continue
            record_read(op.src, op.src_buf, op.src_off, op.src_off + op.count)
            if op.reduce_op is not None:
                record_read(op.dst, op.dst_buf, op.dst_off,
                            op.dst_off + op.count)
            alive.append(op)
        alive.reverse()
        uid_map = {op.uid: new for new, op in enumerate(alive)}
        renumbered = [
            P2POp(
                uid=new, src=op.src, dst=op.dst,
                src_buf=op.src_buf, src_off=op.src_off,
                dst_buf=op.dst_buf, dst_off=op.dst_off,
                count=op.count, reduce_op=op.reduce_op, level=op.level,
                channel=op.channel, stage=op.stage,
                deps=tuple(sorted(uid_map[d] for d in op.deps
                                  if d in uid_map)),
                tag=op.tag,
            )
            for new, op in enumerate(alive)
        ]
        referenced = {op.src_buf for op in renumbered}
        referenced.update(op.dst_buf for op in renumbered)
        scratch = {
            name: sizes for name, sizes in schedule.scratch.items()
            if name in referenced
        }
        result = Schedule.from_ops(
            schedule.world_size, renumbered, scratch, schedule.num_channels,
        )
        return result, {"pass": self.name, "removed": removed,
                        "ops": len(result)}
