"""The three composition primitives: multicast, reduction, fence (Section 3).

A collective's *logic* is expressed machine-agnostically as steps of
concurrently-executing primitives separated by fences:

* ``Multicast(root i, leaves j, d)`` — one-to-many replication (Figure 3a).
* ``Reduction(leaves i, root j, d, op)`` — many-to-one combining (Figure 3b).
* ``Fence`` — a data-dependency marker between steps (not a barrier).

With a single leaf these degenerate to point-to-point transfers, which is how
Scatter, Gather, and All-to-all are composed (Table 2).

The :class:`Program` accumulates registrations exactly as HiCCL's persistent
communicator does; validation here is purely structural (ranks in range,
views large enough, no duplicate leaves) — race detection between concurrent
primitives happens during lowering where exact byte ranges are known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CompositionError
from .buffers import BufferView, as_view
from .ops import ReduceOp


def _validated_leaves(leaves, world_size: int, what: str) -> tuple[int, ...]:
    out = tuple(int(r) for r in leaves)
    if not out:
        raise CompositionError(f"{what}: leaf set must be non-empty")
    seen = set()
    for r in out:
        if not 0 <= r < world_size:
            raise CompositionError(f"{what}: leaf rank {r} out of range 0..{world_size - 1}")
        if r in seen:
            raise CompositionError(f"{what}: duplicate leaf rank {r}")
        seen.add(r)
    return out


@dataclass(frozen=True)
class Multicast:
    """``M(i, j, d)``: root ``root`` replicates ``count`` elements to ``leaves``.

    The root reads ``sendbuf`` on its own rank; every leaf receives into its
    own ``recvbuf`` at the same symmetric offset.  The root may itself be a
    leaf (in-place delivery through a local copy).
    """

    sendbuf: BufferView
    recvbuf: BufferView
    count: int
    root: int
    leaves: tuple[int, ...]

    @property
    def is_point_to_point(self) -> bool:
        """True for a single leaf (one send, no replication)."""
        return len(self.leaves) == 1

    def sliced(self, offset: int, count: int) -> "Multicast":
        """Sub-primitive on elements ``[offset, offset+count)`` of the payload."""
        return Multicast(
            self.sendbuf.shifted(offset), self.recvbuf.shifted(offset),
            count, self.root, self.leaves,
        )


@dataclass(frozen=True)
class Reduction:
    """``R(i, j, d, op)``: ``leaves`` contribute ``count`` elements each,
    combined with ``op`` into the root's ``recvbuf``.

    Each leaf reads its own ``sendbuf``; only the root's ``recvbuf`` is
    written.  With a single leaf the operation degenerates to a copy (the
    unary reduction the paper notes in Section 3.1).
    """

    sendbuf: BufferView
    recvbuf: BufferView
    count: int
    leaves: tuple[int, ...]
    root: int
    op: ReduceOp

    @property
    def is_point_to_point(self) -> bool:
        """True for a single leaf (a plain copy, no combining)."""
        return len(self.leaves) == 1

    def sliced(self, offset: int, count: int) -> "Reduction":
        """Sub-primitive on elements ``[offset, offset+count)`` of the payload."""
        return Reduction(
            self.sendbuf.shifted(offset), self.recvbuf.shifted(offset),
            count, self.leaves, self.root, self.op,
        )


class Fence:
    """Marker type for the fence primitive.

    Fences are not stored in the program — :meth:`Program.add_fence` starts a
    new step instead — but the type exists so compositions can be described
    as data (lists of primitives and fences) where convenient.
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Fence()"


Primitive = Multicast | Reduction


@dataclass
class Program:
    """Registered primitives, partitioned into steps by fences (Section 3.3)."""

    world_size: int
    steps: list[list[Primitive]] = field(default_factory=lambda: [[]])

    def add_multicast(self, sendbuf, recvbuf, count: int, root: int, leaves) -> Multicast:
        """Validate and register ``M(root, leaves, count)`` in the current
        step; returns the registered primitive."""
        send = as_view(sendbuf)
        recv = as_view(recvbuf)
        leaves = _validated_leaves(leaves, self.world_size, "add_multicast")
        if not 0 <= root < self.world_size:
            raise CompositionError(f"add_multicast: root rank {root} out of range")
        send.check_capacity(count, "add_multicast sendbuf")
        recv.check_capacity(count, "add_multicast recvbuf")
        prim = Multicast(send, recv, int(count), int(root), leaves)
        self.steps[-1].append(prim)
        return prim

    def add_reduction(self, sendbuf, recvbuf, count: int, leaves, root: int, op: ReduceOp) -> Reduction:
        """Validate and register ``R(leaves, root, count, op)`` in the
        current step; returns the registered primitive."""
        send = as_view(sendbuf)
        recv = as_view(recvbuf)
        leaves = _validated_leaves(leaves, self.world_size, "add_reduction")
        if not 0 <= root < self.world_size:
            raise CompositionError(f"add_reduction: root rank {root} out of range")
        if not isinstance(op, ReduceOp):
            raise CompositionError(f"add_reduction: op must be a ReduceOp, got {op!r}")
        send.check_capacity(count, "add_reduction sendbuf")
        recv.check_capacity(count, "add_reduction recvbuf")
        prim = Reduction(send, recv, int(count), leaves, int(root), op)
        self.steps[-1].append(prim)
        return prim

    def add_fence(self) -> None:
        """Start a new step; later primitives depend (finely) on earlier ones."""
        if not self.steps[-1]:
            # A fence with nothing before it is a no-op, matching the paper's
            # semantics that fences only order *registered* primitives.
            return
        self.steps.append([])

    @property
    def num_steps(self) -> int:
        """Number of nonempty steps (fence-separated groups)."""
        return len([s for s in self.steps if s])

    @property
    def primitives(self) -> list[Primitive]:
        """Every registered primitive, in registration order."""
        return [p for step in self.steps for p in step]

    def max_count(self) -> int:
        """Largest per-primitive payload (drives pipeline channel sizing)."""
        counts = [p.count for p in self.primitives]
        return max(counts) if counts else 0

    def participants(self) -> set[int]:
        """All ranks touched by any primitive (for hierarchy pruning checks)."""
        ranks: set[int] = set()
        for p in self.primitives:
            ranks.add(p.root)
            ranks.update(p.leaves)
        return ranks
