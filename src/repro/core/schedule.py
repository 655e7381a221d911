"""Lowered IR: a dependency graph of point-to-point operations.

The pass pipeline (:mod:`repro.core.passes`) lowers every registered
primitive down to this IR — "a dependency graph composed of multiple
point-to-point communication stages" (Section 4.4).  Two interpreters consume
the same graph: the functional executor (moves real numpy data, proving
correctness) and the discrete-event engine (prices the graph on a machine
model).

**Array form.**  A :class:`Schedule` is a compact structure-of-arrays: one
numpy column per op field (``src``/``dst``/offsets/``count``/``level``/
``stage``/...) plus the dependency graph in CSR form
(``dep_indptr``/``dep_indices``).  The simulator's pricing and graph
construction, the planner's volume statistics, and the plan cache's on-disk
layer all consume the columns directly — no per-op Python objects on any hot
path.  :class:`P2POp` remains as a *lazy view* materialized on first access
to :attr:`Schedule.ops`, for debugging, the functional executor, and tests.

The :class:`ScheduleBuilder` is where the paper's fence semantics live.  A
fence "is not a barrier, but a mechanism to express data dependencies"
(Section 3.3): when an op of step *k+1* is added, the builder consults
per-(rank, buffer) interval maps of committed writes/reads and adds
dependencies only on the ops whose byte ranges actually conflict
(read-after-write, write-after-write, write-after-read).  ``M0`` therefore
depends on ``R0`` but not on ``R1`` — exactly Figure 4 — and pipelined
channels, which touch disjoint ranges, share no cross-channel edges at all.

Within a step, primitives execute concurrently; if lowering detects two ops
writing overlapping bytes with no ordering between them it raises
:class:`~repro.errors.RaceConditionError` (the paper declares such
compositions undefined; we refuse to build them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RaceConditionError, ScheduleError
from .intervals import IntervalSet
from .ops import ReduceOp

#: Location of data on a specific rank: (rank, buffer name, element offset).
Loc = tuple[int, str, int]

#: Stable integer codes for :class:`ReduceOp` values in the ``reduce`` column
#: (-1 encodes "no reduction", i.e. a plain copy/send).
REDUCE_CODES: tuple[ReduceOp, ...] = tuple(ReduceOp)
_CODE_OF_REDUCE = {op: i for i, op in enumerate(REDUCE_CODES)}


@dataclass(frozen=True)
class P2POp:
    """One point-to-point transfer (optionally reducing at the destination).

    ``level`` indexes the *virtual* hierarchy level whose boundary the
    transfer crosses (selecting the per-level library); ``None`` marks local
    copies, which use the GPU's copy engine.  ``channel`` and ``stage`` are
    bookkeeping for pipeline reporting (Figures 6-7).

    Instances are materialized lazily from the schedule's arrays (see
    :attr:`Schedule.ops`); the simulator never touches them.
    """

    uid: int
    src: int
    dst: int
    src_buf: str
    src_off: int
    dst_buf: str
    dst_off: int
    count: int
    reduce_op: ReduceOp | None
    level: int | None
    channel: int
    stage: int
    deps: tuple[int, ...]
    tag: str = ""

    @property
    def is_local(self) -> bool:
        """True for an on-rank copy (``src == dst``, no network hop)."""
        return self.src == self.dst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arrow = f"{self.src}->{self.dst}"
        red = f" {self.reduce_op.name}" if self.reduce_op else ""
        return (
            f"P2POp#{self.uid}[{arrow} {self.src_buf}+{self.src_off} -> "
            f"{self.dst_buf}+{self.dst_off} x{self.count}{red} "
            f"lvl={self.level} ch={self.channel} st={self.stage} deps={list(self.deps)}]"
        )


#: Column names of the structure-of-arrays backing store, with their dtypes.
#: ``src_buf``/``dst_buf`` index :attr:`Schedule.buffer_names`; ``tag``
#: indexes :attr:`Schedule.tag_names`; ``reduce`` indexes
#: :data:`REDUCE_CODES` (-1 = none); ``level`` uses -1 for local copies.
COLUMNS: tuple[tuple[str, type], ...] = (
    ("src", np.int32),
    ("dst", np.int32),
    ("src_buf", np.int32),
    ("src_off", np.int64),
    ("dst_buf", np.int32),
    ("dst_off", np.int64),
    ("count", np.int64),
    ("reduce", np.int8),
    ("level", np.int16),
    ("channel", np.int32),
    ("stage", np.int32),
    ("tag", np.int16),
)


class Schedule:
    """An immutable lowered program in structure-of-arrays form.

    Construct with :meth:`from_arrays` (the pass pipeline's path) or
    :meth:`from_ops` (object-list form, also the round-trip inverse of
    :attr:`ops`).
    """

    __slots__ = (
        "world_size", "scratch", "num_channels", "buffer_names", "tag_names",
        "src", "dst", "src_buf", "src_off", "dst_buf", "dst_off", "count",
        "reduce", "level", "channel", "stage", "tag",
        "dep_indptr", "dep_indices", "_ops_cache", "_defects",
    )

    # ------------------------------------------------------------ construction
    @classmethod
    def from_arrays(
        cls,
        world_size: int,
        columns: dict[str, np.ndarray],
        dep_indptr: np.ndarray,
        dep_indices: np.ndarray,
        buffer_names,
        tag_names,
        scratch: dict[str, dict[int, int]],
        num_channels: int = 1,
        validate: bool = True,
    ) -> "Schedule":
        """Wrap prebuilt column arrays (no copies) into a schedule."""
        self = cls.__new__(cls)
        self.world_size = world_size
        self.scratch = scratch
        self.num_channels = num_channels
        self.buffer_names = tuple(buffer_names)
        self.tag_names = tuple(tag_names)
        for name, dtype in COLUMNS:
            arr = np.asarray(columns[name], dtype=dtype)
            setattr(self, name, arr)
        self.dep_indptr = np.asarray(dep_indptr, dtype=np.int64)
        self.dep_indices = np.asarray(dep_indices, dtype=np.int32)
        self._ops_cache = None
        self._defects = ()
        if validate:
            self.validate()
        return self

    @classmethod
    def from_ops(cls, world_size, ops, scratch, num_channels=1,
                 validate: bool = True) -> "Schedule":
        """Convert a list of :class:`P2POp` records into array form."""
        n = len(ops)
        buf_ids: dict[str, int] = {}
        tag_ids: dict[str, int] = {"": 0}

        def buf_id(name: str) -> int:
            bid = buf_ids.get(name)
            if bid is None:
                bid = buf_ids[name] = len(buf_ids)
            return bid

        cols = {name: np.empty(n, dtype=dtype) for name, dtype in COLUMNS}
        indptr = np.zeros(n + 1, dtype=np.int64)
        dep_chunks: list[tuple[int, ...]] = []
        defects: list[str] = []
        for i, op in enumerate(ops):
            if op.uid != i:
                defects.append(f"op uid {op.uid} at position {i}")
            cols["src"][i] = op.src
            cols["dst"][i] = op.dst
            cols["src_buf"][i] = buf_id(op.src_buf)
            cols["src_off"][i] = op.src_off
            cols["dst_buf"][i] = buf_id(op.dst_buf)
            cols["dst_off"][i] = op.dst_off
            cols["count"][i] = op.count
            cols["reduce"][i] = (
                -1 if op.reduce_op is None else _CODE_OF_REDUCE[op.reduce_op]
            )
            cols["level"][i] = -1 if op.level is None else op.level
            cols["channel"][i] = op.channel
            cols["stage"][i] = op.stage
            tid = tag_ids.get(op.tag)
            if tid is None:
                tid = tag_ids[op.tag] = len(tag_ids)
            cols["tag"][i] = tid
            indptr[i + 1] = indptr[i] + len(op.deps)
            dep_chunks.append(op.deps)
        indices = (
            np.fromiter(
                (d for deps in dep_chunks for d in deps), np.int32, indptr[-1]
            )
            if n
            else np.empty(0, dtype=np.int32)
        )
        self = cls.from_arrays(
            world_size, cols, indptr, indices,
            tuple(buf_ids), tuple(tag_ids),
            {k: dict(v) for k, v in scratch.items()}, num_channels,
            validate=False,
        )
        self._defects = tuple(defects)
        if validate:
            self.validate()
        return self

    # ----------------------------------------------------------------- basics
    def __len__(self) -> int:
        return int(self.src.shape[0])

    @property
    def num_ops(self) -> int:
        """Op count (same as ``len(schedule)``)."""
        return len(self)

    def deps_of(self, uid: int) -> tuple[int, ...]:
        """Dependency uids of one op (a CSR row, as a tuple)."""
        lo, hi = self.dep_indptr[uid], self.dep_indptr[uid + 1]
        return tuple(int(d) for d in self.dep_indices[lo:hi])

    @property
    def ops(self) -> list[P2POp]:
        """Lazy object view of the arrays (debugging / executor / tests)."""
        if self._ops_cache is None:
            self._ops_cache = self._materialize_ops()
        return self._ops_cache

    def _materialize_ops(self) -> list[P2POp]:
        n = len(self)
        bufs = self.buffer_names
        tags = self.tag_names
        src = self.src.tolist()
        dst = self.dst.tolist()
        src_buf = self.src_buf.tolist()
        src_off = self.src_off.tolist()
        dst_buf = self.dst_buf.tolist()
        dst_off = self.dst_off.tolist()
        count = self.count.tolist()
        reduce_ = self.reduce.tolist()
        level = self.level.tolist()
        channel = self.channel.tolist()
        stage = self.stage.tolist()
        tag = self.tag.tolist()
        indptr = self.dep_indptr.tolist()
        indices = self.dep_indices.tolist()
        return [
            P2POp(
                uid=i, src=src[i], dst=dst[i],
                src_buf=bufs[src_buf[i]], src_off=src_off[i],
                dst_buf=bufs[dst_buf[i]], dst_off=dst_off[i],
                count=count[i],
                reduce_op=None if reduce_[i] < 0 else REDUCE_CODES[reduce_[i]],
                level=None if level[i] < 0 else level[i],
                channel=channel[i], stage=stage[i],
                deps=tuple(indices[indptr[i]:indptr[i + 1]]),
                tag=tags[tag[i]],
            )
            for i in range(n)
        ]

    def validate(self) -> None:
        """Structural checks: deps point strictly backward, counts positive."""
        if self._defects:
            raise ScheduleError(self._defects[0])
        n = len(self)
        if self.dep_indptr.shape[0] != n + 1:
            raise ScheduleError("dep_indptr length must be num_ops + 1")
        if n and (self.count <= 0).any():
            uid = int(np.argmax(self.count <= 0))
            raise ScheduleError(f"op {uid} has non-positive count")
        if self.dep_indices.shape[0] != int(self.dep_indptr[-1]):
            raise ScheduleError("dep_indices length disagrees with dep_indptr")
        if self.dep_indices.shape[0]:
            owner = np.repeat(np.arange(n), np.diff(self.dep_indptr))
            bad = (self.dep_indices < 0) | (self.dep_indices >= owner)
            if bad.any():
                pos = int(np.argmax(bad))
                raise ScheduleError(
                    f"op {int(owner[pos])} depends on non-prior op "
                    f"{int(self.dep_indices[pos])}"
                )

    def nbytes(self) -> int:
        """Exact byte footprint of the array backing store.

        Sums every column plus the CSR dependency arrays — the number the
        plan cache uses for its memory budget (timing rows are accounted
        separately by the cache, since they belong to the priced plan, not
        the schedule).
        """
        total = self.dep_indptr.nbytes + self.dep_indices.nbytes
        for name, _ in COLUMNS:
            total += getattr(self, name).nbytes
        return total

    def dependents_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Forward (dependents) CSR derived from the stored backward deps
        (see :func:`dependents_csr`)."""
        return dependents_csr(self.dep_indptr, self.dep_indices)

    def dep_levels(self, max_depth: int | None = None
                   ) -> tuple[np.ndarray, int] | None:
        """Topological level of every op (see :func:`toposort_levels`)."""
        indptr, indices = self.dependents_csr()
        return toposort_levels(
            np.diff(self.dep_indptr), indptr, indices, len(self),
            max_depth=max_depth,
        )

    # ----------------------------------------------------------------- stats
    @property
    def is_local_mask(self) -> np.ndarray:
        """Boolean column: local copies (``src == dst``)."""
        return self.src == self.dst

    def total_elements(self) -> int:
        """Sum of every op's element count."""
        return int(self.count.sum())

    def volume_by_kind(self, machine) -> dict[str, int]:
        """Elements moved per physical path kind (Figure 1's d vs 3d).

        Vectorized over the array columns: one pass of numpy masks instead
        of a Python loop per op.
        """
        local = self.is_local_mask
        g = machine.gpus_per_node
        inter = ~local & (self.src // g != self.dst // g)
        counts = self.count
        local_sum = int(counts[local].sum())
        inter_sum = int(counts[inter].sum())
        return {
            "inter-node": inter_sum,
            "intra-node": int(counts.sum()) - local_sum - inter_sum,
            "local": local_sum,
        }

    def volume_by_level(self) -> dict[int, int]:
        """Elements moved per virtual hierarchy level (-1 = local copies)."""
        if not len(self):
            return {}
        levels = self.level.astype(np.int64) + 1  # shift -1 to bincount range
        sums = np.bincount(levels, weights=self.count.astype(np.float64))
        return {
            int(lvl) - 1: int(sums[lvl])
            for lvl in range(sums.shape[0])
            if sums[lvl] > 0
        }

    def op_kind_counts(self, machine=None) -> dict[str, int]:
        """Op counts by movement kind (local / intra-node / inter-node).

        Without a machine, inter vs intra cannot be distinguished and all
        remote ops are reported under ``"remote"``.
        """
        local = self.is_local_mask
        n_local = int(local.sum())
        if machine is None:
            return {"local": n_local, "remote": len(self) - n_local}
        g = machine.gpus_per_node
        inter = ~local & (self.src // g != self.dst // g)
        n_inter = int(inter.sum())
        return {
            "local": n_local,
            "intra-node": len(self) - n_local - n_inter,
            "inter-node": n_inter,
        }

    def stage_count(self) -> int:
        """Number of distinct stages in channel 0 (Figure 6's circled counts)."""
        mask = self.channel == 0
        if not mask.any():
            return 0
        return int(np.unique(self.stage[mask]).shape[0])

    def comm_matrix(self, level_of=None) -> list[list]:
        """p x p element-volume matrix (Figure 7 bottom), vectorized.

        With ``level_of`` (a callable ``op -> label``) the matrix instead
        carries the label of the last op per pair, for library-coloring
        (see also :meth:`library_matrix` for the common case).
        """
        p = self.world_size
        if level_of is not None:
            labels: list[list] = [[0] * p for _ in range(p)]
            for op in self.ops:
                if not op.is_local:
                    labels[op.src][op.dst] = level_of(op)
            return labels
        mat = np.zeros((p, p), dtype=np.int64)
        remote = ~self.is_local_mask
        np.add.at(mat, (self.src[remote], self.dst[remote]), self.count[remote])
        return mat.tolist()

    def library_matrix(self, libraries) -> list[list[str]]:
        """p x p matrix of library names serving each communicating pair."""
        p = self.world_size
        mat = [["" for _ in range(p)] for _ in range(p)]
        remote = ~self.is_local_mask & (self.level >= 0)
        srcs = self.src[remote].tolist()
        dsts = self.dst[remote].tolist()
        lvls = self.level[remote].tolist()
        for s, d, lvl in zip(srcs, dsts, lvls):
            mat[s][d] = libraries[lvl].name
        return mat

    def max_scratch_elements(self) -> int:
        """Peak scratch footprint on any single rank (memory accounting)."""
        per_rank: dict[int, int] = {}
        for sizes in self.scratch.values():
            for rank, count in sizes.items():
                per_rank[rank] = per_rank.get(rank, 0) + count
        return max(per_rank.values(), default=0)


def _gather_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices of the CSR rows ``[starts[i], starts[i]+counts[i])``.

    The multi-slice gather trick: one ``arange`` over the total output size,
    rebased per row, replaces a python loop over ``counts.size`` slices.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    excl = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(excl, counts)
        + np.repeat(starts, counts)
    )


def dependents_csr(dep_indptr: np.ndarray, dep_indices: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Forward (dependents) CSR of a backward-dependency CSR.

    Returns ``(indptr, indices)`` where ``indices[indptr[u]:indptr[u+1]]``
    lists the nodes that depend on ``u``, each row sorted ascending.  This
    is the adjacency direction frontier peeling and the event loop consume.
    """
    n = dep_indptr.shape[0] - 1
    counts = np.bincount(dep_indices, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(dep_indptr))
    order = np.argsort(dep_indices, kind="stable")
    return indptr, owners[order]


def toposort_levels(
    indegree: np.ndarray,
    dpt_indptr: np.ndarray,
    dpt_indices: np.ndarray,
    num_ops: int,
    max_depth: int | None = None,
) -> tuple[np.ndarray, int] | None:
    """Vectorized Kahn peel: topological level of every node, or ``None``.

    ``indegree`` is each node's dependency count and ``dpt_indptr`` /
    ``dpt_indices`` the forward (dependents) CSR.  Level 0 is the set of
    nodes with no dependencies; level ``k+1`` the nodes whose last
    dependency sits at level ``k``.  Each round gathers the whole current
    frontier's dependent rows at once and decrements indegrees with one
    ``bincount``, so the cost is O(edges) numpy work spread over
    ``depth`` rounds rather than O(nodes) heap operations.

    Returns ``(levels, depth)``, or ``None`` when the peel exceeds
    ``max_depth`` rounds (schedules that deep serialize anyway, and callers
    treat ``None`` as "use the event loop") or fails to cover every node
    (a dependency cycle — the event loop raises the canonical error).
    """
    levels = np.zeros(num_ops, dtype=np.int64)
    indeg = indegree.astype(np.int64, copy=True)
    dpt_counts = np.diff(dpt_indptr)
    frontier = np.flatnonzero(indeg == 0)
    seen = 0
    depth = 0
    while frontier.size:
        if max_depth is not None and depth >= max_depth:
            return None
        levels[frontier] = depth
        seen += frontier.size
        depth += 1
        children = dpt_indices[
            _gather_rows(dpt_indptr[frontier], dpt_counts[frontier])
        ]
        if children.size == 0:
            break
        # Per-round work must stay O(frontier edges), not O(num_ops): a
        # full-width bincount per round would make deep graphs quadratic.
        uniq, dec = np.unique(children, return_counts=True)
        indeg[uniq] -= dec
        frontier = uniq[indeg[uniq] == 0]
    if seen != num_ops:
        return None  # cycle: let the event loop raise the canonical error
    return levels, depth


class ScheduleBuilder:
    """Accumulates op rows with implicit fence dependencies, in array form.

    Usage: call :meth:`copy`/:meth:`send` to emit ops (wiring any *explicit*
    intra-expansion dependencies via ``deps``); call :meth:`end_step` at every
    fence boundary; finish with :meth:`build`.  Ops are appended to per-column
    Python lists and assembled into the numpy backing store once, at build
    time — no per-op objects are created.
    """

    def __init__(self, world_size: int) -> None:
        self.world_size = world_size
        self._cols: dict[str, list] = {name: [] for name, _ in COLUMNS}
        self._deps: list[tuple[int, ...]] = []
        self._n = 0
        self._buf_ids: dict[str, int] = {}
        self._buf_names: list[str] = []
        self._tag_ids: dict[str, int] = {"": 0}
        self._scratch: dict[str, dict[int, int]] = {}
        self._scratch_counter = 0
        self._num_channels = 1
        # Committed (pre-fence) state: most-recent writers and live readers.
        self._writers: dict[tuple[int, str], IntervalSet] = {}
        self._readers: dict[tuple[int, str], IntervalSet] = {}
        # Current-step state for the race check.
        self._step_writers: dict[tuple[int, str], IntervalSet] = {}
        self._step_readers: dict[tuple[int, str], IntervalSet] = {}
        self._step_start = 0

    def _buf_id(self, name: str) -> int:
        bid = self._buf_ids.get(name)
        if bid is None:
            bid = self._buf_ids[name] = len(self._buf_ids)
            self._buf_names.append(name)
        return bid

    # --------------------------------------------------------------- scratch
    def alloc_scratch(self, rank: int, count: int, hint: str = "s") -> tuple[str, int]:
        """Reserve ``count`` scratch elements on ``rank``; returns a loc.

        Each allocation gets a fresh buffer name, so scratch regions never
        alias and need no liveness analysis.  The functional executor
        materializes them lazily; :meth:`Schedule.max_scratch_elements`
        reports the footprint.
        """
        name = f"_{hint}{self._scratch_counter}"
        self._scratch_counter += 1
        self._scratch.setdefault(name, {})[rank] = count
        return (name, 0)

    def adopt_scratch(self, scratch: dict[str, dict[int, int]]) -> None:
        """Register scratch buffers allocated outside the builder.

        The pass pipeline allocates scratch while expanding the mid-level IR
        (before dependency binding); this folds those regions into the built
        schedule.
        """
        for name, sizes in scratch.items():
            merged = self._scratch.setdefault(name, {})
            for rank, count in sizes.items():
                merged[rank] = merged.get(rank, 0) + count

    def set_num_channels(self, m: int) -> None:
        """Record the pipeline depth for reporting (Figures 6-7)."""
        self._num_channels = max(1, m)

    # ------------------------------------------------------------------ emit
    def copy(
        self,
        rank: int,
        src_loc: tuple[str, int],
        dst_loc: tuple[str, int],
        count: int,
        *,
        channel: int = 0,
        stage: int = 0,
        deps: tuple[int, ...] = (),
        reduce_op: ReduceOp | None = None,
        tag: str = "",
    ) -> int:
        """Local copy (or local accumulate) on ``rank``; returns the uid."""
        return self._emit(
            rank, rank, src_loc, dst_loc, count,
            reduce_op=reduce_op, level=None, channel=channel,
            stage=stage, deps=deps, tag=tag,
        )

    def send(
        self,
        src: int,
        dst: int,
        src_loc: tuple[str, int],
        dst_loc: tuple[str, int],
        count: int,
        *,
        level: int,
        channel: int = 0,
        stage: int = 0,
        deps: tuple[int, ...] = (),
        reduce_op: ReduceOp | None = None,
        tag: str = "",
    ) -> int:
        """Remote transfer ``src -> dst``; returns the uid."""
        if src == dst:
            raise ScheduleError("send requires distinct ranks; use copy()")
        return self._emit(
            src, dst, src_loc, dst_loc, count,
            reduce_op=reduce_op, level=level, channel=channel,
            stage=stage, deps=deps, tag=tag,
        )

    def _emit(self, src, dst, src_loc, dst_loc, count, *, reduce_op, level,
              channel, stage, deps, tag) -> int:
        if count <= 0:
            raise ScheduleError("op element count must be positive")
        uid = self._n
        src_buf, src_off = src_loc
        dst_buf, dst_off = dst_loc
        reads = [(src, src_buf, src_off, count)]
        if reduce_op is not None:
            reads.append((dst, dst_buf, dst_off, count))
        writes = [(dst, dst_buf, dst_off, count)]

        all_deps = set(deps)
        # Cross-fence dependencies from committed interval state.
        for rank, buf, off, cnt in reads:
            writers = self._writers.get((rank, buf))
            if writers is not None:
                all_deps.update(writers.tags_overlapping(off, off + cnt))
        for rank, buf, off, cnt in writes:
            writers = self._writers.get((rank, buf))
            if writers is not None:
                all_deps.update(writers.tags_overlapping(off, off + cnt))
            readers = self._readers.get((rank, buf))
            if readers is not None:
                all_deps.update(readers.tags_overlapping(off, off + cnt))

        # Intra-step race detection: the most recent same-step writer of any
        # byte we touch must be among our direct dependencies; a concurrent
        # read we would clobber must be ordered too.
        for rank, buf, off, cnt in reads + writes:
            step_writers = self._step_writers.get((rank, buf))
            if step_writers is None:
                continue
            for tag_uid in step_writers.tags_overlapping(off, off + cnt):
                if tag_uid not in all_deps:
                    raise RaceConditionError(
                        f"op #{uid} ({tag or 'p2p'}) touches "
                        f"{buf}[{off}:{off + cnt}] on rank {rank} concurrently "
                        f"written by op #{tag_uid} in the same step; the result "
                        "would be undefined (Section 3.2)"
                    )
        for rank, buf, off, cnt in writes:
            step_readers = self._step_readers.get((rank, buf))
            if step_readers is None:
                continue
            for tag_uid in step_readers.tags_overlapping(off, off + cnt):
                if tag_uid != uid and tag_uid not in all_deps:
                    raise RaceConditionError(
                        f"op #{uid} ({tag or 'p2p'}) overwrites "
                        f"{buf}[{off}:{off + cnt}] on rank {rank} while op "
                        f"#{tag_uid} reads it concurrently in the same step"
                    )

        # Record current-step footprint.
        for rank, buf, off, cnt in writes:
            self._step_writers.setdefault(
                (rank, buf), IntervalSet()
            ).write(off, off + cnt, uid)
            step_readers = self._step_readers.get((rank, buf))
            if step_readers is not None:
                step_readers.remove_range(off, off + cnt)
        for rank, buf, off, cnt in reads:
            self._step_readers.setdefault(
                (rank, buf), IntervalSet()
            ).add(off, off + cnt, uid)

        cols = self._cols
        cols["src"].append(src)
        cols["dst"].append(dst)
        cols["src_buf"].append(self._buf_id(src_buf))
        cols["src_off"].append(src_off)
        cols["dst_buf"].append(self._buf_id(dst_buf))
        cols["dst_off"].append(dst_off)
        cols["count"].append(count)
        cols["reduce"].append(
            -1 if reduce_op is None else _CODE_OF_REDUCE[reduce_op]
        )
        cols["level"].append(-1 if level is None else level)
        cols["channel"].append(channel)
        cols["stage"].append(stage)
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self._tag_ids)
        cols["tag"].append(tid)
        self._deps.append(tuple(sorted(all_deps)))
        self._n += 1
        return uid

    # ----------------------------------------------------------------- steps
    def end_step(self) -> None:
        """Commit the current step at a fence boundary.

        Later ops gain fine-grained dependencies on the committed writes and
        reads; intra-step race state is reset.
        """
        cols = self._cols
        for uid in range(self._step_start, self._n):
            src, dst = cols["src"][uid], cols["dst"][uid]
            count = cols["count"][uid]
            src_buf = cols["src_buf"][uid]
            dst_buf = cols["dst_buf"][uid]
            src_off, dst_off = cols["src_off"][uid], cols["dst_off"][uid]
            reads = [(src, src_buf, src_off, count)]
            if cols["reduce"][uid] >= 0:
                reads.append((dst, dst_buf, dst_off, count))
            key = (dst, self._buf_name(dst_buf))
            readers = self._readers.get(key)
            if readers is not None:
                readers.remove_range(dst_off, dst_off + count)
            self._writers.setdefault(key, IntervalSet()).write(
                dst_off, dst_off + count, uid
            )
            for rank, buf, off, cnt in reads:
                self._readers.setdefault(
                    (rank, self._buf_name(buf)), IntervalSet()
                ).add(off, off + cnt, uid)
        self._step_writers.clear()
        self._step_readers.clear()
        self._step_start = self._n

    def _buf_name(self, bid: int) -> str:
        return self._buf_names[bid]

    def build(self) -> Schedule:
        """Assemble the accumulated columns into an immutable schedule."""
        self.end_step()
        n = self._n
        columns = {
            name: np.asarray(self._cols[name], dtype=dtype)
            if n else np.empty(0, dtype=dtype)
            for name, dtype in COLUMNS
        }
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum([len(d) for d in self._deps], out=indptr[1:])
        indices = (
            np.fromiter(
                (d for deps in self._deps for d in deps), np.int32, indptr[-1]
            )
            if n
            else np.empty(0, dtype=np.int32)
        )
        return Schedule.from_arrays(
            self.world_size, columns, indptr, indices,
            tuple(self._buf_ids), tuple(self._tag_ids),
            {k: dict(v) for k, v in self._scratch.items()},
            self._num_channels,
        )
