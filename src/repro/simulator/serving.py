"""Streaming replay engine: price a plan once, replay it per arrival.

Serving traffic is a stream of small, latency-bound requests, each running
one of a handful of distinct plans.  Mapping ``simulate_workload`` over
every arrival re-prices, re-merges, and re-heaps the same schedule
thousands of times; this module amortizes all of that.  Each distinct
``(plan, size-class, group)`` becomes a :class:`ReplayTemplate`: its
schedule is lowered and priced exactly once
(:func:`~repro.simulator.timing.price_schedule_columns`), simulated once
through the exact event engine at time zero, and compiled into a *replay
program* — the realized per-resource booking order is recorded as
serialization edges next to the dependency edges, and the augmented graph
is leveled.  Every arrival at time ``t`` then re-evaluates that program
with one vectorized level sweep at ``ready = t`` onto shared per-resource
calendars.

**Why the replayed times are the event engine's times.**  Given that the
event engine makes the same *decisions* (the same per-resource booking
order and the same blocking relations), every realized op start is a pure
float ``max`` over its dependency completions and the booking ends of its
resource predecessors, and ``max`` is exact — no rounding, order
irrelevant.  Completions and booking ends are then single sums evaluated
in the engine's own association order (``((start + alpha) + transfer) +
gamma`` and ``start + occupancy``).  The replay program evaluates exactly
these expressions, so identical decisions imply bit-identical times.
The program is verified at build time: evaluating it at ``t = 0`` must
reproduce the event engine's realized starts and completions float for
float, or the template is marked non-replayable and every arrival falls
back.

**Replay certificate.**  Decisions are a function of how the op-ready and
resource-free instants interleave, and shifting a schedule to ``t`` does
not shift float timestamps exactly — orderings within rounding distance
of a tie could flip.  An arrival's sweep is therefore *certified* before
acceptance:

1. **Order-pattern check** (within the request): on every resource, each
   consecutive pair of the realized booking order must either stay exactly
   glued (zero gap at build time and zero gap now — a contended hand-off
   the engine reproduces by construction) or stay separated by at least a
   drift margin of ``REPLAY_MARGIN_ULPS`` ulps of the epoch horizon, which
   dominates the worst-case rounding drift a time shift can introduce.
   Gaps that change category mean the engine could reorder — reject.
2. **Frontier check** (across requests): on every resource the template
   touches, its earliest booking must start strictly after the calendar
   frontier — the latest booking end any earlier request of the current
   epoch placed there.  Earlier requests then provably cannot delay,
   reorder, or be delayed by this one, so the merged event engine realizes
   exactly the isolated replay.

Whenever either check fails — real contention — the engine falls back to
the exact event engine (the same accept-or-fallback contract as the
levelized engine): it re-simulates the *entire epoch* through
:func:`~repro.simulator.engine.simulate_workload`, superseding the
tentative replay results (a contending arrival can change earlier
requests' latencies), rebuilds the frontier from the realized bookings,
and resumes replaying.

**Epochs.**  Arrivals must come in nondecreasing time order.  A new epoch
opens when an arrival lands strictly after every booking of the previous
one has ended (``t > epoch_end``): nothing earlier can interact with it,
so the frontier resets and earlier results become final.  Per-request
latencies are float-for-float identical to one brute-force
``simulate_workload`` over the merged job set of the whole trace
(:mod:`tests.sim` locks this down differentially); resource busy totals
may differ from the event engine's in the last ulp (replay folds
per-template subtotals in template order, the event loop accumulates
chronologically), which is why the exactness guarantee is stated for
latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import JobSpec, event_timing, simulate_workload
from .level import graph_leveling
from .timing import booking_columns, decode_resource, price_schedule_columns

#: Drift margin of the order-pattern check, in ulps of the epoch horizon.
#: A time shift perturbs every replayed instant by at most a few ulps per
#: addition along its critical chain; 4096 ulps comfortably dominates the
#: deepest committed templates while staying far below real scheduling
#: gaps (machine-model op times are 1e-7 s and up).
REPLAY_MARGIN_ULPS = 4096.0


@dataclass(frozen=True)
class ReplayProgram:
    """Compiled replay of one schedule: augmented graph + realized order.

    Everything lives in *level order* — ops permuted so each augmented
    level is a contiguous slice, bookings likewise — which keeps the
    per-arrival sweep on slice views instead of fancy indexing.  The value
    vector of a sweep holds op completions at ``[0, n)`` and booking ends
    at ``[n, n + k)``; ``level_plan`` drives the sweep, the ``cert_*`` /
    ``front_*`` arrays index certificate and frontier reads directly in
    level space, and the ``fb_*`` arrays keep the original op-uid view the
    fallback path needs to digest merged event-engine timings.
    """

    n: int  # ops
    k: int  # bookings
    alpha: np.ndarray  # (n,) level-ordered
    transfer: np.ndarray  # (n,) level-ordered
    gamma: np.ndarray  # (n,) level-ordered
    book_src: np.ndarray  # (k,) level-space op position of each booking
    book_occ: np.ndarray  # (k,) level-ordered occupancy (overhead + dur)
    #: One entry per non-empty level: ``(a, b, wp, gather, excl, ba, bb)``
    #: — ops ``[a:b)`` and bookings ``[ba:bb)`` of the level, ``wp`` the
    #: ops with predecessors, ``gather``/``excl`` their flattened
    #: predecessor value indices with exclusive segment offsets.
    level_plan: tuple
    cert_next: np.ndarray  # (P,) start index of each realized pair's later op
    cert_prev: np.ndarray  # (P,) end index of each realized pair's earlier booking
    glue0: np.ndarray  # (P,) True where the realized pair had zero gap
    front_min: np.ndarray  # (m,) start index of each segment's first booking
    front_max: np.ndarray  # (m,) end index of each segment's last booking
    seg_rid: np.ndarray  # (m,) resource id per segment
    seg_busy: np.ndarray  # (m,) per-resource busy seconds (t-independent)
    fb_book_op: np.ndarray  # (k,) original op uid per original booking
    fb_book_occ: np.ndarray  # (k,) occupancy per original booking
    fb_ord: np.ndarray  # (k,) original bookings in realized order
    fb_seg_first: np.ndarray  # (m,) segment starts, indices into ``fb_ord``
    span: float  # isolated makespan (finish - start at t = 0)

    def evaluate(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """One vectorized level sweep at ``ready = t``.

        Returns ``(start, values)`` in level space: per-op starts, and the
        value vector carrying completions at ``[0, n)`` and booking ends
        at ``[n, n + k)`` — all in the event engine's own float
        expressions (see the module docstring for why that makes them
        bit-identical whenever the engine's decisions match).
        """
        n = self.n
        values = np.empty(n + self.k)
        start = np.full(n, t)
        for a, b, wp, gather, excl, ba, bb in self.level_plan:
            if wp.size:
                start[wp] = np.maximum(
                    t, np.maximum.reduceat(values[gather], excl))
            # The event engine's exact association: ((s + alpha) + tr) + gamma.
            np.add(start[a:b], self.alpha[a:b], out=values[a:b])
            values[a:b] += self.transfer[a:b]
            values[a:b] += self.gamma[a:b]
            if bb > ba:
                np.add(start[self.book_src[ba:bb]], self.book_occ[ba:bb],
                       out=values[n + ba:n + bb])
        return start, values

    def certify_order(self, start: np.ndarray, values: np.ndarray,
                      horizon: float) -> bool:
        """True iff the realized booking order provably survives the shift.

        Checks every consecutive pair of the per-resource realized order:
        exactly-glued pairs must stay exactly glued, separated pairs must
        stay separated by the drift margin (see the module docstring).
        """
        if self.cert_prev.size == 0:
            return True
        gap = start[self.cert_next] - values[self.n + self.cert_prev]
        margin = REPLAY_MARGIN_ULPS * np.spacing(horizon)
        return bool(np.all(np.where(self.glue0, gap == 0.0, gap >= margin)))


@dataclass(frozen=True)
class ReplayTemplate:
    """One distinct (plan, size-class, group), priced and compiled once."""

    name: str
    schedule: object
    libraries: tuple
    elem_bytes: int
    program: ReplayProgram | None  # None: template always falls back

    @property
    def replayable(self) -> bool:
        """False when the template can only go through the event engine."""
        return self.program is not None

    def spec(self, offset: float, name: str = "") -> JobSpec:
        """A ``simulate_workload`` job of this template launched at ``offset``."""
        return JobSpec(schedule=self.schedule, libraries=self.libraries,
                       elem_bytes=self.elem_bytes, offset=offset,
                       name=name or self.name)


def _compile_program(schedule, machine, libraries,
                     elem_bytes: int) -> ReplayProgram | None:
    """Price, simulate at zero, and compile; ``None`` when not replayable."""
    cols = price_schedule_columns(schedule, machine, libraries, elem_bytes)
    n = len(cols)
    if n == 0:
        return None
    event = event_timing(schedule, cols)
    start0 = np.asarray(event.start_times)
    comp0 = np.asarray(event.completion_times)

    static = booking_columns(cols)
    book_op = np.repeat(np.arange(n, dtype=np.int64),
                        static.slots)[static.mask]
    book_occ = static.occ
    k = book_op.size

    # Realized order: per resource, bookings sorted by realized start with
    # uid as the deterministic tiebreak (the engine breaks ties by uid).
    ordered = np.lexsort((book_op, start0[book_op], static.rid))
    rid_sorted = static.rid[ordered]
    if k:
        firsts = np.flatnonzero(np.diff(rid_sorted) != 0) + 1
        seg_first = np.concatenate(([0], firsts))
        seg_last = np.concatenate((firsts - 1, [k - 1]))
    else:
        seg_first = seg_last = np.zeros(0, dtype=np.int64)
    seg_rid = rid_sorted[seg_first] if k else np.zeros(0, dtype=np.int64)
    seg_busy = np.add.reduceat(book_occ[ordered], seg_first) if k \
        else np.zeros(0)

    # Serialization edges: booking ord[i] -> op of booking ord[i + 1]
    # within each resource segment.
    inner = np.ones(max(k - 1, 0), dtype=bool)
    if seg_rid.size > 1:
        inner[seg_last[:-1]] = False
    pair_prev = ordered[:-1][inner] if k > 1 else np.zeros(0, dtype=np.int64)
    pair_next = ordered[1:][inner] if k > 1 else np.zeros(0, dtype=np.int64)

    # Augmented predecessor rows: dependency completions + booking ends.
    rows: list[list[int]] = [[] for _ in range(n)]
    indptr = schedule.dep_indptr
    indices = schedule.dep_indices
    for j in range(n):
        rows[j].extend(int(d) for d in indices[indptr[j]:indptr[j + 1]])
    for b_prev, b_next in zip(pair_prev.tolist(), pair_next.tolist()):
        rows[int(book_op[b_next])].append(n + b_prev)

    # Level the augmented *op* graph (serialization edges collapse to
    # op -> op for leveling purposes).
    level_rows = [
        [src if src < n else int(book_op[src - n]) for src in row]
        for row in rows
    ]
    lens = np.fromiter(map(len, level_rows), np.int64, n)
    level_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=level_indptr[1:])
    level_indices = np.fromiter((d for row in level_rows for d in row),
                                np.int64, int(level_indptr[-1]))
    leveling = graph_leveling(level_indptr, level_indices)
    if leveling is None:
        return None
    levels, depth = leveling

    # Level-order permutations: ``perm`` maps level position -> op uid,
    # ``pos`` op uid -> level position; likewise for bookings.
    perm = np.argsort(levels, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[perm] = np.arange(n, dtype=np.int64)
    op_bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(levels, minlength=depth))))
    book_levels = levels[book_op]
    bperm = np.argsort(book_levels, kind="stable")
    bpos = np.empty(k, dtype=np.int64)
    bpos[bperm] = np.arange(k, dtype=np.int64)
    book_bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(book_levels, minlength=depth))))

    lens = np.fromiter((len(r) for r in rows), np.int64, n)
    level_plan = []
    for lvl in range(depth):
        a, b = int(op_bounds[lvl]), int(op_bounds[lvl + 1])
        if a == b:
            continue
        uids = perm[a:b]
        withpreds = uids[lens[uids] > 0]
        if withpreds.size:
            # reduceat cannot express empty segments, hence the filter.
            cnt = lens[withpreds]
            excl = np.cumsum(cnt) - cnt
            gather = np.fromiter(
                (pos[src] if src < n else n + bpos[src - n]
                 for uid in withpreds.tolist() for src in rows[uid]),
                np.int64, int(cnt.sum()))
        else:
            gather = excl = np.zeros(0, dtype=np.int64)
        level_plan.append((a, b, pos[withpreds], gather, excl,
                           int(book_bounds[lvl]), int(book_bounds[lvl + 1])))

    ends0 = start0[book_op] + book_occ
    glue0 = (start0[book_op[pair_next]] - ends0[pair_prev]) == 0.0

    program = ReplayProgram(
        n=n, k=k, alpha=cols.alpha[perm], transfer=cols.transfer_time()[perm],
        gamma=cols.gamma[perm], book_src=pos[book_op[bperm]],
        book_occ=book_occ[bperm], level_plan=tuple(level_plan),
        cert_next=pos[book_op[pair_next]], cert_prev=bpos[pair_prev],
        glue0=glue0,
        front_min=pos[book_op[ordered[seg_first]]],
        front_max=bpos[ordered[seg_last]],
        seg_rid=seg_rid, seg_busy=seg_busy,
        fb_book_op=book_op, fb_book_occ=book_occ, fb_ord=ordered,
        fb_seg_first=seg_first, span=float(event.elapsed),
    )
    # Build-time verification: the program at t = 0 must reproduce the
    # event engine bit for bit, else the serialization-edge model missed a
    # decision and the template may not replay.
    start, values = program.evaluate(0.0)
    if not (np.array_equal(start, start0[perm])
            and np.array_equal(values[:n], comp0[perm])):
        return None
    return program


def make_template(name: str, schedule, machine, libraries,
                  elem_bytes: int = 4) -> ReplayTemplate:
    """Price, simulate, verify, and compile ``schedule`` into a template."""
    if schedule.world_size != machine.world_size:
        raise ValueError(
            f"template {name!r}: schedule spans {schedule.world_size} ranks, "
            f"machine has {machine.world_size}")
    return ReplayTemplate(
        name=name, schedule=schedule, libraries=tuple(libraries),
        elem_bytes=int(elem_bytes),
        program=_compile_program(schedule, machine, libraries, elem_bytes),
    )


@dataclass(frozen=True)
class RequestTiming:
    """Final timing of one served request on the shared timeline."""

    index: int  # submission order
    template: str
    arrival: float  # request arrival (gate-open) time, seconds
    start: float  # == arrival (requests start the moment they arrive)
    finish: float  # last-op completion
    latency: float  # finish - arrival
    engine: str  # "replay", or the merged engine ("event"/"level")


@dataclass
class ReplayStats:
    """Counters of one streaming run (how often the fast path held)."""

    arrivals: int = 0
    accepted: int = 0  # certificate accepts at attempt time
    rejected: int = 0  # certificate rejections (order pattern or frontier)
    fallbacks: int = 0  # merged event-engine simulations run
    merged_requests: int = 0  # requests whose *final* result is merged
    replayed: int = 0  # requests whose final result came from a replay
    epochs: int = 0

    def as_dict(self) -> dict:
        """JSON-safe counter dict (for benchmarks and the CLI)."""
        return {
            "arrivals": self.arrivals, "accepted": self.accepted,
            "rejected": self.rejected, "fallbacks": self.fallbacks,
            "merged_requests": self.merged_requests,
            "replayed": self.replayed, "epochs": self.epochs,
        }


@dataclass(frozen=True)
class ServingTimingResult:
    """Outcome of a streaming run: per-request timings plus counters."""

    requests: tuple[RequestTiming, ...]
    resource_busy: dict
    stats: ReplayStats

    def latencies(self) -> np.ndarray:
        """Per-request latencies in submission order."""
        return np.array([r.latency for r in self.requests])


@dataclass
class _Pending:
    """One not-yet-final epoch member (tentative until the epoch closes)."""

    index: int
    template_index: int
    arrival: float


class ServingEngine:
    """Shared resource calendars serving a stream of template arrivals.

    Submit arrivals in nondecreasing time order with :meth:`submit`; call
    :meth:`finish` to close the last epoch and collect the results.  See
    the module docstring for the certificate and fallback contract.
    """

    def __init__(self, machine, templates, fallback_engine: str = "auto"):
        """Build the shared frontier over ``templates``' resource ids."""
        self.machine = machine
        self.templates = list(templates)
        self.fallback_engine = fallback_engine
        rids = [t.program.seg_rid for t in self.templates
                if t.program is not None and t.program.seg_rid.size]
        self._slot_rids = (np.unique(np.concatenate(rids)) if rids
                           else np.zeros(0, dtype=np.int64))
        # Per-template gather indices: segment -> global frontier slot.
        self._slot_idx = [
            np.searchsorted(self._slot_rids, t.program.seg_rid)
            if t.program is not None else np.zeros(0, dtype=np.int64)
            for t in self.templates
        ]
        self._frontier = np.full(self._slot_rids.size, -np.inf)
        self._busy: dict = {}
        self._epoch_busy_arr = np.zeros(self._slot_rids.size)
        self._epoch_busy_dict: dict = {}
        self._epoch: list[_Pending] = []
        self._epoch_end = -np.inf
        self._last_t = -np.inf
        self._records: list[RequestTiming | None] = []
        self.stats = ReplayStats()
        self._finished = False

    # ------------------------------------------------------------- epochs
    def _close_epoch(self) -> None:
        """Finalize the current epoch: fold busy totals, reset the frontier."""
        if not self._epoch:
            return
        self.stats.epochs += 1
        for i in np.flatnonzero(self._epoch_busy_arr):
            key = decode_resource(int(self._slot_rids[i]))
            self._busy[key] = (self._busy.get(key, 0.0)
                               + float(self._epoch_busy_arr[i]))
        for key, value in self._epoch_busy_dict.items():
            self._busy[key] = self._busy.get(key, 0.0) + value
        self._epoch_busy_arr[:] = 0.0
        self._epoch_busy_dict = {}
        self._epoch = []
        self._frontier.fill(-np.inf)
        self._epoch_end = -np.inf

    # ------------------------------------------------------------- replay
    def _attempt_replay(self, k: int, t: float) -> RequestTiming | None:
        """Sweep one arrival at ``ready = t`` and certify it; None = fall back."""
        tmpl = self.templates[k]
        prog = tmpl.program
        start, values = prog.evaluate(t)
        if not prog.certify_order(start, values, t + prog.span):
            return None
        slot_idx = self._slot_idx[k]
        seg_min = start[prog.front_min]
        if not np.all(seg_min > self._frontier[slot_idx]):
            return None
        # Accepted: within a segment ends are nondecreasing (each booking
        # starts at or after its predecessor's end), so the last booking
        # carries the segment's max end.
        seg_max = values[prog.n + prog.front_max]
        self._frontier[slot_idx] = np.maximum(self._frontier[slot_idx],
                                              seg_max)
        if seg_max.size:
            self._epoch_end = max(self._epoch_end, float(seg_max.max()))
        self._epoch_busy_arr[slot_idx] += prog.seg_busy
        finish = float(values[:prog.n].max())
        return RequestTiming(index=-1, template=tmpl.name, arrival=t,
                             start=t, finish=finish, latency=finish - t,
                             engine="replay")

    # ----------------------------------------------------------- fallback
    def _fallback(self) -> None:
        """Re-simulate the whole epoch exactly; supersede tentative results.

        A contending arrival can change *earlier* epoch members' latencies,
        so every epoch result stays tentative until the epoch closes; the
        merged simulation is authoritative for all of them.  The frontier
        and epoch horizon are rebuilt from the realized bookings so later
        arrivals can resume the fast path.
        """
        specs = [self.templates[p.template_index].spec(p.arrival,
                                                       f"req{p.index}")
                 for p in self._epoch]
        timing = simulate_workload(specs, self.machine,
                                   engine=self.fallback_engine)
        self.stats.fallbacks += 1
        self._frontier.fill(-np.inf)
        self._epoch_end = -np.inf
        self._epoch_busy_arr[:] = 0.0
        self._epoch_busy_dict = dict(timing.resource_busy)
        for pending, job in zip(self._epoch, timing.jobs):
            tmpl = self.templates[pending.template_index]
            self._records[pending.index] = RequestTiming(
                index=pending.index, template=tmpl.name,
                arrival=pending.arrival, start=job.start, finish=job.finish,
                latency=job.elapsed, engine=timing.engine)
            if job.finish > self._epoch_end:
                self._epoch_end = job.finish
            prog = tmpl.program
            if prog is None or not prog.k:
                continue
            # Contention may have reordered bookings within a segment, so
            # take the max end per segment rather than trusting the order.
            starts = np.asarray(job.op_start_times)
            ends = (starts[prog.fb_book_op] + prog.fb_book_occ)[prog.fb_ord]
            seg_max = np.maximum.reduceat(ends, prog.fb_seg_first)
            idx = self._slot_idx[pending.template_index]
            self._frontier[idx] = np.maximum(self._frontier[idx], seg_max)
            self._epoch_end = max(self._epoch_end, float(ends.max()))

    # ---------------------------------------------------------------- api
    def submit(self, template_index: int, t) -> int:
        """Serve one arrival of ``templates[template_index]`` at time ``t``.

        Arrivals must be submitted in nondecreasing time order.  Returns
        the request's submission index; its timing is available from
        :meth:`finish` (results stay tentative until their epoch closes).
        """
        if self._finished:
            raise RuntimeError("ServingEngine.finish() was already called")
        t = float(t)
        if t < self._last_t:
            raise ValueError(
                f"arrivals must be nondecreasing: got {t} after {self._last_t}")
        self._last_t = t
        if self._epoch and t > self._epoch_end:
            self._close_epoch()
        index = len(self._records)
        self._records.append(None)
        self._epoch.append(_Pending(index=index, template_index=template_index,
                                    arrival=t))
        self.stats.arrivals += 1
        tmpl = self.templates[template_index]
        record = self._attempt_replay(template_index, t) if tmpl.replayable \
            else None
        if record is not None:
            self.stats.accepted += 1
            self._records[index] = RequestTiming(
                index=index, template=record.template, arrival=record.arrival,
                start=record.start, finish=record.finish,
                latency=record.latency, engine=record.engine)
        else:
            if tmpl.replayable:
                self.stats.rejected += 1
            self._fallback()
        return index

    def finish(self) -> ServingTimingResult:
        """Close the last epoch and return every request's final timing."""
        if not self._finished:
            self._close_epoch()
            self._finished = True
        records = tuple(self._records)  # type: ignore[arg-type]
        self.stats.replayed = sum(1 for r in records if r.engine == "replay")
        self.stats.merged_requests = len(records) - self.stats.replayed
        return ServingTimingResult(requests=records,
                                   resource_busy=dict(self._busy),
                                   stats=self.stats)
