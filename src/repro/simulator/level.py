"""Levelized batch engine: frontier-at-a-time simulation with a certificate.

The event engine replays contention op by op off a heap — exact, but ~1.5s
for a fig8-scale schedule and hopeless for full-system Aurora/Frontier
models.  This module is the fast path behind ``simulate(engine="auto")``:

1. **Level** the CSR dependency graph once with a vectorized Kahn peel
   (:func:`repro.core.schedule.toposort_levels`).
2. **Solve optimistically**: sweep the levels in order, setting every op's
   start to the max completion of its dependencies — pure
   ``np.maximum.reduceat`` batches, no heap, no parking.  This is the
   uncontended longest-path schedule.
3. **Certify**: flatten all resource bookings implied by the optimistic
   starts and check, per resource timeline, that no two bookings overlap.
   If the certificate holds, the event loop would have made *exactly* the
   same decisions (no op ever waits on a busy resource, so the
   ``free_at`` test never fires and every op starts at its dependency
   ready time) — the levelized answer is bit-identical, down to summing
   per-resource busy totals in the same chronological order.  If it fails,
   the caller falls back to the event loop; the fast path is only ever a
   provably-safe shortcut, never an approximation.

The certificate is conservative about simultaneous same-resource bookings:
two bookings starting at the same instant are accepted only when all such
bookings are zero-width (virtual gates, zero-overhead ops), because the
event loop admits those in priority order with no observable effect.
"""

from __future__ import annotations

import numpy as np

from ..core.schedule import dependents_csr, toposort_levels
from .timing import PricedColumns, booking_columns, bookings_at

#: Below this op count the event loop is already fast and the leveling
#: setup isn't worth it; ``engine="auto"`` skips the attempt.
LEVEL_MIN_OPS = 256

#: Deeper graphs than this serialize so heavily that frontier batching
#: degenerates to the event loop's op-at-a-time pace; give up early.
LEVEL_MAX_DEPTH = 4096


def solve_levels(
    cols: PricedColumns,
    dep_indptr: np.ndarray,
    dep_indices: np.ndarray,
    levels: np.ndarray,
    depth: int,
    ready: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimistic per-level time solve: start = max completion of deps.

    Sweeps levels in topological order; within a level every op's start and
    completion are computed in one batch.  Completion uses the event
    engine's exact expression ``((start + alpha) + transfer) + gamma`` so
    the float64 results are bit-identical when the certificate accepts.
    """
    n = len(cols)
    start = np.zeros(n) if ready is None else np.asarray(ready, float).copy()
    comp = np.zeros(n)
    transfer = cols.transfer_time()
    ndeps = np.diff(dep_indptr)
    order = np.argsort(levels, kind="stable")
    counts = np.bincount(levels, minlength=depth)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    for lvl in range(depth):
        uids = order[bounds[lvl]:bounds[lvl + 1]]
        if not uids.size:
            continue
        withdeps = uids[ndeps[uids] > 0]
        if withdeps.size:
            # reduceat cannot express empty segments, hence the filter.
            cnt = ndeps[withdeps]
            excl = np.cumsum(cnt) - cnt
            flat = np.arange(int(cnt.sum()), dtype=np.int64)
            flat = flat - np.repeat(excl, cnt) + np.repeat(
                dep_indptr[withdeps], cnt)
            dep_comp = comp[dep_indices[flat]]
            start[withdeps] = np.maximum(
                start[withdeps], np.maximum.reduceat(dep_comp, excl))
        comp[uids] = ((start[uids] + cols.alpha[uids]) + transfer[uids]
                      ) + cols.gamma[uids]
    return start, comp


def _bookings(cols: PricedColumns, start: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-op resource slots into (id, start, occupancy) streams,
    sorted by resource then chronologically — certificate order.  Delegates
    to the shared :func:`repro.simulator.timing.bookings_at` flatten so the
    serving replay engine certifies against the exact same streams."""
    return bookings_at(booking_columns(cols), start)


def certificate_ok(rid: np.ndarray, st: np.ndarray, occ: np.ndarray) -> bool:
    """True iff no resource timeline has overlapping bookings.

    Inputs are (resource, start)-sorted.  Consecutive bookings on the same
    resource must satisfy ``start[i+1] >= start[i] + occ[i]``; bookings at
    the *same* instant are only accepted when the later one is zero-width
    (zero-width bookings never block the event loop's ``free_at > now``
    test and add exactly 0.0 to busy totals, so admission order is
    unobservable).  Since an accepted pairwise check makes ends
    nondecreasing per resource, checking consecutive pairs is equivalent
    to checking against the running max end.
    """
    if rid.shape[0] < 2:
        return True
    end = st + occ
    same = rid[1:] == rid[:-1]
    ok = (st[1:] >= end[:-1]) & ((st[1:] > st[:-1]) | (occ[1:] == 0.0))
    return bool((ok | ~same).all())


def busy_totals(cols: PricedColumns, rid: np.ndarray, occ: np.ndarray
                ) -> dict:
    """Per-resource busy seconds, accumulated chronologically.

    A plain python loop on purpose: the event engine accumulates each
    resource's occupancies one ``+=`` at a time in start order, and float
    addition is not associative — pairwise-summing numpy reductions would
    drift in the last ulp.  The input is (resource, start)-sorted, so each
    resource's additions happen in exactly the event loop's order.
    """
    busy: dict = {}
    key_of: dict = {}
    for r, o in zip(rid.tolist(), occ.tolist()):
        key = key_of.get(r)
        if key is None:
            key = key_of[r] = cols.resource_key(r)
        busy[key] = busy.get(key, 0.0) + o
    return busy


def attempt_level(
    cols: PricedColumns,
    dep_indptr: np.ndarray,
    dep_indices: np.ndarray,
    leveling: tuple[np.ndarray, int] | None,
    ready: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, dict] | None:
    """Run the levelized solve and certify it; ``None`` means fall back.

    ``leveling`` is the precomputed ``(levels, depth)`` pair (pass ``None``
    to decline, e.g. when the peel already failed).  On success returns
    ``(start, completion, resource_busy)`` carrying exactly the values the
    event loop would have produced.
    """
    if leveling is None:
        return None
    levels, depth = leveling
    start, comp = solve_levels(cols, dep_indptr, dep_indices,
                               levels, depth, ready)
    rid, st, occ = _bookings(cols, start)
    if not certificate_ok(rid, st, occ):
        return None
    return start, comp, busy_totals(cols, rid, occ)


def schedule_leveling(schedule) -> tuple[np.ndarray, int] | None:
    """Leveling of a schedule's dep graph under the engine's depth cap."""
    return schedule.dep_levels(LEVEL_MAX_DEPTH)


def graph_leveling(dep_indptr: np.ndarray, dep_indices: np.ndarray
                   ) -> tuple[np.ndarray, int] | None:
    """Leveling of an ad-hoc backward-dependency CSR (workload merges).

    ``dep_indices[dep_indptr[i]:dep_indptr[i + 1]]`` lists the predecessors
    of node ``i``; the result follows the :func:`toposort_levels` contract
    under the engine's depth cap.
    """
    dpt_indptr, dpt_indices = dependents_csr(dep_indptr, dep_indices)
    return toposort_levels(np.diff(dep_indptr), dpt_indptr, dpt_indices,
                           dep_indptr.shape[0] - 1, max_depth=LEVEL_MAX_DEPTH)
