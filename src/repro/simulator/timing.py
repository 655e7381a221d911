"""alpha-beta-gamma cost model for point-to-point operations.

Every lowered op is priced against the *physical* machine (which links it
really crosses, which NIC serves each endpoint) and the *virtual* plan (which
library the crossed hierarchy level was assigned, per Listing 2 line 14):

* **alpha** — wire latency of the physical path plus the library's
  per-message software latency;
* **beta** — serialization time on each shared resource the transfer
  occupies: NIC tx/rx timelines for inter-node hops, per-GPU per-level link
  timelines for intra-node hops, the copy engine for local moves.  NICs are
  booked at wire rate while endpoints are booked at the (slower) single-flow
  rate, so several flows from one node can keep a NIC busier than any single
  GPU could — the effect multi-NIC striping exploits;
* **gamma** — reduction-kernel time at the destination when the op combines
  data, scaled by the library's kernel fusion quality (NCCL hides most of
  this; Section 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.schedule import P2POp
from ..errors import FaultError
from ..machine.faults import rates_for
from ..machine.nic import nic_of
from ..machine.spec import INTER_NODE, MachineSpec
from ..transport.library import Library
from ..transport.profiles import profile

#: Resource keys are hashable tuples; the first element names the kind.
ResourceKey = tuple

#: Fraction of a message's software latency that occupies the link/NIC
#: resource itself (per-message processing).  The rest of alpha is
#: pipelineable: it delays *this* message's completion but lets other
#: messages use the wire meanwhile, as real NICs and GPU DMA engines do.
RESOURCE_ALPHA_FRACTION = 0.2


@dataclass(frozen=True)
class PricedOp:
    """Simulation costs of one op: per-resource occupancy + latency + kernel."""

    resources: tuple[tuple[ResourceKey, float], ...]  # (key, seconds busy)
    alpha: float  # seconds of latency before data lands
    gamma: float  # seconds of reduction compute after the transfer

    @property
    def overhead(self) -> float:
        """Per-message occupancy added to every resource this op touches."""
        return self.alpha * RESOURCE_ALPHA_FRACTION

    @property
    def transfer_time(self) -> float:
        """Serialization time on the op's slowest resource (the beta term)."""
        return max((dur for _, dur in self.resources), default=0.0)

    @property
    def total_time(self) -> float:
        """End-to-end op latency: alpha + slowest-resource beta + gamma."""
        return self.alpha + self.transfer_time + self.gamma


def _gb(bytes_: float) -> float:
    return bytes_ / 1.0e9


def price_op(
    op: P2POp,
    machine: MachineSpec,
    libraries: tuple[Library, ...],
    elem_bytes: int,
) -> PricedOp:
    """Price one op for the event engine.

    On a degraded machine (``machine.faults`` set) each endpoint's resources
    are booked at their own derated rates, so tx and rx sides of one transfer
    may occupy their timelines for different durations.  Healthy machines
    take the exact pre-fault-layer code path, so their prices stay
    byte-identical.
    """
    nbytes = op.count * elem_bytes
    path = machine.path(op.src, op.dst)

    rates = rates_for(machine)
    if rates is not None and (rates.drained[op.src] or rates.drained[op.dst]):
        raise FaultError(
            f"op {op.uid}: endpoint on a drained node ({op.src} -> {op.dst}); "
            "drained nodes carry no traffic — re-plan on the shrunk machine"
        )

    if op.is_local:
        gamma = 0.0
        if op.reduce_op is not None:
            gamma = _gb(nbytes) / machine.reduce_bandwidth + machine.kernel_latency
        duration = _gb(nbytes) / machine.copy_bandwidth
        resources = ((("copy", op.src), duration),)
        return PricedOp(resources, machine.copy_latency, gamma)

    if op.level is None or not 0 <= op.level < len(libraries):
        raise ValueError(f"op {op.uid} has no valid library level: {op.level}")
    lib = libraries[op.level]
    prof = profile(lib, machine.name)

    gamma = 0.0
    if op.reduce_op is not None:
        gamma = (
            _gb(nbytes) / machine.reduce_bandwidth
            + machine.kernel_latency * prof.kernel_scale
        )

    if path.kind == INTER_NODE:
        flow_bw = min(machine.nic_bandwidth, machine.injection_bandwidth) * prof.eff_inter
        if flow_bw <= 0:
            raise ValueError(
                f"op {op.uid}: {lib.name} cannot carry inter-node traffic "
                f"({op.src} -> {op.dst}); was a node-local library scheduled "
                "across nodes (e.g. by a permuted placement)?"
            )
        src_node, dst_node = machine.node_of(op.src), machine.node_of(op.dst)
        src_nic, dst_nic = machine.nic_of(op.src), machine.nic_of(op.dst)
        if rates is None:
            wire = _gb(nbytes) / machine.nic_bandwidth
            endpoint = _gb(nbytes) / flow_bw
            wire_rx, endpoint_rx = wire, endpoint
        else:
            # Each side serializes at its own derated NIC/injection rate.
            tx_rate = machine.nic_bandwidth * rates.nic_scale[src_node, src_nic]
            rx_rate = machine.nic_bandwidth * rates.nic_scale[dst_node, dst_nic]
            inj_tx = machine.injection_bandwidth * rates.inj_scale[op.src]
            inj_rx = machine.injection_bandwidth * rates.inj_scale[op.dst]
            wire = _gb(nbytes) / tx_rate
            wire_rx = _gb(nbytes) / rx_rate
            endpoint = _gb(nbytes) / (min(tx_rate, inj_tx) * prof.eff_inter)
            endpoint_rx = _gb(nbytes) / (min(rx_rate, inj_rx) * prof.eff_inter)
        resources = (
            (("nic_tx", src_node, src_nic), wire),
            (("nic_rx", dst_node, dst_nic), wire_rx),
            (("inj_tx", op.src), endpoint),
            (("inj_rx", op.dst), endpoint_rx),
        )
        alpha = path.latency + prof.alpha_inter
        return PricedOp(resources, alpha, gamma)

    # Intra-node link at some physical level.
    lvl = path.level_index
    if rates is None:
        bw = path.bandwidth * prof.eff_intra
        duration = _gb(nbytes) / bw
        dur_tx, dur_rx = duration, duration
    else:
        bw_tx = (path.bandwidth * rates.link_scale[op.src, lvl]) * prof.eff_intra
        bw_rx = (path.bandwidth * rates.link_scale[op.dst, lvl]) * prof.eff_intra
        dur_tx = _gb(nbytes) / bw_tx
        dur_rx = _gb(nbytes) / bw_rx
    resources = (
        (("link_tx", op.src, lvl), dur_tx),
        (("link_rx", op.dst, lvl), dur_rx),
    )
    alpha = path.latency + prof.alpha_intra
    return PricedOp(resources, alpha, gamma)


#: Below this op count the per-array setup of the batch path costs more than
#: it saves; small schedules take the scalar path.
BATCH_MIN_OPS = 64


# --------------------------------------------------- integer resource encoding
#: Resource-kind codes for the packed int64 resource ids of
#: :class:`PricedColumns`.  A resource tuple ``(kind, a[, b])`` packs as
#: ``kind << 42 | a << 21 | b`` — 21 bits each for the rank/node operand and
#: the NIC/level operand covers machines beyond two million ranks, i.e. well
#: past the full-system Aurora/Frontier aggregate models.
_KIND_NAMES = ("copy", "nic_tx", "nic_rx", "inj_tx", "inj_rx",
               "link_tx", "link_rx")
_KIND_CODES = {name: code for code, name in enumerate(_KIND_NAMES)}
#: Operand count after the kind name (1 = ``(kind, a)``, 2 = ``(kind, a, b)``).
_KIND_ARITY = (1, 2, 2, 1, 1, 2, 2)
_SHIFT_KIND = 42
_SHIFT_A = 21
_MASK_A = (1 << _SHIFT_KIND) - 1
_MASK_B = (1 << _SHIFT_A) - 1


def _encode_resource(kind: int, a: np.ndarray, b=None) -> np.ndarray:
    """Pack resource tuples ``(kind, a[, b])`` into int64 ids, vectorized."""
    out = (np.int64(kind) << _SHIFT_KIND) | (a.astype(np.int64) << _SHIFT_A)
    if b is not None:
        out = out | b.astype(np.int64)
    return out


def decode_resource(rid: int) -> ResourceKey:
    """Inverse of the packed encoding: int64 id back to the tuple key."""
    kind = rid >> _SHIFT_KIND
    a = (rid & _MASK_A) >> _SHIFT_A
    if _KIND_ARITY[kind] == 1:
        return (_KIND_NAMES[kind], a)
    return (_KIND_NAMES[kind], a, rid & _MASK_B)


@dataclass
class PricedColumns:
    """Array-form pricing of a whole op graph (both engines' input).

    The value-for-value equivalent of a ``list[PricedOp]`` without the
    objects: ``alpha``/``gamma`` are per-op scalars, and each op's resource
    bookings live in up to four slots of ``res_id``/``res_dur`` (id ``-1``
    and duration ``0.0`` mark unused slots, which always follow the used
    ones).  Ids are either the packed arithmetic encoding above (schedule
    pricing, and the merged workload graphs built from it) or interned
    sequential ids with an explicit ``keys`` table
    (:func:`columns_from_priced`); use :meth:`resource_key` to translate
    either kind back to tuple keys.
    """

    alpha: np.ndarray  # (n,) float64
    gamma: np.ndarray  # (n,) float64
    res_id: np.ndarray  # (n, s) int64; -1 marks an unused slot
    res_dur: np.ndarray  # (n, s) float64; 0.0 in unused slots
    keys: dict[int, ResourceKey] | None = None

    def __len__(self) -> int:
        return int(self.alpha.shape[0])

    def resource_key(self, rid: int) -> ResourceKey:
        """Tuple key of one resource id (interned table or packed decode)."""
        if self.keys is not None:
            return self.keys[rid]
        return decode_resource(rid)

    def overhead(self) -> np.ndarray:
        """Per-op resource occupancy overhead (``PricedOp.overhead``)."""
        return self.alpha * RESOURCE_ALPHA_FRACTION

    def transfer_time(self) -> np.ndarray:
        """Per-op slowest-resource serialization time (the beta term)."""
        if not len(self):
            return np.zeros(0)
        return self.res_dur.max(axis=1)


@dataclass
class _Costs:
    """Per-op arrays of the vectorized cost model over one schedule."""

    src: np.ndarray  # (n,) int64 endpoints
    dst: np.ndarray
    local: np.ndarray  # (n,) bool masks, mutually exclusive
    inter: np.ndarray
    intra: np.ndarray
    src_node: np.ndarray
    dst_node: np.ndarray
    src_nic: np.ndarray
    dst_nic: np.ndarray
    lvl_idx: np.ndarray  # intra-node physical level; -1 off the intra mask
    alpha: np.ndarray
    gamma: np.ndarray
    dur_local: np.ndarray
    # tx/rx sides of each booking; on a healthy machine the rx arrays are
    # the tx arrays themselves.
    wire: np.ndarray
    wire_rx: np.ndarray
    endpoint: np.ndarray
    endpoint_rx: np.ndarray
    dur_intra: np.ndarray
    dur_intra_rx: np.ndarray


def _price_core(
    schedule,
    machine: MachineSpec,
    libraries: tuple[Library, ...],
    elem_bytes: int,
) -> _Costs:
    """Vectorized :func:`price_op` over a schedule's array columns.

    Every array is the element-wise float64 expression :func:`price_op`
    evaluates, in the same order, so batch and scalar pricing are
    bit-identical; ``schedule.ops`` is only touched to name an offending op.
    """
    src = schedule.src.astype(np.int64)
    dst = schedule.dst.astype(np.int64)
    count = schedule.count.astype(np.float64)
    level = schedule.level.astype(np.int64)
    reduces = schedule.reduce >= 0
    n = src.shape[0]

    local = src == dst
    rates = rates_for(machine)
    if rates is not None:
        bad_drained = rates.drained[src] | rates.drained[dst]
        if bad_drained.any():
            bad = schedule.ops[int(np.argmax(bad_drained))]
            raise FaultError(
                f"op {bad.uid}: endpoint on a drained node "
                f"({bad.src} -> {bad.dst}); drained nodes carry no traffic "
                "— re-plan on the shrunk machine"
            )
    bad_level = ~local & ((level < 0) | (level >= len(libraries)))
    if bad_level.any():
        bad = schedule.ops[int(np.argmax(bad_level))]
        raise ValueError(f"op {bad.uid} has no valid library level: {bad.level}")

    g = machine.gpus_per_node
    src_node = src // g
    dst_node = dst // g
    inter = ~local & (src_node != dst_node)
    intra = ~local & ~inter

    profs = [profile(lib, machine.name) for lib in libraries]
    lvl_of_op = np.where(local, 0, level)  # safe gather index; masked later
    eff_inter = np.array([p.eff_inter for p in profs])[lvl_of_op]
    eff_intra = np.array([p.eff_intra for p in profs])[lvl_of_op]
    alpha_inter_sw = np.array([p.alpha_inter for p in profs])[lvl_of_op]
    alpha_intra_sw = np.array([p.alpha_intra for p in profs])[lvl_of_op]
    kernel_scale = np.array([p.kernel_scale for p in profs])[lvl_of_op]

    # Physical intra-node level separating each same-node pair (the
    # vectorized equivalent of MachineSpec.intra_level_index).
    la = src % g
    lb = dst % g
    lvl_idx = np.full(n, -1, dtype=np.int64)
    block = g
    for idx, level_spec in enumerate(machine.levels):
        block //= level_spec.extent
        hit = intra & (lvl_idx < 0) & (la // block != lb // block)
        lvl_idx[hit] = idx
    lvl_safe = np.where(lvl_idx < 0, 0, lvl_idx)
    level_bw = np.array([lv.bandwidth for lv in machine.levels])[lvl_safe]
    level_lat = np.array([lv.latency for lv in machine.levels])[lvl_safe]

    alpha = np.full(n, machine.copy_latency)
    alpha[inter] = machine.nic_latency + alpha_inter_sw[inter]
    alpha[intra] = (level_lat + alpha_intra_sw)[intra]

    nic_table = np.array(
        [nic_of(i, g, machine.nic_count, machine.binding) for i in range(g)]
    )
    src_nic = nic_table[la]
    dst_nic = nic_table[lb]

    if rates is None:
        flow_bw = min(machine.nic_bandwidth, machine.injection_bandwidth) * eff_inter
        intra_bw = level_bw * eff_intra
        flow_bw_rx, intra_bw_rx = flow_bw, intra_bw
    else:
        # Element-wise the same float expressions as the degraded branch of
        # price_op, so scalar and batch pricing stay bit-identical.
        nic_rate = machine.nic_bandwidth * rates.nic_scale
        inj_rate = machine.injection_bandwidth * rates.inj_scale
        wire_bw_tx = nic_rate[src_node, src_nic]
        wire_bw_rx = nic_rate[dst_node, dst_nic]
        flow_bw = np.minimum(wire_bw_tx, inj_rate[src]) * eff_inter
        flow_bw_rx = np.minimum(wire_bw_rx, inj_rate[dst]) * eff_inter
        intra_bw = (level_bw * rates.link_scale[src, lvl_safe]) * eff_intra
        intra_bw_rx = (level_bw * rates.link_scale[dst, lvl_safe]) * eff_intra
    bad_flow = inter & ((flow_bw <= 0) | (flow_bw_rx <= 0))
    if bad_flow.any():
        # Raises the canonical single-op error message.
        price_op(schedule.ops[int(np.argmax(bad_flow))], machine, libraries,
                 elem_bytes)
    bad_intra = intra & ((intra_bw <= 0) | (intra_bw_rx <= 0))
    if bad_intra.any():
        # Raises the canonical single-op error message.
        price_op(schedule.ops[int(np.argmax(bad_intra))], machine, libraries,
                 elem_bytes)

    gb = (count * elem_bytes) / 1.0e9  # same order as _gb(count * elem_bytes)
    red_time = gb / machine.reduce_bandwidth
    gamma = np.zeros(n)
    gamma = np.where(reduces & local, red_time + machine.kernel_latency, gamma)
    gamma = np.where(
        reduces & ~local,
        red_time + machine.kernel_latency * kernel_scale, gamma,
    )

    dur_local = gb / machine.copy_bandwidth
    if rates is None:
        wire = wire_rx = gb / machine.nic_bandwidth
        with np.errstate(divide="ignore"):
            endpoint = endpoint_rx = np.where(
                flow_bw > 0, gb / np.where(flow_bw > 0, flow_bw, 1.0), 0.0
            )
        dur_intra = dur_intra_rx = gb / np.where(intra_bw > 0, intra_bw, 1.0)
    else:
        # Degraded machine: tx and rx sides priced at their own rates.
        wire = gb / wire_bw_tx
        wire_rx = gb / wire_bw_rx
        endpoint = gb / np.where(flow_bw > 0, flow_bw, 1.0)
        endpoint_rx = gb / np.where(flow_bw_rx > 0, flow_bw_rx, 1.0)
        dur_intra = gb / np.where(intra_bw > 0, intra_bw, 1.0)
        dur_intra_rx = gb / np.where(intra_bw_rx > 0, intra_bw_rx, 1.0)

    return _Costs(
        src=src, dst=dst, local=local, inter=inter, intra=intra,
        src_node=src_node, dst_node=dst_node,
        src_nic=src_nic, dst_nic=dst_nic, lvl_idx=lvl_idx,
        alpha=alpha, gamma=gamma, dur_local=dur_local,
        wire=wire, wire_rx=wire_rx, endpoint=endpoint,
        endpoint_rx=endpoint_rx, dur_intra=dur_intra,
        dur_intra_rx=dur_intra_rx,
    )


def price_schedule(
    schedule,
    machine: MachineSpec,
    libraries: tuple[Library, ...],
    elem_bytes: int,
) -> list[PricedOp]:
    """Price a whole schedule straight from its array columns.

    Bit-identical to mapping :func:`price_op` over ``schedule.ops`` (same
    float64 values through the same operations) without materializing any
    :class:`~repro.core.schedule.P2POp` views.  No simulator path builds
    these objects any more — both engines read
    :func:`price_schedule_columns` — but the repository benchmark's tracer
    (``perfbench/tracing.py``) wraps this function and
    :func:`columns_from_priced` by name, so both stay until it changes.
    """
    if len(schedule) < BATCH_MIN_OPS:
        return [price_op(op, machine, libraries, elem_bytes)
                for op in schedule.ops]
    c = _price_core(schedule, machine, libraries, elem_bytes)

    # Assemble the PricedOp records from plain python scalars (one .tolist()
    # per array beats a quarter-million numpy scalar __getitem__ calls).
    src_l, dst_l = c.src.tolist(), c.dst.tolist()
    src_node_l, dst_node_l = c.src_node.tolist(), c.dst_node.tolist()
    src_nic_l, dst_nic_l = c.src_nic.tolist(), c.dst_nic.tolist()
    alpha_l, gamma_l = c.alpha.tolist(), c.gamma.tolist()
    dur_local_l, wire_l = c.dur_local.tolist(), c.wire.tolist()
    endpoint_l, dur_intra_l = c.endpoint.tolist(), c.dur_intra.tolist()
    wire_rx_l = wire_l if c.wire_rx is c.wire else c.wire_rx.tolist()
    endpoint_rx_l = (endpoint_l if c.endpoint_rx is c.endpoint
                     else c.endpoint_rx.tolist())
    dur_intra_rx_l = (dur_intra_l if c.dur_intra_rx is c.dur_intra
                      else c.dur_intra_rx.tolist())
    lvl_idx_l = c.lvl_idx.tolist()
    local_l, inter_l = c.local.tolist(), c.inter.tolist()

    out: list[PricedOp] = []
    for i in range(len(src_l)):
        if local_l[i]:
            resources: tuple = ((("copy", src_l[i]), dur_local_l[i]),)
        elif inter_l[i]:
            resources = (
                (("nic_tx", src_node_l[i], src_nic_l[i]), wire_l[i]),
                (("nic_rx", dst_node_l[i], dst_nic_l[i]), wire_rx_l[i]),
                (("inj_tx", src_l[i]), endpoint_l[i]),
                (("inj_rx", dst_l[i]), endpoint_rx_l[i]),
            )
        else:
            li = lvl_idx_l[i]
            resources = (
                (("link_tx", src_l[i], li), dur_intra_l[i]),
                (("link_rx", dst_l[i], li), dur_intra_rx_l[i]),
            )
        out.append(PricedOp(resources, alpha_l[i], gamma_l[i]))
    return out


def price_schedule_columns(
    schedule,
    machine: MachineSpec,
    libraries: tuple[Library, ...],
    elem_bytes: int,
) -> PricedColumns:
    """Price a schedule into array columns for the levelized engine.

    Same float64 values through the same operations as
    :func:`price_schedule`, just laid out as arrays instead of
    :class:`PricedOp` objects — the levelized engine's timing math is
    bit-identical to the event loop's because both consume these numbers.
    Slot layout mirrors the tuple order of :func:`price_op` exactly: local
    ops book ``copy`` in slot 0; inter-node ops book ``nic_tx``/``nic_rx``/
    ``inj_tx``/``inj_rx`` in slots 0-3; intra-node ops book ``link_tx``/
    ``link_rx`` in slots 0-1.
    """
    n = len(schedule)
    res_id = np.full((n, 4), -1, dtype=np.int64)
    res_dur = np.zeros((n, 4))
    if n == 0:
        return PricedColumns(alpha=np.zeros(0), gamma=np.zeros(0),
                             res_id=res_id, res_dur=res_dur)
    c = _price_core(schedule, machine, libraries, elem_bytes)
    src, dst = c.src, c.dst

    loc = c.local
    res_id[loc, 0] = _encode_resource(_KIND_CODES["copy"], src[loc])
    res_dur[loc, 0] = c.dur_local[loc]

    itr = c.inter
    res_id[itr, 0] = _encode_resource(
        _KIND_CODES["nic_tx"], c.src_node[itr], c.src_nic[itr])
    res_id[itr, 1] = _encode_resource(
        _KIND_CODES["nic_rx"], c.dst_node[itr], c.dst_nic[itr])
    res_id[itr, 2] = _encode_resource(_KIND_CODES["inj_tx"], src[itr])
    res_id[itr, 3] = _encode_resource(_KIND_CODES["inj_rx"], dst[itr])
    res_dur[itr, 0] = c.wire[itr]
    res_dur[itr, 1] = c.wire_rx[itr]
    res_dur[itr, 2] = c.endpoint[itr]
    res_dur[itr, 3] = c.endpoint_rx[itr]

    ita = c.intra
    res_id[ita, 0] = _encode_resource(
        _KIND_CODES["link_tx"], src[ita], c.lvl_idx[ita])
    res_id[ita, 1] = _encode_resource(
        _KIND_CODES["link_rx"], dst[ita], c.lvl_idx[ita])
    res_dur[ita, 0] = c.dur_intra[ita]
    res_dur[ita, 1] = c.dur_intra_rx[ita]

    return PricedColumns(alpha=c.alpha, gamma=c.gamma,
                         res_id=res_id, res_dur=res_dur)


# ----------------------------------------------------------- booking replay
@dataclass(frozen=True)
class BookingColumns:
    """Start-independent flattening of a pricing's resource bookings.

    Everything about a booking except its start time — which resource it
    occupies and for how long — is a function of the pricing alone.  The
    serving replay engine prices each distinct plan once, captures this
    static part, and then materializes concrete booking streams per arrival
    with :func:`bookings_at`; the levelized certificate uses the same
    flatten, so both consume identical float64 occupancies.
    """

    slots: int  # columns of the (n, s) resource-slot grid
    mask: np.ndarray  # (n * slots,) bool; True where a slot is booked
    rid: np.ndarray  # (k,) int64 booked resource ids, row-major slot order
    occ: np.ndarray  # (k,) float64 occupancy (overhead + duration)


def booking_columns(cols: PricedColumns) -> BookingColumns:
    """The start-independent booking flatten of ``cols`` (computed once)."""
    flat = cols.res_id.reshape(-1)
    mask = flat >= 0
    occ = (cols.overhead()[:, None] + cols.res_dur).reshape(-1)[mask]
    return BookingColumns(slots=int(cols.res_id.shape[1]), mask=mask,
                          rid=flat[mask], occ=occ)


def bookings_at(static: BookingColumns, start: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Booking streams at concrete op ``start`` times, certificate-sorted.

    Returns ``(rid, start, occ)`` sorted by resource id first, start second
    — the order the levelized certificate expects.  Because the primary sort
    key is the start-independent ``rid``, the post-sort resource sequence
    (and hence the per-resource segment structure) is identical for every
    ``start`` vector, which is what lets the replay engine precompute
    per-resource segments once per plan.
    """
    st = np.repeat(start, static.slots)[static.mask]
    order = np.lexsort((st, static.rid))
    return static.rid[order], st[order], static.occ[order]


def columns_from_priced(priced: list[PricedOp]) -> PricedColumns | None:
    """Interned column form of already-priced ops.

    Resource keys are interned into sequential ids with an explicit decode
    table instead of the packed arithmetic encoding, so arbitrary key
    tuples round-trip.  Returns ``None`` when any op books more than the
    four slots the column form holds.
    """
    n = len(priced)
    alpha = np.fromiter((c.alpha for c in priced), np.float64, n)
    gamma = np.fromiter((c.gamma for c in priced), np.float64, n)
    res_id = np.full((n, 4), -1, dtype=np.int64)
    res_dur = np.zeros((n, 4))
    ids: dict[ResourceKey, int] = {}
    keys: dict[int, ResourceKey] = {}
    for i, cost in enumerate(priced):
        if len(cost.resources) > 4:
            return None
        for j, (key, dur) in enumerate(cost.resources):
            rid = ids.get(key)
            if rid is None:
                rid = ids[key] = len(ids)
                keys[rid] = key
            res_id[i, j] = rid
            res_dur[i, j] = dur
    return PricedColumns(alpha=alpha, gamma=gamma, res_id=res_id,
                         res_dur=res_dur, keys=keys)
