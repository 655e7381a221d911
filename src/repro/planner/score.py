"""Analytic candidate scoring: sound lower bounds and model estimates.

The staged search discards a candidate without simulating it only when its
**lower bound** already exceeds the best simulated time found so far, so the
bound must be *sound*: never larger than the time the event engine would
report for that candidate's lowered schedule.  :func:`lower_bound_seconds`
builds such a bound from four ingredients, each provable against the
lowering (:mod:`repro.core.passes`) and the cost model
(:mod:`repro.simulator.timing`):

1. **Chain traffic.**  The tree lowering sends one stream of the full
   primitive payload from the root's node to every *off-node* sibling block
   along the root's chain (ring candidates send one stream to the next
   conceptual node); a reduction mirrors this inward.  Striping splits the
   streams but conserves their bytes, so the root's node must move at least
   ``streams * payload`` bytes through its NICs — which the engine books at
   wire rate on serializing timelines.  Every other node holding a leaf
   moves at least one payload in the complementary direction.
2. **Per-message resource overhead.**  Pipelining splits each primitive into
   ``min(m, count)`` chunks (``split_even``) and every chunk of every stream
   occupies a NIC for ``RESOURCE_ALPHA_FRACTION`` of its message latency on
   top of its wire time; the busiest NIC of a node carries at least the
   average share of both.
3. **Endpoint floors.**  A root must push each payload off its GPU and a
   leaf must absorb it; the fastest conceivable endpoint rate is the sum of
   every link and injection resource the rank owns at the candidate's best
   library efficiency.
4. **Table 3.**  When the composition is a named Table 2 collective, the
   simulated throughput cannot exceed
   :func:`repro.model.bounds.theoretical_bound` (the bound-soundness tests
   pin this invariant), so its reciprocal is a valid floor.

On a degraded machine (``machine.faults`` set) the chain-traffic floor
divides by the *sum of the derated per-NIC rates* instead of ``k * wire`` —
aggregate node egress in time T never exceeds T times that sum, so the bound
stays sound when per-NIC bandwidths differ.  The remaining ingredients keep
their healthy rates, which only loosens them (derated rates are never
faster), so they stay sound by the same argument.

:func:`estimate_seconds` is the *model-guided* companion: Equations (1)-(2)
of the paper (:mod:`repro.model.perf_model`) predict each candidate's time
under its topology, libraries, striping, and pipeline depth.  The estimate
orders candidates (best-first evaluation makes the incumbent — and with it
the pruning threshold — tight early); it is deliberately not a bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from ..machine.faults import rates_for
from ..machine.spec import MachineSpec
from ..model.bounds import theoretical_bound
from ..model.perf_model import ModelParams, t_ring, t_tree
from ..simulator.timing import RESOURCE_ALPHA_FRACTION
from ..transport.profiles import profile
from .space import PlanCandidate


@dataclass(frozen=True)
class _PrimRecord:
    """Compact scoring view of one primitive."""

    is_multicast: bool
    root: int
    leaves: tuple[int, ...]  # sorted
    count: int


@dataclass(frozen=True)
class _NodeFloors:
    """Per-node minimum NIC traffic of one program under one topology."""

    tx_bytes: tuple[float, ...]
    rx_bytes: tuple[float, ...]
    tx_counts: tuple[tuple[int, ...], ...]  # element counts, one per stream
    rx_counts: tuple[tuple[int, ...], ...]


class TrafficSummary:
    """Traffic floors of one (program, machine, dtype) triple.

    Endpoint (per-rank) floors are schedule-independent; the per-node NIC
    floors depend on the candidate's hierarchy and ring choice and are
    computed — and cached — per topology via :meth:`node_floors`.
    """

    def __init__(self, machine: MachineSpec, elem_bytes: int,
                 prims: list[_PrimRecord]) -> None:
        """Build the summary; use :func:`analyze_program` instead."""
        self.machine = machine
        self.elem_bytes = elem_bytes
        self.prims = prims
        self._floors: dict[tuple, _NodeFloors] = {}
        rank_out = [0.0] * machine.world_size
        rank_in = [0.0] * machine.world_size
        crosses = False
        for prim in prims:
            nbytes = float(prim.count * elem_bytes)
            external = [leaf for leaf in prim.leaves if leaf != prim.root]
            if any(not machine.same_node(prim.root, leaf)
                   for leaf in external):
                crosses = True
            if not external:
                continue
            if prim.is_multicast:
                rank_out[prim.root] += nbytes
                for leaf in external:
                    rank_in[leaf] += nbytes
            else:
                rank_in[prim.root] += nbytes
                for leaf in external:
                    rank_out[leaf] += nbytes
        self.rank_out_bytes = tuple(rank_out)
        self.rank_in_bytes = tuple(rank_in)
        self.crosses_nodes = crosses

    # ------------------------------------------------------------- topology
    def _chain_streams(self, hierarchy: tuple[int, ...], ring: int,
                       prim: _PrimRecord) -> int:
        """Cross-node streams the lowering moves at the root's node.

        Walk the root's chain through the virtual tree; every sibling block
        that lies *entirely* off the root's node and contains a leaf costs
        one stream of the full payload (blocks straddling the node boundary
        are skipped — their hop may be intra-node, and undercounting keeps
        the floor sound).  With a ring the top level is a chain: at most one
        stream leaves the root's node there.
        """
        machine = self.machine
        g = machine.gpus_per_node
        node_lo = (prim.root // g) * g
        node_hi = node_lo + g
        leaves = prim.leaves

        def leaves_in(lo: int, hi: int) -> bool:
            return bisect_left(leaves, hi) > bisect_left(leaves, lo)

        streams = 0
        block_lo, block_size = 0, machine.world_size
        for depth, factor in enumerate(hierarchy):
            child_size = block_size // factor
            child = (prim.root - block_lo) // child_size
            found = 0
            for idx in range(factor):
                if idx == child:
                    continue
                lo = block_lo + idx * child_size
                hi = lo + child_size
                if (hi <= node_lo or lo >= node_hi) and leaves_in(lo, hi):
                    found += 1
            if depth == 0 and ring > 1:
                found = min(found, 1)
            streams += found
            block_lo += child * child_size
            block_size = child_size
        return streams

    def node_floors(self, hierarchy: tuple[int, ...],
                    ring: int) -> _NodeFloors:
        """Per-node minimum NIC traffic under one (hierarchy, ring) choice."""
        key = (hierarchy, ring > 1)
        cached = self._floors.get(key)
        if cached is not None:
            return cached
        machine = self.machine
        nodes = machine.nodes
        tx = [0.0] * nodes
        rx = [0.0] * nodes
        tx_counts: list[list[int]] = [[] for _ in range(nodes)]
        rx_counts: list[list[int]] = [[] for _ in range(nodes)]
        for prim in self.prims:
            nbytes = float(prim.count * self.elem_bytes)
            root_node = machine.node_of(prim.root)
            leaf_nodes = {machine.node_of(leaf) for leaf in prim.leaves}
            remote = sorted(leaf_nodes - {root_node})
            if not remote:
                continue
            streams = self._chain_streams(hierarchy, ring, prim)
            if prim.is_multicast:
                tx[root_node] += streams * nbytes
                tx_counts[root_node].extend([prim.count] * streams)
                for x in remote:
                    rx[x] += nbytes
                    rx_counts[x].append(prim.count)
            else:
                rx[root_node] += streams * nbytes
                rx_counts[root_node].extend([prim.count] * streams)
                for x in remote:
                    tx[x] += nbytes
                    tx_counts[x].append(prim.count)
        floors = _NodeFloors(
            tx_bytes=tuple(tx),
            rx_bytes=tuple(rx),
            tx_counts=tuple(tuple(c) for c in tx_counts),
            rx_counts=tuple(tuple(c) for c in rx_counts),
        )
        self._floors[key] = floors
        return floors

    def max_node_bytes(self, hierarchy: tuple[int, ...], ring: int) -> float:
        """Largest per-node directional floor under one topology."""
        floors = self.node_floors(hierarchy, ring)
        return max(
            max(floors.tx_bytes, default=0.0),
            max(floors.rx_bytes, default=0.0),
        )

    @property
    def max_rank_bytes(self) -> float:
        """Largest per-rank endpoint floor (either direction)."""
        return max(
            max(self.rank_out_bytes, default=0.0),
            max(self.rank_in_bytes, default=0.0),
        )


def analyze_program(program, machine: MachineSpec,
                    elem_bytes: int) -> TrafficSummary:
    """Extract the scoring view of ``program`` on ``machine``.

    The result is reused across every candidate of a search: endpoint floors
    are computed once, per-topology NIC floors on first use per hierarchy.
    """
    from ..core.primitives import Multicast

    prims = [
        _PrimRecord(
            is_multicast=isinstance(prim, Multicast),
            root=prim.root,
            leaves=tuple(sorted(prim.leaves)),
            count=prim.count,
        )
        for prim in program.primitives
    ]
    return TrafficSummary(machine, elem_bytes, prims)


def _profiles(machine: MachineSpec, candidate: PlanCandidate):
    return [profile(lib, machine.name) for lib in candidate.libraries]


def _inter_alphas(machine: MachineSpec, profs) -> list[float]:
    return [
        machine.nic_latency + prof.alpha_inter
        for prof in profs
        if prof.eff_inter > 0
    ]


def lower_bound_seconds(
    traffic: TrafficSummary,
    machine: MachineSpec,
    candidate: PlanCandidate,
    *,
    collective: str | None = None,
    payload_bytes: float | None = None,
) -> float:
    """A sound lower bound on the simulated time of ``candidate``.

    Every term underestimates what the event engine charges (see the module
    docstring); the bound-soundness test suite asserts the invariant for
    every Table 2 collective on both committed machine models, across
    hierarchies, libraries, stripes, rings, and pipeline depths.
    """
    profs = _profiles(machine, candidate)
    k = machine.nic_count
    wire = machine.nic_bandwidth * 1.0e9  # bytes/s at NIC wire rate
    inter_alphas = _inter_alphas(machine, profs)
    overhead = (RESOURCE_ALPHA_FRACTION * min(inter_alphas)
                if inter_alphas else 0.0)
    m = candidate.pipeline
    floors = traffic.node_floors(candidate.hierarchy, candidate.ring)
    rates = rates_for(machine)
    bound = 0.0
    for x in range(machine.nodes):
        tx_msgs = sum(min(m, c) for c in floors.tx_counts[x])
        rx_msgs = sum(min(m, c) for c in floors.rx_counts[x])
        if rates is None:
            node_rate = k * wire
        else:
            # A node's aggregate egress in time T is at most T times the
            # *sum* of its (derated) per-NIC rates — still a sound floor
            # when the NICs are no longer interchangeable.  The per-message
            # overhead term keeps dividing by k: a down NIC still carries
            # messages, just slowly.
            node_rate = float(
                (machine.nic_bandwidth * rates.nic_scale[x]).sum()
            ) * 1.0e9
        bound = max(
            bound,
            floors.tx_bytes[x] / node_rate + tx_msgs / k * overhead,
            floors.rx_bytes[x] / node_rate + rx_msgs / k * overhead,
        )
    # Per-rank endpoint floor: the fastest conceivable egress/ingress is the
    # sum of every resource the rank owns, each at the candidate's best
    # library efficiency — the engine can only be slower.
    eff_intra = max(prof.eff_intra for prof in profs)
    eff_inter = max((prof.eff_inter for prof in profs), default=0.0)
    endpoint_rate = sum(
        level.bandwidth for level in machine.levels
    ) * 1.0e9 * eff_intra
    if machine.nodes > 1 and eff_inter > 0:
        endpoint_rate += min(
            machine.nic_bandwidth, machine.injection_bandwidth
        ) * 1.0e9 * eff_inter
    if endpoint_rate > 0:
        bound = max(bound, traffic.max_rank_bytes / endpoint_rate)
    # At least one inter-node op sits on the critical path, and its full
    # message latency delays completion.
    if traffic.crosses_nodes and inter_alphas:
        bound = max(bound, min(inter_alphas))
    # Table 3, when the composition is a named collective.
    if (collective is not None and payload_bytes is not None
            and machine.nodes > 1):
        tb = theoretical_bound(machine, collective)
        if tb > 0 and tb != float("inf"):
            bound = max(bound, payload_bytes / 1.0e9 / tb)
    return bound


def estimate_seconds(
    traffic: TrafficSummary,
    machine: MachineSpec,
    candidate: PlanCandidate,
) -> float:
    """Model-guided time estimate (Equations 1-2) for ordering candidates.

    Ring candidates are priced with Equation (1), tree candidates with
    Equation (2), fed with the candidate's own per-node traffic floor so
    flat hierarchies carry their multiplied volume.  Striping below the NIC
    count idles rails, modeled by shrinking the effective ``k``; the
    residual intra-node term uses the finest level's bandwidth under the
    candidate's best intra efficiency.  Not a bound — used only to decide
    *evaluation order* and seed choice.
    """
    profs = _profiles(machine, candidate)
    inter_alphas = _inter_alphas(machine, profs)
    alpha = min(inter_alphas) if inter_alphas else machine.nic_latency
    eff_intra = max(prof.eff_intra for prof in profs)
    finest = machine.levels[-1].bandwidth * eff_intra
    intra_coeff = 1.0 / finest if finest > 0 else 0.0
    if machine.nodes <= 1 or not traffic.crosses_nodes:
        return (traffic.max_rank_bytes / 1.0e9) * intra_coeff + alpha
    d = traffic.max_node_bytes(candidate.hierarchy, candidate.ring)
    k_eff = max(1, min(machine.nic_count, candidate.stripe))
    params = ModelParams(
        alpha=alpha,
        nic_count=k_eff,
        nic_bandwidth=machine.nic_bandwidth,
        nodes=machine.nodes,
        pipeline=candidate.pipeline,
        intra_coefficient=intra_coeff,
    )
    cost = t_ring if candidate.ring > 1 else t_tree
    return cost(d, params)


def critical_path_seconds(schedule, machine: MachineSpec, libraries,
                          elem_bytes: int = 4) -> float:
    """Uncontended longest-path time of a *lowered* schedule.

    The levelized engine's optimistic solve without its resource
    certificate: every op starts the instant its dependencies complete, as
    if each resource had infinite capacity.  Since the event engine can
    only ever delay an op beyond its dependency-ready instant (resources
    add waiting, never remove it), this is a sound lower bound on the
    simulated makespan of either engine — the property the fuzz harness
    asserts.  Unlike :func:`lower_bound_seconds` this prices the schedule
    actually produced by lowering, so it reflects composition and pipeline
    choices, not just traffic volume.
    """
    from ..simulator.level import solve_levels
    from ..simulator.timing import price_schedule_columns

    n = len(schedule)
    if n == 0:
        return 0.0
    cols = price_schedule_columns(schedule, machine, tuple(libraries),
                                  elem_bytes)
    leveling = schedule.dep_levels(max_depth=None)
    if leveling is None:
        raise ValueError("schedule dependency graph contains a cycle")
    _, comp = solve_levels(cols, schedule.dep_indptr, schedule.dep_indices,
                           *leveling)
    return float(comp.max())
