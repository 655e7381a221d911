"""Structural figures: volumes, bindings, trees, stages, matrices, bounds.

These figures are pure functions of the machine *model* — no throughput
simulation — so they regenerate in milliseconds and anchor the fast half of
the analysis test suite.  Also home to the Section 7 synthesis-cost table,
whose committed baseline reports only the deterministic op count (the
host-dependent wall-clock lives in an uncommitted sidecar; see
``benchmarks/test_synthesis_cost.py``).
"""

from __future__ import annotations

from .registry import register


def _broadcast(machine, count: int, **init_kwargs):
    """An initialized communicator broadcasting ``count`` elements from
    rank 0 to every rank (the probe behind Figures 1, 6, 7 and Section 7)."""
    from ..core.communicator import Communicator

    comm = Communicator(machine, materialize=False)
    send = comm.alloc(count, "sendbuf")
    recv = comm.alloc(count, "recvbuf")
    comm.add_multicast(send, recv, count, 0, list(range(machine.world_size)))
    comm.init(**init_kwargs)
    return comm


# --------------------------------------------------------------------- Fig 1
def gen_fig1_volume(nodes: int = 2, gpus_per_node: int = 3,
                    count: int = 1024) -> list:
    """Records of Figure 1: per-strategy broadcast volume by kind.

    The direct strategy redundantly moves ``(p - g)`` copies across nodes
    while the hierarchical one moves exactly ``nodes - 1``.
    """
    from ..machine.machines import generic
    from ..transport.library import Library

    machine = generic(nodes, gpus_per_node, 1, name="fig1")
    records = [{"row": "meta", "nodes": nodes, "gpus_per_node": gpus_per_node,
                "count": count}]
    for strategy, hierarchy, libs in (
        ("direct", [machine.world_size], [Library.MPI]),
        ("hierarchical", [nodes, gpus_per_node], [Library.MPI, Library.IPC]),
    ):
        comm = _broadcast(machine, count, hierarchy=hierarchy, library=libs)
        vols = comm.schedule.volume_by_kind(machine)
        records.append({
            "row": "strategy",
            "strategy": strategy,
            "inter_node": vols["inter-node"],
            "intra_node": vols["intra-node"],
            "local": vols.get("local", 0),
        })
    return records


def render_fig1_volume(records: list) -> str:
    """Figure 1 baseline text from records."""
    meta = next(r for r in records if r["row"] == "meta")
    count = meta["count"]
    lines = ["Figure 1: broadcast volume across 2 nodes x 3 GPUs (units of d)"]
    for r in records:
        if r["row"] != "strategy":
            continue
        inter = r["inter_node"] / count
        intra = r["intra_node"] / count
        lines.append(
            f"  {r['strategy']:13s} inter-node={inter:.0f}d "
            f"intra-node={intra:.0f}d")
    return "\n".join(lines)


# --------------------------------------------------------------------- Fig 2
def gen_fig2_bindings() -> list:
    """Records of Figure 2: the three GPU-to-NIC binding examples."""
    from ..machine.nic import Binding, binding_table, nic_loads, utilization

    return [{
        "row": "binding",
        "panel": panel,
        "policy": policy,
        "g": g,
        "k": k,
        "table": [list(pair) for pair in binding_table(g, k, binding)],
        "loads": list(nic_loads(g, k, binding)),
        "utilization": utilization(g, k, binding),
    } for panel, policy, binding, g, k in (
        ("a", "packed", Binding.PACKED, 3, 1),
        ("b", "round-robin", Binding.ROUND_ROBIN, 3, 2),
        ("c", "bijective", Binding.BIJECTIVE, 3, 3),
    )]


def render_fig2_bindings(records: list) -> str:
    """Figure 2 baseline text from records."""
    lines = ["Figure 2: GPU-to-NIC bindings"]
    for case in records:
        if case["row"] != "binding":
            continue
        arrows = " ".join(f"g{g}->n{n}" for g, n in case["table"])
        lines.append(
            f"  ({case['panel']}) {case['policy']:12s} "
            f"g={case['g']} k={case['k']}: "
            f"{arrows}  loads={case['loads']} util={case['utilization']:.0%}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- Fig 5
#: The six 24-GPU factorizations of Figure 5, by panel.
FIG5_FACTORIZATIONS = [
    ("a", [3, 8]),
    ("b", [4, 6]),
    ("c", [3, 2, 4]),
    ("d", [2, 2, 6]),
    ("e", [3, 2, 2, 2]),
    ("f", [2, 2, 2, 3]),
]


def gen_fig5_trees() -> list:
    """Records of Figure 5: the six 24-GPU tree factorizations."""
    from ..machine.topology import TreeTopology

    records = []
    for panel, factors in FIG5_FACTORIZATIONS:
        topo = TreeTopology(factors, 24)
        records.append({
            "row": "tree",
            "panel": panel,
            "factors": list(topo.factors),
            "depth": topo.depth,
            "world_size": topo.world_size,
            "ascii": topo.ascii_tree(),
        })
    return records


def render_fig5_trees(records: list) -> str:
    """Figure 5 baseline text from records."""
    lines = ["Figure 5: tree structures across 24 GPUs"]
    for r in records:
        if r["row"] == "tree":
            lines.append(f"({r['panel']}) {r['ascii']}")
    return "\n".join(lines)


# --------------------------------------------------------------------- Fig 6
def gen_fig6_stages() -> list:
    """Records of Figure 6: stage counts of the striped tree (4) and the
    striped ring (5).

    12 GPUs as 4 nodes x 3 GPUs; broadcast from GPU 0 with stripe(3).
    """
    from ..machine.machines import generic
    from ..transport.library import Library

    machine = generic(4, 3, 1, name="fig6")
    records = []
    for label, hierarchy, ring in (
        ("tree {2,2,3}", [2, 2, 3], 1),
        ("ring {4,3}", [4, 3], 4),
    ):
        comm = _broadcast(
            machine, 1 << 12, hierarchy=hierarchy,
            library=[Library.MPI] * (len(hierarchy) - 1) + [Library.IPC],
            ring=ring, stripe=3, pipeline=1)
        records.append({"row": "stages", "label": label,
                        "stages": comm.schedule.stage_count()})
    return records


def render_fig6_stages(records: list) -> str:
    """Figure 6 baseline text from records."""
    lines = ["Figure 6: dependency stages of striped factorizations "
             "(4 nodes x 3 GPUs)"]
    for r in records:
        if r["row"] == "stages":
            lines.append(f"  {r['label']:14s} {r['stages']} stages")
    return "\n".join(lines)


# --------------------------------------------------------------------- Fig 7
def gen_fig7_matrices() -> list:
    """Records of Figure 7 (bottom): volume + library matrices per case.

    (tree) broadcast on {2,2,3} with {MPI, NCCL, IPC} and stripe(3);
    (ring) broadcast on {4,3} + ring(4) with {NCCL, IPC} and stripe(3);
    each a 12x12 sending-GPU x receiving-GPU matrix.
    """
    from ..machine.machines import generic
    from ..transport.library import Library

    machine = generic(4, 3, 1, name="fig7")
    records = []
    for case, kwargs in (
        ("tree", dict(hierarchy=[2, 2, 3],
                      library=[Library.MPI, Library.NCCL, Library.IPC],
                      ring=1, stripe=3, pipeline=5)),
        ("ring", dict(hierarchy=[4, 3],
                      library=[Library.NCCL, Library.IPC],
                      ring=4, stripe=3, pipeline=5)),
    ):
        comm = _broadcast(machine, 1 << 12, **kwargs)
        libraries = comm.schedule.library_matrix(comm.plan.libraries)
        records.append({
            "row": "matrix",
            "case": case,
            "library": [list(row) for row in libraries],
            "volume": [list(row) for row in comm.schedule.comm_matrix()],
        })
    return records


def render_fig7_matrices(records: list) -> str:
    """Figure 7 baseline text from records."""
    lines = ["Figure 7 (bottom): hierarchical communication matrices"]
    for r in records:
        if r["row"] != "matrix":
            continue
        lines.append(
            f"  [{r['case']}] sending GPU x receiving GPU (library initial)")
        for src, row in enumerate(r["library"]):
            cells = "".join((cell[0] if cell else ".") for cell in row)
            lines.append(f"    {src:2d} {cells}")
    return "\n".join(lines)


# -------------------------------------------------------------------- Table 3
def gen_table3_bounds() -> list:
    """Records of Table 3: theoretical/achievable bounds per system."""
    from ..core.composition import FIGURE8_ORDER
    from ..machine import machines
    from ..model.bounds import (
        achievable_bound,
        binding_utilization,
        theoretical_bound,
    )

    records = []
    for system in machines.PAPER_SYSTEMS:
        m = machines.by_name(system, nodes=4)
        records.append({
            "row": "system",
            "system": system,
            "node_bandwidth": m.node_bandwidth,
            "binding_utilization": binding_utilization(m),
        })
        for name in FIGURE8_ORDER:
            records.append({
                "row": "bound",
                "system": system,
                "collective": name,
                "theoretical": theoretical_bound(m, name),
                "achievable": achievable_bound(m, name),
            })
    return records


def render_table3_bounds(records: list) -> str:
    """Table 3 baseline text from records."""
    lines = ["Table 3: asymptotic throughput bounds, GB/s "
             "(theoretical / achievable)"]
    for r in records:
        if r["row"] == "system":
            lines.append(
                f"  {r['system']} (k*f={r['node_bandwidth']:.0f}, "
                f"binding util {r['binding_utilization']:.0%})")
        elif r["row"] == "bound":
            lines.append(
                f"    {r['collective']:16s} {r['theoretical']:8.1f} / "
                f"{r['achievable']:8.1f}")
    return "\n".join(lines)


# ------------------------------------------------------------ Synthesis cost
def synthesize_1024():
    """The Section 7 probe: broadcast synthesis for 1024 GPUs (128 nodes).

    Returns the initialized communicator; callers measuring synthesis
    latency read its ``synthesis_seconds`` (which stays out of the committed
    records — wall-clock is host-dependent and belongs in the uncommitted
    timing sidecar).
    """
    from .. import Library, machines

    return _broadcast(
        machines.frontier(nodes=128),  # 1024 GPUs
        1 << 20,
        hierarchy=[2] * 7 + [4, 2],
        library=[Library.MPI] * 7 + [Library.IPC, Library.IPC],
        stripe=8,
        pipeline=4,
    )


def synthesis_records(comm) -> list:
    """Deterministic records of the synthesis probe (no wall-clock)."""
    machine = comm.machine
    return [{
        "row": "synthesis",
        "system": machine.name,
        "nodes": machine.nodes,
        "world_size": machine.world_size,
        "ops": len(comm.schedule),
    }]


def gen_synthesis_cost() -> list:
    """Records of the Section 7 synthesis-cost probe."""
    return synthesis_records(synthesize_1024())


def render_synthesis_cost(records: list) -> str:
    """Synthesis-cost baseline text (deterministic op count only)."""
    r = next(rec for rec in records if rec["row"] == "synthesis")
    return (
        f"Section 7: broadcast synthesis for {r['world_size']} GPUs "
        f"({r['nodes']} Frontier nodes)\n"
        f"  ops={r['ops']}  (paper: <= 6 s in C++; wall-clock lives in the "
        "uncommitted synthesis_cost_timing.txt sidecar)"
    )


register("fig1_volume", "Direct vs hierarchical broadcast volume",
         "figure", gen_fig1_volume, render_fig1_volume)
register("fig2_bindings", "GPU-to-NIC binding policies and utilizations",
         "figure", gen_fig2_bindings, render_fig2_bindings)
register("fig5_trees", "Tree structures of six 24-GPU factorizations",
         "figure", gen_fig5_trees, render_fig5_trees)
register("fig6_stages", "Dependency stages of striped factorizations",
         "figure", gen_fig6_stages, render_fig6_stages)
register("fig7_matrices", "Hierarchical communication matrices",
         "figure", gen_fig7_matrices, render_fig7_matrices)
register("table3_bounds", "Asymptotic throughput bounds per system",
         "table", gen_table3_bounds, render_table3_bounds)
register("synthesis_cost", "Synthesis op count for 1024 GPUs (Section 7)",
         "table", gen_synthesis_cost, render_synthesis_cost)
