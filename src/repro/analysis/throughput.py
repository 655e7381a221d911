"""Throughput figures: the simulated-measurement half of the registry.

Figure 8's four system panels, Figure 9's four pipeline panels, Figure
10's two scaling panels, the saturation sweeps, the composition-form
comparison (Figure 4), and the four ablations.  Generators run the same
sweeps as the committed benchmarks (same payloads, depths, node counts by
default) and flatten the measurements into records; renderers rebuild the
committed text from the records alone.
"""

from __future__ import annotations

from .registry import register

#: Figure 8 / ablation payload (256 MiB) and Figure 9/planner payloads.
FIG8_PAYLOAD = 1 << 28

#: Figure 9's four panels on Perlmutter: collective -> topology.
FIG9_CASES = {
    "gather": "tree",
    "scatter": "tree",
    "broadcast": "ring",
    "reduce": "ring",
}

#: Committed Figure 9 sweep (REPRO_FULL extends it in the benchmarks).
FIG9_PAYLOADS = tuple(1 << s for s in (16, 20, 24, 27, 30))
FIG9_DEPTHS = (1, 4, 16, 64)

#: Committed Figure 10 sweep.
FIG10_PAYLOAD = 8 << 30
FIG10_GPU_BUDGET = 64
FIG10_DEPTHS = (1, 4, 16)

#: Figure 10's MPI baseline payload cap, matching the paper's note about
#: MPI's large-count limitations [17].
FIG10_MPI_CAP = 1 << 30

#: Committed saturation sweep (Section 6.2): 1 MB .. 1 GB.
SATURATION_PAYLOADS = tuple(1 << s for s in range(20, 31, 2))


# --------------------------------------------------------------------- Fig 4
def gen_fig4_allreduce_forms() -> list:
    """Records of Figure 4: single-step vs multi-step All-reduce."""
    from ..core.communicator import Communicator
    from ..core.composition import compose_all_reduce
    from ..machine import machines
    from ..bench.runner import payload_count
    from ..transport.library import Library

    payload = 1 << 26
    machine = machines.perlmutter(nodes=4)
    count = payload_count(machine, payload)
    p = machine.world_size
    records = [{"row": "meta", "system": machine.name, "count": count,
                "world_size": p, "payload_bytes": p * count * 4}]
    for form, multi_step in (("single-step", False), ("multi-step", True)):
        comm = Communicator(machine, materialize=False)
        compose_all_reduce(comm, count, multi_step=multi_step)
        comm.init(hierarchy=[2, 2, 4],
                  library=[Library.NCCL, Library.NCCL, Library.IPC],
                  stripe=4, pipeline=4)
        comm.run()
        volume = sum(comm.schedule.volume_by_kind(machine).values())
        records.append({
            "row": "form",
            "form": form,
            "volume_elements": volume,
            "throughput": p * count * 4 / 1e9 / comm.last_elapsed,
        })
    return records


def render_fig4_allreduce_forms(records: list) -> str:
    """Figure 4 baseline text from records."""
    meta = next(r for r in records if r["row"] == "meta")
    forms = {r["form"]: r for r in records if r["row"] == "form"}
    count, p = meta["count"], meta["world_size"]
    single, multi = forms["single-step"], forms["multi-step"]
    return (
        "Figure 4 / Table 2: All-reduce composition forms "
        f"(Perlmutter, {meta['payload_bytes'] >> 20} MB)\n"
        f"  single-step  volume={single['volume_elements'] / count / p:7.1f} "
        f"d*p units  throughput={single['throughput']:7.2f} GB/s\n"
        f"  multi-step   volume={multi['volume_elements'] / count / p:7.1f} "
        f"d*p units  throughput={multi['throughput']:7.2f} GB/s\n"
        f"  volume ratio "
        f"{single['volume_elements'] / multi['volume_elements']:.1f}x, "
        f"speedup {multi['throughput'] / single['throughput']:.1f}x"
    )


# --------------------------------------------------------------------- Fig 8
def _fig8_speedup_records(system: str, rows, baseline_label: str,
                          hiccl, baseline, paper: float) -> list:
    """Speedup-section records of one Figure 8 baseline family."""
    records = []
    for name in hiccl:
        if name in baseline:
            records.append({
                "row": "speedup",
                "baseline": baseline_label,
                "collective": name,
                "ratio": hiccl[name].throughput / baseline[name].throughput,
            })
    records.append({"row": "paper", "baseline": baseline_label,
                    "value": paper})
    return records


def fig8_records(machine, rows, payload_bytes: int) -> list:
    """Meta, bound, and bar records of one Figure 8 panel (no speedups).

    ``rows`` are the panel's measurements (``bench.figures.fig8_system``);
    ``repro bench`` renders these records as they are, while
    :func:`gen_fig8` appends the speedup sections of the committed panels.
    """
    from ..bench.figures import fig8_bounds

    records = [{"row": "meta", "system": machine.name,
                "machine": machine.describe(),
                "payload_bytes": payload_bytes}]
    for name, b in fig8_bounds(machine).items():
        records.append({"row": "bound", "collective": name, **b})
    for m in rows:
        records.append({
            "row": "bar",
            "collective": m.collective,
            "implementation": m.implementation,
            "payload_bytes": m.payload_bytes,
            "seconds": m.seconds,
            "throughput": m.throughput,
        })
    return records


def gen_fig8(system: str) -> list:
    """Records of one Figure 8 panel: bars, bounds, and speedup sections."""
    from ..bench.figures import fig8_system
    from ..machine import machines
    from ..transport.library import VENDOR_LIBRARY

    #: Paper-reported geomean speedups (Section 6.3.1).
    paper_mpi = {"delta": 12.52, "perlmutter": 14.22,
                 "frontier": 9.76, "aurora": 48.02}
    paper_vendor = {"delta": 1.26, "perlmutter": 1.05,
                    "frontier": 1.55, "aurora": 12.01}

    machine = machines.by_name(system, nodes=4)
    rows = fig8_system(machine, FIG8_PAYLOAD)
    records = fig8_records(machine, rows, FIG8_PAYLOAD)

    def by_impl(prefix):
        out = {}
        for m in rows:
            if m.implementation == prefix or (
                prefix == "vendor"
                and m.implementation in ("nccl", "rccl", "oneccl")
            ):
                out[m.collective] = m
            if prefix == "hiccl" and \
                    m.implementation.startswith("hiccl-pipelined"):
                out.setdefault(m.collective, m)
        return out

    hiccl, mpi, vendor = by_impl("hiccl"), by_impl("mpi"), by_impl("vendor")
    records += _fig8_speedup_records(system, rows, "MPI", hiccl, mpi,
                                     paper_mpi[system])
    if vendor:
        records += _fig8_speedup_records(
            system, rows, VENDOR_LIBRARY[system].name, hiccl, vendor,
            paper_vendor[system])
    return records


def _render_speedup_section(system: str, baseline: str,
                            records: list) -> list:
    """Per-collective speedups over one baseline, their geomean, and the
    paper's number."""
    from ..bench.report import geomean

    ratios = {r["collective"]: r["ratio"] for r in records
              if r["row"] == "speedup" and r["baseline"] == baseline}
    lines = [f"{system}: HiCCL speedup over {baseline}"]
    for name, ratio in sorted(ratios.items()):
        lines.append(f"  {name:16s} {ratio:8.2f}x")
    lines.append(f"  {'geomean':16s} {geomean(ratios.values()):8.2f}x")
    paper = next(r["value"] for r in records
                 if r["row"] == "paper" and r["baseline"] == baseline)
    lines.append(f"  (paper: {paper:.2f}x)")
    return lines


def render_fig8(records: list) -> str:
    """One Figure 8 panel's baseline text from records."""
    from ..core.composition import FIGURE8_ORDER

    meta = next(r for r in records if r["row"] == "meta")
    bounds = {r["collective"]: r for r in records if r["row"] == "bound"}
    bars: dict[str, list] = {}
    for r in records:
        if r["row"] == "bar":
            bars.setdefault(r["collective"], []).append(r)
    lines = [
        f"Figure 8 ({meta['system']}): peak collective throughput, GB/s "
        f"({meta['machine']})"
    ]
    for name in FIGURE8_ORDER:
        if name not in bars:
            continue
        b = bounds[name]
        lines.append(
            f"  {name} [theoretical {b['theoretical']:.1f}, achievable "
            f"{b['achievable']:.1f}, empirical({b['empirical_kind']}) "
            f"{b['empirical']:.1f}]"
        )
        for m in bars[name]:
            bar = "#" * max(
                1, int(m["throughput"] / max(b["achievable"], 1e-9) * 40))
            lines.append(
                f"    {m['implementation']:18s} {m['throughput']:8.2f}  {bar}")
    baselines = []
    for r in records:
        if r["row"] == "paper" and r["baseline"] not in baselines:
            baselines.append(r["baseline"])
    for baseline in baselines:
        lines.append("")
        lines += _render_speedup_section(meta["system"], baseline, records)
    return "\n".join(lines)


# --------------------------------------------------------------------- Fig 9
def gen_fig9(collective: str, payloads_bytes=FIG9_PAYLOADS,
             depths=FIG9_DEPTHS) -> list:
    """Records of one Figure 9 panel: throughput per (depth, payload)."""
    from ..bench.configs import ring_config, tree_config
    from ..bench.runner import run_hiccl
    from ..machine import machines

    machine = machines.perlmutter(nodes=4)
    topology = FIG9_CASES[collective]
    config = ring_config if topology == "ring" else tree_config
    records = [{"row": "meta", "collective": collective,
                "topology": topology, "system": machine.name, "nodes": 4}]
    for depth in sorted(depths):
        cfg = config(machine, pipeline=depth)
        for pb in payloads_bytes:
            m = run_hiccl(machine, collective, cfg, payload_bytes=pb,
                          warmup=0, rounds=1)
            records.append({
                "row": "point",
                "depth": depth,
                "payload_bytes": m.payload_bytes,
                "seconds": m.seconds,
                "throughput": m.throughput,
            })
    return records


def render_fig9(records: list) -> str:
    """One Figure 9 panel's baseline text from records."""
    meta = next(r for r in records if r["row"] == "meta")
    curves: dict[int, list] = {}
    for r in records:
        if r["row"] == "point":
            curves.setdefault(r["depth"], []).append(r)
    depths = sorted(curves)
    payloads = [r["payload_bytes"] for r in curves[depths[0]]]
    lines = [f"Figure 9 ({meta['collective']}, {meta['topology']}): GB/s by "
             "buffer size (rows) and pipeline depth m (columns)"]
    lines.append(f"{'payload':>10s}" + "".join(f"  m={d:<5d}" for d in depths))
    for i, pb in enumerate(payloads):
        label = (f"{pb / (1 << 20):.2g}MB" if pb < (1 << 30)
                 else f"{pb / (1 << 30):.2g}GB")
        cells = "".join(f"{curves[d][i]['throughput']:8.2f}" for d in depths)
        lines.append(f"{label:>10s}{cells}")
    return "\n".join(lines)


# -------------------------------------------------------------------- Fig 10
def gen_fig10(system: str, node_counts=None, depths=FIG10_DEPTHS,
              payload_bytes: int = FIG10_PAYLOAD) -> list:
    """Records of one Figure 10 panel: All-reduce GB/s per node count.

    Series: ``hiccl-m{depth}`` (ring configuration) for each pipeline
    depth, plus the vendor ring and MPI baselines; MPI runs at a payload
    capped at ``FIG10_MPI_CAP``.
    """
    from ..bench.configs import ring_config
    from ..bench.runner import run_baseline, run_hiccl
    from ..machine import machines

    factory = machines.PAPER_SYSTEMS[system]
    if node_counts is None:
        node_counts = tuple(n for n in (2, 4, 8, 16, 32, 64)
                            if factory(n).world_size <= FIG10_GPU_BUDGET)
    series: dict[str, dict[int, float]] = {f"hiccl-m{d}": {} for d in depths}
    series["vendor"] = {}
    series["mpi"] = {}
    for nodes in node_counts:
        machine = factory(nodes)
        for d in depths:
            meas = run_hiccl(machine, "all_reduce",
                             ring_config(machine, pipeline=d),
                             payload_bytes=payload_bytes, warmup=0, rounds=1)
            series[f"hiccl-m{d}"][nodes] = meas.throughput
        vendor = run_baseline(machine, "all_reduce", "vendor",
                              payload_bytes=payload_bytes, warmup=0, rounds=1)
        if vendor:
            series["vendor"][nodes] = vendor.throughput
        mpi = run_baseline(machine, "all_reduce", "mpi",
                           payload_bytes=min(payload_bytes, FIG10_MPI_CAP),
                           warmup=0, rounds=1)
        if mpi:
            series["mpi"][nodes] = mpi.throughput
    records = [{"row": "meta", "system": system,
                "payload_bytes": payload_bytes}]
    for name, points in series.items():
        for nodes, throughput in points.items():
            records.append({"row": "point", "series": name,
                            "nodes": nodes, "throughput": throughput})
    return records


def render_fig10(records: list) -> str:
    """One Figure 10 panel's baseline text from records."""
    meta = next(r for r in records if r["row"] == "meta")
    series: dict[str, dict[int, float]] = {}
    for r in records:
        if r["row"] == "point":
            series.setdefault(r["series"], {})[r["nodes"]] = r["throughput"]
    lines = [f"Figure 10 ({meta['system']}): All-reduce throughput (GB/s) "
             "vs nodes"]
    node_counts = sorted({n for s in series.values() for n in s})
    lines.append(f"{'series':>12s}" + "".join(f"{n:>9d}" for n in node_counts))
    for name in sorted(series):
        cells = "".join(
            f"{series[name].get(n, float('nan')):>9.2f}" for n in node_counts)
        lines.append(f"{name:>12s}{cells}")
    return "\n".join(lines)


# ---------------------------------------------------------------- Saturation
def gen_saturation(system: str, payloads_bytes=SATURATION_PAYLOADS) -> list:
    """Records of one Section 6.2 saturation sweep (best-config broadcast)."""
    from ..bench.configs import best_config
    from ..bench.runner import sweep_payloads
    from ..machine import machines

    machine = machines.by_name(system, nodes=4)
    cfg = best_config(machine, "broadcast")
    sweep = sweep_payloads(machine, "broadcast", cfg, list(payloads_bytes))
    records = [{"row": "meta", "system": system,
                "machine": machine.describe()}]
    for m in sweep:
        records.append({"row": "point", "payload_bytes": m.payload_bytes,
                        "seconds": m.seconds, "throughput": m.throughput})
    return records


def render_saturation(records: list) -> str:
    """One saturation sweep's baseline text from records."""
    meta = next(r for r in records if r["row"] == "meta")
    lines = [f"Section 6.2 sweep: broadcast on {meta['machine']}"]
    for r in records:
        if r["row"] == "point":
            lines.append(f"  {r['payload_bytes'] / (1 << 20):8.0f} MB"
                         f"  {r['throughput']:8.2f} GB/s")
    return "\n".join(lines)


# ----------------------------------------------------------------- Ablations
def _bcast_throughput(machine, *, stripe, pipeline=16, hierarchy=None,
                      libraries=None, ring=1,
                      payload_bytes: int = FIG8_PAYLOAD) -> float:
    """Broadcast throughput under an explicit configuration (ablation probe)."""
    from ..bench.configs import tree_config
    from ..bench.runner import payload_count
    from ..core.communicator import Communicator

    count = payload_count(machine, payload_bytes)
    comm = Communicator(machine, materialize=False)
    send = comm.alloc(machine.world_size * count, "sendbuf")
    recv = comm.alloc(machine.world_size * count, "recvbuf")
    comm.add_multicast(send, recv, machine.world_size * count, 0,
                       list(range(machine.world_size)))
    if hierarchy is None:
        cfg = tree_config(machine, pipeline=pipeline, stripe=stripe)
        hierarchy, libraries = list(cfg.hierarchy), list(cfg.libraries)
    comm.init(hierarchy=hierarchy, library=libraries, ring=ring,
              stripe=stripe, pipeline=pipeline)
    t = comm.run()
    return machine.world_size * count * 4 / 1e9 / t


def gen_ablation_striping() -> list:
    """Records: striping gain on single-NIC Delta vs multi-NIC Perlmutter."""
    from ..machine import machines

    records = []
    for system in ("delta", "perlmutter"):
        m = machines.by_name(system, nodes=4)
        records.append({
            "row": "system",
            "system": system,
            "unstriped": _bcast_throughput(m, stripe=1),
            "striped": _bcast_throughput(m, stripe=m.gpus_per_node),
        })
    return records


def render_ablation_striping(records: list) -> str:
    """Striping-ablation baseline text from records."""
    lines = ["Ablation: multi-NIC striping (broadcast, 4 nodes)"]
    for r in records:
        if r["row"] != "system":
            continue
        gain = r["striped"] / r["unstriped"]
        lines.append(
            f"  {r['system']:12s} unstriped={r['unstriped']:7.2f} GB/s "
            f"striped={r['striped']:7.2f} GB/s  gain={gain:.2f}x")
    return "\n".join(lines)


def gen_ablation_binding() -> list:
    """Records: packed vs round-robin binding at 12 GPUs / 8 NICs."""
    from ..machine.machines import generic
    from ..machine.nic import Binding

    records = []
    for policy in (Binding.ROUND_ROBIN, Binding.PACKED):
        m = generic(4, 12, 8, binding=policy, intra_bandwidth=120.0,
                    name=f"bind-{policy.value}")
        records.append({"row": "policy", "policy": policy.value,
                        "throughput": _bcast_throughput(m, stripe=12)})
    return records


def render_ablation_binding(records: list) -> str:
    """Binding-ablation baseline text from records."""
    lines = ["Ablation: binding policy (12 GPUs, 8 NICs, broadcast)"]
    for r in records:
        if r["row"] == "policy":
            lines.append(f"  {r['policy']:12s} {r['throughput']:7.2f} GB/s")
    return "\n".join(lines)


def gen_ablation_libraries() -> list:
    """Records: IPC vs MPI for the intra-node level on Frontier."""
    from ..bench.configs import tree_config
    from ..machine import machines
    from ..transport.library import Library

    m = machines.frontier(nodes=4)
    cfg = tree_config(m, pipeline=16)
    records = []
    for label, intra in (("ipc", Library.IPC), ("mpi", Library.MPI)):
        libs = [lib if not lib.intra_node_only else intra
                for lib in cfg.libraries]
        records.append({
            "row": "library",
            "library": label,
            "throughput": _bcast_throughput(
                m, stripe=cfg.stripe, pipeline=cfg.pipeline,
                hierarchy=list(cfg.hierarchy), libraries=libs),
        })
    return records


def render_ablation_libraries(records: list) -> str:
    """Library-ablation baseline text from records."""
    by_lib = {r["library"]: r["throughput"] for r in records
              if r["row"] == "library"}
    return (
        "Ablation: intra-node library on Frontier (broadcast)\n"
        f"  IPC intra-node: {by_lib['ipc']:7.2f} GB/s\n"
        f"  MPI intra-node: {by_lib['mpi']:7.2f} GB/s"
    )


def gen_ablation_hierarchy() -> list:
    """Records: matched vs mismatched vs flat virtual hierarchies."""
    from ..machine import machines
    from ..transport.library import Library

    m = machines.perlmutter(nodes=4)
    cases = {
        "matched": dict(stripe=4, hierarchy=[2, 2, 4],
                        libraries=[Library.NCCL, Library.NCCL, Library.IPC]),
        "mismatched": dict(stripe=4, hierarchy=[2, 4, 2],
                           libraries=[Library.NCCL, Library.NCCL,
                                      Library.NCCL]),
        "flat": dict(stripe=1, pipeline=1, hierarchy=[16],
                     libraries=[Library.NCCL]),
    }
    return [{"row": "hierarchy", "case": case,
             "throughput": _bcast_throughput(m, **kwargs)}
            for case, kwargs in cases.items()]


def render_ablation_hierarchy(records: list) -> str:
    """Hierarchy-ablation baseline text from records."""
    by_case = {r["case"]: r["throughput"] for r in records
               if r["row"] == "hierarchy"}
    return (
        "Ablation: virtual hierarchy vs physical machine (Perlmutter bcast)\n"
        f"  matched {{2,2,4}}:    {by_case['matched']:7.2f} GB/s\n"
        f"  mismatched {{2,4,2}}: {by_case['mismatched']:7.2f} GB/s\n"
        f"  flat {{16}}:          {by_case['flat']:7.2f} GB/s"
    )


register("fig4_allreduce_forms", "Single-step vs multi-step All-reduce",
         "figure", gen_fig4_allreduce_forms, render_fig4_allreduce_forms)
for _system in ("delta", "perlmutter", "frontier", "aurora"):
    register(f"fig8_{_system}",
             f"Peak collective throughput on {_system} (Figure 8)", "figure",
             (lambda system=_system, **kw: gen_fig8(system, **kw)),
             render_fig8)
for _collective in ("broadcast", "gather", "reduce", "scatter"):
    register(f"fig9_{_collective}",
             f"Pipeline depth vs buffer size: {_collective} (Figure 9)",
             "figure",
             (lambda collective=_collective, **kw:
              gen_fig9(collective, **kw)),
             render_fig9)
for _system in ("perlmutter", "frontier"):
    register(f"fig10_{_system}",
             f"All-reduce scaling on {_system} (Figure 10)", "figure",
             (lambda system=_system, **kw: gen_fig10(system, **kw)),
             render_fig10)
for _system in ("delta", "perlmutter"):
    register(f"saturation_{_system}",
             f"Broadcast saturation sweep on {_system} (Section 6.2)",
             "figure",
             (lambda system=_system, **kw: gen_saturation(system, **kw)),
             render_saturation)
register("ablation_striping", "Striping on single- vs multi-NIC nodes",
         "ablation", gen_ablation_striping, render_ablation_striping)
register("ablation_binding", "Binding policy at 12 GPUs / 8 NICs",
         "ablation", gen_ablation_binding, render_ablation_binding)
register("ablation_libraries", "Intra-node library choice on Frontier",
         "ablation", gen_ablation_libraries, render_ablation_libraries)
register("ablation_hierarchy", "Virtual-hierarchy mismatch cost",
         "ablation", gen_ablation_hierarchy, render_ablation_hierarchy)
