"""Layer figures: workload suites, fault probes, and planner baselines.

These baselines exercise whole subsystem stacks (workload timeline, fault
layer, staged planner); their generators call the same probes as the
committed benchmarks and flatten every report into records.  Renders embed
``describe()`` strings captured at generation time, so the renderers stay
pure functions of the records.
"""

from __future__ import annotations

from .registry import register

#: Per-collective payload of the committed baselines (Section 6.2): 64 MiB.
PAYLOAD = 1 << 26

#: Planner search parameters of the committed tuned baselines.
PLANNER_PIPELINES = (1, 4, 16, 32)
PLANNER_NODES = 2


# ----------------------------------------------------------------- Workloads
def workload_records(machine, results, payload_bytes: int) -> list:
    """Scenario, job, and busiest-resource records of a scenario suite.

    ``results`` are the suite's workload results, in order
    (``bench.figures.workload_scenarios_table``); ``repro workloads`` and
    :func:`gen_workloads` both render through these records.
    """
    records = [{"row": "meta", "system": machine.name,
                "machine": machine.describe(), "payload_bytes": payload_bytes}]
    for result in results:
        records.append({
            "row": "scenario",
            "scenario": result.name,
            "system": result.system,
            "makespan": result.makespan,
            "worst_slowdown": result.worst_slowdown,
        })
        for job in result.jobs:
            records.append({
                "row": "job",
                "scenario": result.name,
                "job": job.name,
                "start": job.start,
                "finish": job.finish,
                "elapsed": job.elapsed,
                "isolated": job.isolated,
                "slowdown": job.slowdown,
            })
        for key, frac in result.busiest_resources(4):
            records.append({
                "row": "resource",
                "scenario": result.name,
                "resource": str(key),
                "fraction": frac,
            })
    return records


def gen_workloads(system: str) -> list:
    """Records of one workload-scenario suite on a shared timeline."""
    from ..bench.figures import workload_scenarios_table
    from ..machine.machines import by_name

    machine = by_name(system, nodes=4)
    results = workload_scenarios_table(machine, PAYLOAD)
    return workload_records(machine, results, PAYLOAD)


def render_workloads(records: list) -> str:
    """Workload-suite baseline text from records."""
    meta = next(r for r in records if r["row"] == "meta")
    lines = [
        f"Workload scenarios ({meta['system']}): concurrent collectives on "
        f"one shared timeline ({meta['machine']})"
    ]
    for scenario in (r for r in records if r["row"] == "scenario"):
        name = scenario["scenario"]
        lines.append("")
        lines.append(
            f"workload {name} on {scenario['system']}: "
            f"makespan {scenario['makespan'] * 1e3:.3f} ms, "
            f"worst slowdown {scenario['worst_slowdown']:.2f}x")
        lines.append(
            f"  {'job':24s} {'start ms':>9s} {'finish ms':>10s} "
            f"{'elapsed ms':>11s} {'isolated ms':>12s} {'slowdown':>9s}")
        for job in (r for r in records
                    if r["row"] == "job" and r["scenario"] == name):
            lines.append(
                f"  {job['job']:24s} {job['start'] * 1e3:9.3f} "
                f"{job['finish'] * 1e3:10.3f} {job['elapsed'] * 1e3:11.3f} "
                f"{job['isolated'] * 1e3:12.3f} {job['slowdown']:8.2f}x")
        lines.append("  busiest resources:")
        for res in (r for r in records
                    if r["row"] == "resource" and r["scenario"] == name):
            lines.append(f"    {res['resource']:>24s} {res['fraction']:6.1%}")
    return "\n".join(lines)


# -------------------------------------------------------------------- Faults
def gen_faults(system: str) -> list:
    """Records of one degraded-topology probe (seeded replan + shrink)."""
    from ..bench.degraded import (
        PAYLOAD_BYTES,
        REPLAN_NODES,
        SEED,
        SHRINK_NODES,
        degraded_probe,
    )

    probe = degraded_probe(system)
    rep, shrink = probe.replan_report, probe.shrink_report
    return [
        {"row": "meta", "system": system,
         "payload_bytes": PAYLOAD_BYTES, "seed": SEED,
         "replan_nodes": REPLAN_NODES, "shrink_nodes": SHRINK_NODES},
        {"row": "replan",
         "machine": rep.system,
         "faults": rep.faults.describe(),
         "healthy_candidate": rep.healthy_candidate.describe(),
         "replanned_candidate": rep.best.candidate.describe(),
         "healthy_seconds": rep.healthy_seconds,
         "replay_seconds": rep.replay_seconds,
         "replanned_seconds": rep.replanned_seconds},
        {"row": "shrink",
         "machine": shrink.system,
         "collective": shrink.collective,
         "payload_bytes": shrink.payload_bytes,
         "nodes_before": shrink.nodes_before,
         "nodes_after": shrink.nodes_after,
         "drained_nodes": list(shrink.drained_nodes),
         "rank_map": list(shrink.rank_map),
         "healthy_seconds": shrink.healthy_seconds,
         "shrunk_seconds": shrink.shrunk_seconds},
    ]


def render_faults(records: list) -> str:
    """Degraded-probe baseline text from records (no wall-clock values)."""
    meta = next(r for r in records if r["row"] == "meta")
    rep = next(r for r in records if r["row"] == "replan")
    shrink = next(r for r in records if r["row"] == "shrink")
    drained = ",".join(str(n) for n in shrink["drained_nodes"])
    return "\n".join([
        f"Degraded-topology probes ({meta['system']}): seeded fault replan "
        f"at {meta['payload_bytes'] >> 20} MiB on {meta['replan_nodes']} "
        f"nodes, elastic shrink {meta['shrink_nodes']} -> "
        f"{meta['shrink_nodes'] - 1} nodes",
        "",
        f"-- replan under FaultSet.random(seed={meta['seed']}) --",
        f"system: {rep['machine']}",
        f"faults: {rep['faults']}",
        f"healthy:   {rep['healthy_candidate']}: "
        f"{rep['healthy_seconds'] * 1e3:.3f} ms",
        f"replay:    {rep['replay_seconds'] * 1e3:.3f} ms "
        f"({rep['replay_seconds'] / rep['healthy_seconds']:.3f}x vs healthy)",
        f"replanned: {rep['replanned_candidate']}: "
        f"{rep['replanned_seconds'] * 1e3:.3f} ms "
        f"({rep['replanned_seconds'] / rep['healthy_seconds']:.3f}x vs "
        f"healthy, "
        f"{rep['replay_seconds'] / rep['replanned_seconds']:.3f}x over "
        f"replay)",
        "",
        "-- elastic shrink (all_reduce, drained last node) --",
        f"system: {shrink['machine']}",
        f"collective: {shrink['collective']} "
        f"({shrink['payload_bytes']} bytes total)",
        f"shrink: {shrink['nodes_before']} -> {shrink['nodes_after']} nodes "
        f"(drained: {drained})",
        f"healthy: {shrink['healthy_seconds'] * 1e3:.3f} ms",
        f"shrunk:  {shrink['shrunk_seconds'] * 1e3:.3f} ms "
        f"({shrink['shrunk_seconds'] / shrink['healthy_seconds']:.3f}x vs "
        f"healthy)",
    ])


# ------------------------------------------------------------------- Planner
def gen_tuned(system: str) -> list:
    """Records of one planner acceptance baseline (staged vs grid vs paper)."""
    from ..bench.configs import best_config
    from ..bench.runner import run_hiccl
    from ..core.composition import FIGURE8_ORDER
    from ..machine.machines import by_name
    from ..planner import SearchSpace, plan_collective
    from ..workloads.scenarios import tune_scenario

    machine = by_name(system, nodes=PLANNER_NODES)
    space = SearchSpace.build(machine, pipelines=PLANNER_PIPELINES)
    records = [{"row": "meta", "system": system,
                "machine": machine.describe(),
                "payload_bytes": PAYLOAD, "nodes": PLANNER_NODES}]
    for collective in FIGURE8_ORDER:
        paper = run_hiccl(
            machine, collective, best_config(machine, collective),
            payload_bytes=PAYLOAD, warmup=0, rounds=1)
        grid = plan_collective(machine, collective, PAYLOAD, space=space,
                               strategy="grid")
        staged = plan_collective(machine, collective, PAYLOAD, space=space)
        stats = staged.stats
        records.append({
            "row": "plan",
            "collective": collective,
            "paper_seconds": paper.seconds,
            "grid_seconds": grid.best.seconds,
            "staged_seconds": staged.best.seconds,
            "full_evals": stats.full_evals,
            "truncated_evals": stats.truncated_evals,
            "grid_size": stats.grid_size,
            "pruned": stats.pruned,
            "best_plan": staged.best.candidate.describe(),
        })
    tuning = tune_scenario("contention_mix", by_name(system, nodes=4),
                           PAYLOAD)
    stats = tuning.stats
    records.append({
        "row": "tuning",
        "scenario": tuning.name,
        "baseline_makespan": tuning.baseline.makespan,
        "tuned_makespan": tuning.tuned.makespan,
        "improvement": tuning.improvement,
        "groups": stats.groups,
        "shortlisted": stats.shortlisted,
        "isolated_evals": stats.isolated_evals,
        "workload_sims": stats.workload_sims,
    })
    for choice in tuning.choices:
        records.append({
            "row": "choice",
            "label": choice.label,
            "changed": choice.changed,
            "chosen": choice.chosen.describe(),
            "isolated_best": choice.isolated_best.describe(),
        })
    return records


def render_tuned(records: list) -> str:
    """Planner baseline text from records."""
    meta = next(r for r in records if r["row"] == "meta")
    lines = [
        f"Planner vs paper configs ({meta['system']}): staged search over "
        f"hierarchy/libraries/stripe/ring/pipeline at "
        f"{meta['payload_bytes'] >> 20} MiB on {meta['machine']}",
        f"  {'collective':16s} {'paper ms':>9s} {'grid ms':>9s} "
        f"{'planner ms':>11s} {'full/grid':>10s} {'pruned':>7s}  best plan",
    ]
    for row in (r for r in records if r["row"] == "plan"):
        lines.append(
            f"  {row['collective']:16s} {row['paper_seconds'] * 1e3:9.3f} "
            f"{row['grid_seconds'] * 1e3:9.3f} "
            f"{row['staged_seconds'] * 1e3:11.3f} "
            f"{row['full_evals']:>5d}/{row['grid_size']:<4d} "
            f"{row['pruned']:7d}  {row['best_plan']}")
    tuning = next(r for r in records if r["row"] == "tuning")
    lines.append("")
    lines.append(
        f"workload planning for {tuning['scenario']!r}: isolated-tuned "
        f"makespan {tuning['baseline_makespan'] * 1e3:.3f} ms -> "
        f"contended-tuned {tuning['tuned_makespan'] * 1e3:.3f} ms "
        f"({tuning['improvement']:.3f}x)")
    lines.append(
        f"  {tuning['groups']} groups, {tuning['shortlisted']} shortlisted "
        f"candidates, {tuning['isolated_evals']} isolated evals, "
        f"{tuning['workload_sims']} workload simulations")
    for choice in (r for r in records if r["row"] == "choice"):
        marker = "*" if choice["changed"] else " "
        lines.append(f"  {marker} {choice['label']:24s} {choice['chosen']}")
    return "\n".join(lines)


for _system in ("delta", "perlmutter"):
    register(f"workloads_{_system}",
             f"Workload scenario suite on {_system}", "workload",
             (lambda system=_system, **kw: gen_workloads(system, **kw)),
             render_workloads)
    register(f"faults_{_system}",
             f"Degraded-topology probes on {_system}", "fault",
             (lambda system=_system, **kw: gen_faults(system, **kw)),
             render_faults)
    register(f"tuned_{_system}",
             f"Planner acceptance baseline on {_system}", "planner",
             (lambda system=_system, **kw: gen_tuned(system, **kw)),
             render_tuned)
