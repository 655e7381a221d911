"""Command-line interface: run collectives, tune, and inspect machines.

Entry point: ``python -m repro <command>``::

    python -m repro machines                        # list Table 4 systems
    python -m repro run all_reduce --system perlmutter --nodes 4 \\
        --payload 256M --topology ring --pipeline 32
    python -m repro compare broadcast --system frontier --payload 1G
    python -m repro tune broadcast --system perlmutter --payload 256M
    python -m repro tune fsdp_step --workload --system perlmutter
    python -m repro bounds --system aurora
    python -m repro bench --system perlmutter --jobs 4  # parallel Fig 8 grid
    python -m repro workloads --list                # ML traffic scenarios
    python -m repro workloads fsdp_step --system perlmutter --payload 64M
    python -m repro lower all_reduce --system perlmutter --dump  # pass summary
    python -m repro cache                           # plan-cache statistics
    python -m repro sim pipeline --system frontier-full --engine level
    python -m repro sim all_reduce --system perlmutter --engine both
    python -m repro faults all_reduce --system delta --seed 7   # replan
    python -m repro faults all_reduce --down-nic 1:0 --straggler 5:0.5
    python -m repro faults all_reduce --shrink 1    # drop a node, re-plan
    python -m repro serve-sim prefill_decode --system delta  # latency tails
    python -m repro serve-sim --list                # serving scenarios
    python -m repro trace prefill_decode --out arrivals.json  # arrival trace
    python -m repro serve --socket /tmp/plan.sock   # planning daemon
    python -m repro request all_reduce --system delta --socket /tmp/plan.sock
    python -m repro cache --json --socket /tmp/plan.sock  # daemon shards

Outputs are plain text; the heavy lifting lives in the library so every
command is also reachable programmatically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _parse_size(text: str) -> int:
    """'256M', '1G', '4096' -> bytes."""
    text = text.strip().upper()
    multipliers = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in multipliers:
        return int(float(text[:-1]) * multipliers[text[-1]])
    return int(text)


def _machine(args):
    from .machine.machines import by_name

    return by_name(args.system, nodes=args.nodes)


def cmd_machines(args) -> int:
    """List the Table 4 machine models and the full-system aggregates."""
    from .machine.machines import AGGREGATE_SYSTEMS, PAPER_SYSTEMS, by_name

    print("Paper systems (Table 4):")
    for name in PAPER_SYSTEMS:
        print(" ", by_name(name, nodes=args.nodes).describe())
    print("Aggregate full systems (deployed scale; --nodes overrides):")
    for name in AGGREGATE_SYSTEMS:
        print(" ", by_name(name, nodes=None).describe())
    return 0


def cmd_run(args) -> int:
    """Run one collective under a chosen configuration and report GB/s."""
    from .bench.configs import best_config, ring_config, tree_config
    from .bench.runner import payload_count, run_hiccl
    from .model.bounds import achievable_bound

    machine = _machine(args)
    if args.topology == "auto":
        cfg = best_config(machine, args.collective)
    elif args.topology == "ring":
        cfg = ring_config(machine, pipeline=args.pipeline or 32)
    else:
        cfg = tree_config(machine, pipeline=args.pipeline or 16)
    if args.pipeline:
        cfg = cfg.with_pipeline(args.pipeline)
    meas = run_hiccl(machine, args.collective, cfg,
                     payload_bytes=_parse_size(args.payload),
                     warmup=0, rounds=1)
    bound = achievable_bound(machine, args.collective)
    print(f"{args.collective} on {machine.describe()}")
    print(f"  config: {cfg.name} hierarchy={list(cfg.hierarchy)} "
          f"stripe({cfg.stripe}) ring({cfg.ring}) pipeline({cfg.pipeline})")
    print(f"  payload {meas.payload_bytes / 1e6:.1f} MB  "
          f"simulated {meas.seconds * 1e3:.3f} ms  "
          f"throughput {meas.throughput:.2f} GB/s "
          f"({meas.throughput / bound:.0%} of achievable bound)")
    return 0


def cmd_compare(args) -> int:
    """Compare HiCCL against the MPI/vendor/direct baselines."""
    from .bench.figures import fig8_bounds
    from .bench.runner import run_baseline, run_hiccl
    from .bench.configs import best_config
    from .bench.report import render_throughput_table

    machine = _machine(args)
    payload = _parse_size(args.payload)
    rows = []
    for family in ("mpi", "vendor", "direct"):
        m = run_baseline(machine, args.collective, family,
                         payload_bytes=payload, warmup=0, rounds=1)
        if m:
            rows.append(m)
    rows.append(run_hiccl(machine, args.collective,
                          best_config(machine, args.collective),
                          payload_bytes=payload, warmup=0, rounds=1))
    print(render_throughput_table(
        rows, title=f"{args.collective} on {machine.describe()} (GB/s)"
    ))
    bounds = fig8_bounds(machine)[args.collective]
    print(f"bounds: theoretical {bounds['theoretical']:.1f}, achievable "
          f"{bounds['achievable']:.1f}, empirical {bounds['empirical']:.1f} GB/s")
    return 0


def cmd_tune(args) -> int:
    """Plan the optimization parameters (staged search / workload mode)."""
    machine = _machine(args)
    pipelines = (tuple(int(x) for x in args.pipelines.split(","))
                 if args.pipelines else None)
    if args.workload:
        # Flags of the collective search have no meaning here; reject them
        # loudly instead of silently searching something else.
        ignored = [
            flag for flag, given in (
                ("--strategy", args.strategy is not None),
                ("--jobs", args.jobs is not None),
                ("--budget", args.budget is not None),
                ("--top", args.top is not None),
                ("--no-library-search", args.no_library_search),
            ) if given
        ]
        if ignored:
            print(f"error: {', '.join(ignored)} not applicable with "
                  "--workload (groups are searched with library choice on, "
                  "serially, against the contended makespan)")
            return 2
        from .workloads.scenarios import tune_scenario

        result = tune_scenario(
            args.collective, machine, _parse_size(args.payload),
            pipelines=pipelines or (1, 2, 4, 8),
            rounds=args.rounds if args.rounds is not None else 2,
        )
        print(f"workload-aware tuning on {machine.describe()}")
        print(result.render())
        return 0

    if args.rounds is not None:
        print("error: --rounds only applies with --workload")
        return 2
    from .planner import SearchBudget, SearchSpace, plan_collective

    strategy = args.strategy or "staged"
    space = SearchSpace.build(
        machine, pipelines=pipelines or (1, 4, 16, 32),
        search_libraries=not args.no_library_search,
    )
    if args.budget is not None and args.budget < 1:
        print("error: --budget must be >= 1")
        return 2
    result = plan_collective(
        machine, args.collective, _parse_size(args.payload),
        space=space, budget=SearchBudget(max_full=args.budget),
        strategy=strategy,
        jobs=args.jobs if args.jobs is not None else 1,
    )
    print(f"planning {args.collective} on {machine.describe()} "
          f"(strategy: {strategy})")
    print(result.render(args.top if args.top is not None else 5))
    return 0


def cmd_bounds(args) -> int:
    """Print Table 3 + empirical bounds for one system."""
    from .core.composition import FIGURE8_ORDER
    from .model.bounds import achievable_bound, empirical_bounds, theoretical_bound
    from .bench.configs import INTER_LIBRARY
    from .transport.library import Library

    machine = _machine(args)
    inter = INTER_LIBRARY.get(machine.name, Library.MPI)
    emp = empirical_bounds(machine, inter_library=inter)
    print(f"Throughput bounds for {machine.describe()} (GB/s)")
    print(f"  empirical: uni {emp.unidirectional:.1f}, bidi "
          f"{emp.bidirectional:.1f}, intra-node {emp.intra_node:.1f}")
    print(f"  {'collective':16s} {'theoretical':>12s} {'achievable':>11s}")
    for name in FIGURE8_ORDER:
        print(f"  {name:16s} {theoretical_bound(machine, name):12.1f} "
              f"{achievable_bound(machine, name):11.1f}")
    return 0


def cmd_bench(args) -> int:
    """Run the Figure 8 measurement grid, optionally across worker processes."""
    import time

    from .analysis.throughput import fig8_records, render_fig8
    from .bench.figures import fig8_points
    from .bench.parallel import default_jobs, run_tasks
    from .core.composition import FIGURE8_ORDER
    from .core.plancache import get_cache

    machine = _machine(args)
    collectives = (args.collectives.split(",") if args.collectives
                   else list(FIGURE8_ORDER))
    payload = _parse_size(args.payload)
    points = fig8_points(machine, payload, collectives)
    jobs = args.jobs if args.jobs != 0 else default_jobs()
    t0 = time.perf_counter()
    results = run_tasks(points, jobs=jobs, cache_dir=args.cache_dir)
    elapsed = time.perf_counter() - t0
    rows = [m for m in results if m is not None]
    print(render_fig8(fig8_records(machine, rows, payload)))
    print()
    print(f"{len(rows)} points in {elapsed:.2f}s with jobs={jobs}")
    if jobs <= 1:
        print(f"plan cache: {get_cache().stats.render()}")
    return 0


def cmd_cache(args) -> int:
    """Show (or clear) the plan cache: per-layer in-process stats (schedule
    and timing) + persisted entries.

    With ``--socket`` the statistics come from a running plan daemon
    instead: service counters, coalescing counters, and the per-shard
    hit/miss/eviction/byte counters of its sharded response cache.
    ``--json`` emits either report machine-readably.
    """
    import json as _json

    from .core.plancache import (
        LAYERS,
        SCHEMA_VERSION,
        PlanCache,
        default_disk_dir,
        get_cache,
    )

    if args.socket:
        from .service.client import PlanClient

        try:
            with PlanClient(args.socket) as client:
                stats = client.stats()
        except OSError as exc:
            print(f"error: cannot reach plan service at {args.socket}: {exc}")
            return 2
        if args.json:
            print(_json.dumps(
                {k: stats[k] for k in ("service", "cache")},
                indent=2, sort_keys=True,
            ))
            return 0
        svc = stats["service"]
        print(f"plan service at {args.socket}")
        print(f"  requests={svc['requests']} hits={svc['hits']} "
              f"planned={svc['planned']} coalesced={svc['coalesced']} "
              f"warm-started={svc['warm_started']} errors={svc['errors']}")
        for i, shard in enumerate(stats["cache"]["shards"]):
            print(f"  shard {i}: lookups={shard['lookups']} "
                  f"hits={shard['hits']} misses={shard['misses']} "
                  f"stores={shard['stores']} evictions={shard['evictions']} "
                  f"admission-rejected={shard['admission_rejected']} "
                  f"entries={shard['entries']} bytes={shard['bytes']} "
                  f"inflight={shard['inflight']}")
        total = stats["cache"]["total"]
        print(f"  total: entries={total['entries']} bytes={total['bytes']} "
              f"inflight={total['inflight']} "
              f"hit-rate={total['hit_rate']:.0%}")
        return 0

    cache = get_cache()
    # Inspect the persistent layer even when this process has it disabled.
    disk = cache if cache.disk_dir is not None else PlanCache(
        disk_dir=default_disk_dir())
    entries = disk.disk_entries()
    size = sum(p.stat().st_size for p in entries)
    stale = len(disk.disk_files()) - len(entries)
    stats = cache.stats
    held = {name: cache.held(name) for name in LAYERS}
    if args.json:
        counters = ("lookups", "memory_hits", "disk_hits", "misses", "stores",
                    "evictions")
        layers = {
            name: {"entries": held[name][0], "bytes": held[name][1],
                   **{c: getattr(stats.layers[name], c) for c in counters}}
            for name in LAYERS
        }
        doc = {
            "schema": SCHEMA_VERSION,
            "in_process": {
                "entries": len(cache),
                "capacity": cache.capacity,
                "bytes": cache.total_bytes(),
                "max_bytes": cache.max_total_bytes,
                **{c: getattr(stats, c) for c in counters},
                "seconds_saved": stats.seconds_saved,
                "layers": layers,
            },
            "disk": {
                "dir": str(disk.disk_dir),
                "active": cache.disk_dir is not None,
                "entries": len(entries),
                "bytes": size,
                "stale": stale,
            },
            "cleared": 0,
        }
        if args.clear:
            doc["cleared"] = disk.clear_disk()
            cache.clear()
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"plan cache (schema v{SCHEMA_VERSION})")
    print(f"  in-process: capacity {cache.capacity} entries and budget "
          f"{cache.max_total_bytes / 1e6:.0f} MB per layer")
    for name in LAYERS:
        entries_held, bytes_held = held[name]
        print(f"    {name} layer: {entries_held} entries, "
              f"{bytes_held / 1e6:.2f} MB of arrays")
    print(f"  stats: {stats.render()}")
    state = "active" if cache.disk_dir is not None else "inactive; set REPRO_PLAN_CACHE=disk"
    print(f"  disk layer ({state}): {disk.disk_dir}")
    print(f"    {len(entries)} persisted entry file(s), {size / 1e6:.2f} MB; "
          f"{stale} stale file(s) of other schema versions or interrupted "
          "stores")
    if args.clear:
        removed = disk.clear_disk()
        cache.clear()
        print(f"  cleared: {removed} persisted file(s) removed")
    return 0


def cmd_workloads(args) -> int:
    """Run ML traffic scenarios: concurrent collectives on a shared timeline."""
    from .analysis.layers import render_workloads, workload_records
    from .bench.figures import workload_scenarios_table
    from .workloads.scenarios import SCENARIOS, applicable_scenarios

    if args.list:
        print("Workload scenarios (repro.workloads):")
        for name, scenario in SCENARIOS.items():
            print(f"  {name:18s} {scenario.description}")
        print("run with: repro workloads [name ...] --system <name> "
              "[--payload 64M] [--jobs N]")
        return 0
    machine = _machine(args)
    names = args.scenarios or applicable_scenarios(machine)
    payload = _parse_size(args.payload)
    results = workload_scenarios_table(
        machine, payload, names=names, jobs=args.jobs
    )
    print(render_workloads(workload_records(machine, results, payload)))
    return 0


def cmd_lower(args) -> int:
    """Lower one collective through the pass pipeline and summarize it."""
    from .bench.configs import best_config
    from .bench.runner import payload_count
    from .core.communicator import Communicator
    from .core.composition import compose
    from .core.passes import PassPipeline
    from .core.plan import OptimizationPlan

    machine = _machine(args)
    count = payload_count(machine, _parse_size(args.payload))
    comm = Communicator(machine, materialize=False)
    compose(comm, args.collective, count)
    cfg = best_config(machine, args.collective)
    if args.pipeline:
        cfg = cfg.with_pipeline(args.pipeline)
    kw = cfg.init_kwargs()
    plan = OptimizationPlan.create(
        machine, kw["hierarchy"], kw["library"],
        stripe=kw["stripe"], ring=kw["ring"], pipeline=kw["pipeline"],
    )
    optimize = tuple(name for name in ("fuse", "dce") if getattr(args, name))
    pipeline = PassPipeline(plan, optimize=optimize)
    lowered = pipeline.run(comm.program)
    sched = lowered.schedule
    print(f"lowering {args.collective} on {machine.describe()}")
    print(f"  config: {cfg.name} hierarchy={list(cfg.hierarchy)} "
          f"stripe({cfg.stripe}) ring({cfg.ring}) pipeline({cfg.pipeline})")
    if args.dump:
        print("per-pass summary:")
        print(lowered.render())
    kinds = sched.op_kind_counts(machine)
    kind_text = "  ".join(f"{k}={v}" for k, v in kinds.items())
    level_text = "  ".join(
        f"lvl{lvl if lvl >= 0 else '(copy)'}={vol}"
        for lvl, vol in sorted(sched.volume_by_level().items())
    )
    print(f"schedule: {len(sched)} ops in {sched.num_channels} channel(s), "
          f"{sched.stage_count()} stage(s)")
    print(f"  ops by kind: {kind_text}")
    print(f"  elements by level: {level_text}")
    print(f"  scratch high-water: {sched.max_scratch_elements()} elements/rank")
    print(f"  array footprint: {sched.nbytes() / 1e6:.2f} MB")
    return 0


def cmd_sim(args) -> int:
    """Simulate one schedule under a chosen engine and report timings."""
    import time

    from .bench.figures import (
        compare_engines,
        pipeline_stage_schedule,
        sim_engine_table,
    )
    from .simulator.engine import simulate
    from .transport.library import Library

    machine = _machine(args)
    payload = _parse_size(args.payload)
    if args.case == "pipeline":
        count = max(1, payload // 4)
        schedule = pipeline_stage_schedule(
            machine, microbatches=args.microbatches, count=count
        )
        libraries = (Library.MPI, Library.IPC)
        label = f"pipeline x{args.microbatches}"
    else:
        from .bench.configs import best_config
        from .bench.runner import payload_count
        from .core.communicator import Communicator
        from .core.composition import compose
        from .core.passes import PassPipeline
        from .core.plan import OptimizationPlan

        count = payload_count(machine, payload)
        comm = Communicator(machine, materialize=False)
        compose(comm, args.case, count)
        cfg = best_config(machine, args.case)
        kw = cfg.init_kwargs()
        plan = OptimizationPlan.create(
            machine, kw["hierarchy"], kw["library"],
            stripe=kw["stripe"], ring=kw["ring"], pipeline=kw["pipeline"],
        )
        schedule = PassPipeline(plan).run(comm.program).schedule
        libraries = plan.libraries
        label = f"{args.case} ({cfg.name})"
    print(f"simulating {label} on {machine.describe()}")
    if args.engine == "both":
        row = compare_engines(label, schedule, machine, libraries,
                              repeat=args.repeat)
        print(sim_engine_table([row]))
        return 0
    walls = []
    timing = None
    for _ in range(max(1, args.repeat)):
        t0 = time.perf_counter()
        timing = simulate(schedule, machine, libraries, 4, engine=args.engine)
        walls.append(time.perf_counter() - t0)
    print(f"  {len(schedule)} ops, engine requested {args.engine!r}, "
          f"ran {timing.engine!r}")
    print(f"  makespan {timing.elapsed * 1e3:.3f} ms, simulator wall "
          f"{min(walls):.3f} s")
    return 0


def _parse_faults(args, machine):
    """Build the FaultSet: explicit flags if any were given, else seeded."""
    from .machine.faults import FaultSet

    def _pair(text, flag):
        parts = text.split(":")
        if len(parts) != 2:
            raise SystemExit(f"error: {flag} wants A:B, got {text!r}")
        return int(parts[0]), int(parts[1])

    explicit = args.down_nic or args.straggler or args.derate_link
    if not explicit:
        return FaultSet.random(machine, args.seed)
    down_nics = tuple(_pair(t, "--down-nic") for t in args.down_nic)
    stragglers = []
    for text in args.straggler:
        rank, _, scale = text.partition(":")
        stragglers.append((int(rank), float(scale)))
    link_derate = []
    for text in args.derate_link:
        parts = text.split(":")
        if len(parts) != 3:
            raise SystemExit(
                f"error: --derate-link wants RANK:LEVEL:SCALE, got {text!r}")
        link_derate.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return FaultSet(down_nics=down_nics, stragglers=tuple(stragglers),
                    link_derate=tuple(link_derate))


def cmd_faults(args) -> int:
    """Degrade the machine and price the recovery: replan or elastic shrink."""
    from .bench.configs import best_config
    from .bench.runner import payload_count
    from .core.communicator import Communicator
    from .core.composition import compose
    from .errors import FaultError
    from .planner.replan import replan
    from .workloads.elastic import elastic_shrink

    machine = _machine(args)
    payload = _parse_size(args.payload)
    try:
        if args.shrink:
            k = args.shrink
            if not 1 <= k < machine.nodes:
                print(f"error: --shrink {k} must drop between 1 and "
                      f"{machine.nodes - 1} of {machine.nodes} node(s)")
                return 2
            drained = tuple(range(machine.nodes - k, machine.nodes))
            report = elastic_shrink(machine, args.collective, payload, drained)
            print(report.render())
            print(f"rank map: {list(report.rank_map)}")
            print(f"shrink re-plan wall: {report.replan_wall_seconds:.3f} s")
            return 0
        faults = _parse_faults(args, machine)
        comm = Communicator(machine, materialize=False)
        compose(comm, args.collective, payload_count(machine, payload))
        comm.init(**best_config(machine, args.collective).init_kwargs())
        report = replan(comm, faults)
        print(report.render())
        print(f"re-plan wall: {report.replan_wall_seconds:.3f} s")
        return 0
    except FaultError as exc:
        print(f"error: {exc}")
        return 2


def cmd_serve(args) -> int:
    """Run the planning daemon in the foreground until a shutdown frame."""
    from .service.server import PlanService, PlanServer, default_socket_path

    path = args.socket or default_socket_path()
    service = PlanService(
        jobs=args.jobs,
        num_shards=args.shards,
        shard_capacity=args.shard_capacity,
        shard_bytes=_parse_size(args.shard_bytes),
        cache_dir=args.cache_dir,
    )
    with PlanServer(path, service) as server:
        print(f"plan service listening on {server.socket_path} "
              f"(jobs={args.jobs}, shards={args.shards})")
        print("stop with: repro request --shutdown, or Ctrl-C")
        try:
            server.serve_forever(poll_interval=0.05)
        except KeyboardInterrupt:
            pass
    print("plan service stopped")
    return 0


def cmd_request(args) -> int:
    """Send one plan request (or control frame) to a running daemon."""
    import json as _json

    from .errors import HicclError
    from .service.client import PlanClient
    from .service.server import default_socket_path

    path = args.socket or default_socket_path()
    try:
        client = PlanClient(path)
    except OSError as exc:
        print(f"error: cannot reach plan service at {path}: {exc}")
        return 2
    with client:
        if args.shutdown:
            client.shutdown()
            print(f"plan service at {path} asked to stop")
            return 0
        if not args.collective:
            print("error: a collective is required unless --shutdown is given")
            return 2
        machine = _machine(args)
        options = {}
        if args.pipelines:
            options["pipelines"] = [
                int(x) for x in args.pipelines.split(",")
            ]
        if args.search_libraries:
            options["search_libraries"] = True
        try:
            response = client.plan(
                machine, args.collective, _parse_size(args.payload),
                options=options or None,
            )
        except HicclError as exc:
            print(f"error: {type(exc).__name__}: {exc}")
            return 2
        if args.json:
            print(_json.dumps(response, indent=2, sort_keys=True))
            return 0
        winner = response["winner"]
        libs = ",".join(winner["libraries"])
        print(f"{args.collective} on {machine.describe()}")
        print(f"  source: {response['source']}  "
              f"request wall {response['seconds'] * 1e3:.2f} ms")
        print(f"  winner: {winner['hierarchy']} [{libs}] "
              f"stripe({winner['stripe']}) ring({winner['ring']}) "
              f"pipeline({winner['pipeline']})")
        print(f"  simulated {response['plan_seconds'] * 1e3:.3f} ms, "
              f"planned in {response['plan_wall_seconds']:.2f} s"
              + (f" ({response['warm_seeds']} warm seed(s))"
                 if response.get("warm_seeds") else ""))
    return 0


def cmd_gantt(args) -> int:
    """Render the pipeline timeline as an ASCII Gantt chart."""
    from .bench.configs import best_config
    from .bench.runner import payload_count
    from .core.communicator import Communicator
    from .core.composition import compose
    from .simulator.trace import ascii_gantt, build_trace, utilization_report

    machine = _machine(args)
    count = payload_count(machine, _parse_size(args.payload))
    comm = Communicator(machine, materialize=False)
    compose(comm, args.collective, count)
    cfg = best_config(machine, args.collective)
    if args.pipeline:
        cfg = cfg.with_pipeline(args.pipeline)
    comm.init(**cfg.init_kwargs())
    events = build_trace(comm.schedule, comm.timing, machine,
                         comm.plan.libraries)
    print(ascii_gantt(events, width=args.width))
    print()
    print(utilization_report(comm.timing).render(6))
    return 0


def cmd_figures(args) -> int:
    """Regenerate, export, or drift-check registered figure baselines."""
    import json as _json

    from . import analysis

    if args.list:
        width = max(len(name) for name in analysis.FIGURES)
        for name, fig in analysis.FIGURES.items():
            print(f"{name:{width}s}  [{fig.group}] {fig.title}")
        return 0
    names = args.names or list(analysis.FIGURES)
    unknown = [n for n in names if n not in analysis.FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)} "
              "(see `repro figures --list`)", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    exports = {}
    for name in names:
        records = analysis.generate(name)
        if args.check:
            result = analysis.check(name, records)
            status = "ok" if result.ok else f"DRIFT ({result.reason})"
            print(f"{name}: {status}")
            if not result.ok:
                failures.append(name)
            continue
        text = analysis.render(name, records)
        if out_dir:
            (out_dir / f"{name}.txt").write_text(text + "\n")
            if args.json:
                (out_dir / f"{name}.json").write_text(
                    analysis.records_json(records))
            if args.csv:
                (out_dir / f"{name}.csv").write_text(
                    analysis.records_csv(records))
            print(f"{name}: wrote {out_dir / name}.txt")
        elif args.json:
            exports[name] = records
        elif args.csv:
            print(f"# figure: {name}")
            print(analysis.records_csv(records), end="")
        else:
            print(text)
    if args.json and not out_dir and not args.check:
        doc = exports[names[0]] if len(names) == 1 else exports
        print(_json.dumps(doc, indent=2, sort_keys=True))
    if failures:
        print(f"{len(failures)} figure(s) drifted: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_serve_sim(args) -> int:
    """Drive a seeded serving scenario and report latency percentiles."""
    from .serving import SERVING_SCENARIOS, run_serving_scenario

    if args.list:
        width = max(len(name) for name in SERVING_SCENARIOS)
        for name, scenario in SERVING_SCENARIOS.items():
            print(f"{name:{width}s}  {scenario.description} "
                  f"(default {scenario.default_rate:.0f}/s)")
        return 0
    if not args.scenario:
        print("serve-sim needs a scenario (or --list)", file=sys.stderr)
        return 2
    machine = _machine(args)
    result = run_serving_scenario(
        args.scenario, machine, arrivals=args.arrivals, rate=args.rate,
        seed=args.seed, payload_bytes=_parse_size(args.payload),
        mode=args.mode)
    print(result.describe())
    if result.stats:
        s = result.stats
        print(f"replay: {s['replayed']}/{s['arrivals']} requests replayed, "
              f"{s['fallbacks']} fallbacks, {s['epochs']} epochs "
              f"({result.wall_seconds:.3f}s wall)")
    return 0


def cmd_trace(args) -> int:
    """Export a workload scenario's timelines as a Chrome trace JSON."""
    import json as _json

    from .analysis import arrival_trace, scenario_trace, validate_trace
    from .serving import SERVING_SCENARIOS
    from .workloads.scenarios import SCENARIOS

    if args.scenario in SERVING_SCENARIOS:
        machine = _machine(args)
        trace = arrival_trace(args.scenario, machine, arrivals=args.arrivals,
                              rate=args.rate, seed=args.seed)
        problems = validate_trace(trace)
        if problems:  # pragma: no cover - defensive; the export is validated
            print("trace failed schema validation:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        out = Path(args.out)
        with out.open("w") as fh:
            _json.dump(trace, fh)
            fh.write("\n")
        data = trace["otherData"]
        print(f"wrote {out} ({data['arrivals']} requests, "
              f"p50 {data['p50_seconds'] * 1e6:.3f} us, "
              f"p99 {data['p99_seconds'] * 1e6:.3f} us); view in "
              "chrome://tracing or https://ui.perfetto.dev")
        return 0
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; one of: "
              f"{', '.join(sorted(SCENARIOS))} or serving: "
              f"{', '.join(sorted(SERVING_SCENARIOS))}", file=sys.stderr)
        return 2
    machine = _machine(args)
    trace = scenario_trace(args.scenario, machine,
                           _parse_size(args.payload), engine=args.engine)
    problems = validate_trace(trace)
    if problems:  # pragma: no cover - defensive; the export is validated
        print("trace failed schema validation:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    out = Path(args.out)
    with out.open("w") as fh:
        _json.dump(trace, fh)
        fh.write("\n")
    n = len(trace["traceEvents"])
    print(f"wrote {out} ({n} events, makespan "
          f"{trace['otherData']['makespan_seconds'] * 1e3:.3f} ms, "
          f"engine {trace['otherData']['engine']}); view in "
          "chrome://tracing or https://ui.perfetto.dev")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HiCCL reproduction: simulated hierarchical collectives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, collective=True):
        if collective:
            p.add_argument("collective", help="e.g. all_reduce, broadcast")
        p.add_argument("--system", default="perlmutter",
                       help="delta|perlmutter|frontier|aurora")
        p.add_argument("--nodes", type=int, default=4)
        p.add_argument("--payload", default="256M",
                       help="total payload, e.g. 64M, 1G")

    p = sub.add_parser("machines", help="list the Table 4 machine models")
    p.add_argument("--nodes", type=int, default=4)
    p.set_defaults(fn=cmd_machines)

    p = sub.add_parser("run", help="run one collective under a config")
    common(p)
    p.add_argument("--topology", choices=("auto", "tree", "ring"),
                   default="auto")
    p.add_argument("--pipeline", type=int, default=0)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="HiCCL vs MPI/vendor/direct baselines")
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "tune",
        help="plan the optimization parameters (staged search / workloads)")
    common(p)
    p.add_argument("--top", type=int, default=None,
                   help="candidates to print (default 5)")
    p.add_argument("--strategy", choices=("staged", "grid"), default=None,
                   help="staged = prune+halve (default); grid = exhaustive")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for candidate evaluation "
                        "(0 = all cores; default in-process)")
    p.add_argument("--budget", type=int, default=None,
                   help="cap on full-payload simulations "
                        "(default: derive from the grid size)")
    p.add_argument("--pipelines", default=None,
                   help="comma-separated pipeline depths to search "
                        "(default 1,4,16,32; 1,2,4,8 with --workload)")
    p.add_argument("--no-library-search", action="store_true",
                   help="fix per-level libraries to the Table 5 policy")
    p.add_argument("--workload", action="store_true",
                   help="treat the positional argument as a workload "
                        "scenario and tune its groups against the "
                        "contended makespan")
    p.add_argument("--rounds", type=int, default=None,
                   help="coordinate-descent passes in --workload mode "
                        "(default 2)")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("bounds", help="Table 3 + empirical bounds for a system")
    common(p, collective=False)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("bench",
                       help="run the Figure 8 grid (parallel with --jobs)")
    common(p, collective=False)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = all cores, 1 = in-process)")
    p.add_argument("--collectives", default="",
                   help="comma-separated subset, e.g. broadcast,all_reduce")
    p.add_argument("--cache-dir", default=None,
                   help="shared on-disk plan cache for the workers")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "workloads",
        help="ML traffic scenarios: concurrent collectives, shared timeline")
    p.add_argument("scenarios", nargs="*",
                   help="scenario names (default: all that fit the machine)")
    p.add_argument("--list", action="store_true",
                   help="list the available scenarios and exit")
    p.add_argument("--system", default="perlmutter",
                   help="delta|perlmutter|frontier|aurora")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--payload", default="64M",
                   help="per-collective payload, e.g. 16M, 256M")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes across scenarios (0 = all cores); "
                        "each scenario still prices on one shared timeline")
    p.set_defaults(fn=cmd_workloads)

    p = sub.add_parser("cache", help="plan-cache statistics and maintenance")
    p.add_argument("--clear", action="store_true",
                   help="also delete the persisted plans on disk")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="report a running plan daemon's sharded cache "
                        "instead of this process's plan cache")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "lower",
        help="run the pass pipeline over one collective; summarize the IR")
    common(p)
    p.add_argument("--pipeline", type=int, default=0)
    p.add_argument("--dump", action="store_true",
                   help="print the per-pass schedule summary")
    p.add_argument("--fuse", action="store_true",
                   help="enable the contiguous-send fusion pass")
    p.add_argument("--dce", action="store_true",
                   help="enable the dead-copy elimination pass")
    p.set_defaults(fn=cmd_lower)

    p = sub.add_parser(
        "sim",
        help="simulate one schedule under the event or levelized engine")
    p.add_argument("case",
                   help="a collective (e.g. all_reduce) or 'pipeline' for "
                        "the dependency-chained pipeline-parallel workload")
    p.add_argument("--system", default="perlmutter",
                   help="delta|perlmutter|frontier|aurora|"
                        "frontier-full|aurora-full")
    p.add_argument("--nodes", type=int, default=None,
                   help="node count (default: the system's own default — "
                        "4 for the paper testbeds, deployed scale for the "
                        "full-system aggregates)")
    p.add_argument("--payload", default="4M",
                   help="total payload (collectives) or per-hop buffer "
                        "(pipeline), e.g. 4M, 1G")
    p.add_argument("--engine", choices=("auto", "event", "level", "both"),
                   default="auto",
                   help="simulation engine; 'both' runs event and level and "
                        "prints the comparison row")
    p.add_argument("--microbatches", type=int, default=4,
                   help="pipeline case only: microbatches per stage chain")
    p.add_argument("--repeat", type=int, default=1,
                   help="simulator wall-clock is best-of-N")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser(
        "faults",
        help="degrade the machine and price the recovery (replan / shrink)")
    common(p)
    p.add_argument("--seed", type=int, default=7,
                   help="seed for FaultSet.random when no explicit fault "
                        "flags are given (default 7)")
    p.add_argument("--down-nic", action="append", default=[],
                   metavar="NODE:NIC",
                   help="fail one NIC (repeatable), e.g. --down-nic 1:0")
    p.add_argument("--straggler", action="append", default=[],
                   metavar="RANK:SCALE",
                   help="slow one GPU to SCALE of its healthy rates "
                        "(repeatable), e.g. --straggler 5:0.5")
    p.add_argument("--derate-link", action="append", default=[],
                   metavar="RANK:LEVEL:SCALE",
                   help="derate one intra-node link (repeatable), "
                        "e.g. --derate-link 4:0:0.6")
    p.add_argument("--shrink", type=int, default=0, metavar="K",
                   help="instead of replanning in place, drain the last K "
                        "nodes and re-plan on the survivors")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "serve",
        help="run the concurrent planning daemon on a local socket")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="Unix socket path (default: "
                        "$REPRO_SERVICE_SOCKET or "
                        "~/.cache/repro/plan-service.sock)")
    p.add_argument("--jobs", type=int, default=1,
                   help="planning workers (0 = all cores; 1 = in-process "
                        "thread sharing this process's plan cache)")
    p.add_argument("--shards", type=int, default=4,
                   help="response-cache shards (partitioned by machine "
                        "fingerprint)")
    p.add_argument("--shard-capacity", type=int, default=512,
                   help="response entries per shard")
    p.add_argument("--shard-bytes", default="8M",
                   help="byte budget per shard, e.g. 8M")
    p.add_argument("--cache-dir", default=None,
                   help="shared on-disk plan cache for the workers")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "request",
        help="ask a running plan daemon for one collective's plan")
    p.add_argument("collective", nargs="?", default=None,
                   help="e.g. all_reduce, broadcast")
    p.add_argument("--system", default="perlmutter",
                   help="delta|perlmutter|frontier|aurora")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--payload", default="256M",
                   help="total payload, e.g. 64M, 1G")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="daemon socket path (default: "
                        "$REPRO_SERVICE_SOCKET or "
                        "~/.cache/repro/plan-service.sock)")
    p.add_argument("--pipelines", default=None,
                   help="comma-separated pipeline depths to search "
                        "(default: the service's 1,4)")
    p.add_argument("--search-libraries", action="store_true",
                   help="search per-level library choice too")
    p.add_argument("--json", action="store_true",
                   help="print the raw response frame")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the daemon to stop instead of planning")
    p.set_defaults(fn=cmd_request)

    p = sub.add_parser("gantt", help="ASCII pipeline timeline (Figure 7)")
    common(p)
    p.add_argument("--pipeline", type=int, default=0)
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(fn=cmd_gantt)

    p = sub.add_parser(
        "figures",
        help="regenerate/check the committed figure baselines (registry)")
    p.add_argument("names", nargs="*",
                   help="figure names (default: the whole registry)")
    p.add_argument("--list", action="store_true",
                   help="list registered figures and exit")
    p.add_argument("--check", action="store_true",
                   help="fail on drift vs the committed baselines")
    p.add_argument("--json", action="store_true",
                   help="emit structured records as JSON")
    p.add_argument("--csv", action="store_true",
                   help="emit structured records as CSV")
    p.add_argument("--out-dir", default=None,
                   help="write <name>.txt (and .json/.csv) under this dir "
                        "instead of printing")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser(
        "serve-sim",
        help="serving latency percentiles via the streaming replay engine")
    p.add_argument("scenario", nargs="?",
                   help="serving scenario, e.g. prefill_decode")
    p.add_argument("--list", action="store_true",
                   help="list serving scenarios and exit")
    p.add_argument("--system", default="perlmutter",
                   help="delta|perlmutter|frontier|aurora")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--payload", default="1M",
                   help="anchor payload per request class, e.g. 1M")
    p.add_argument("--arrivals", type=int, default=512,
                   help="number of arrivals to draw (default 512)")
    p.add_argument("--rate", type=float, default=None,
                   help="arrivals per second (default: scenario registry)")
    p.add_argument("--seed", type=int, default=0,
                   help="arrival-trace seed (default 0)")
    p.add_argument("--mode", choices=("replay", "naive", "merged"),
                   default="replay",
                   help="replay fast path, naive per-arrival loop, or "
                        "merged brute force")
    p.set_defaults(fn=cmd_serve_sim)

    p = sub.add_parser(
        "trace",
        help="export a workload scenario as a Chrome trace (chrome://tracing)")
    p.add_argument("scenario",
                   help="registered workload scenario (e.g. fsdp_step) or "
                        "serving scenario (e.g. prefill_decode) for an "
                        "arrival-trace timeline")
    p.add_argument("--system", default="perlmutter",
                   help="delta|perlmutter|frontier|aurora")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--payload", default="64M",
                   help="per-collective payload, e.g. 64M")
    p.add_argument("--engine", choices=("auto", "event", "level"),
                   default="auto")
    p.add_argument("--arrivals", type=int, default=256,
                   help="serving scenarios: arrivals to draw (default 256)")
    p.add_argument("--rate", type=float, default=None,
                   help="serving scenarios: arrivals per second")
    p.add_argument("--seed", type=int, default=0,
                   help="serving scenarios: arrival-trace seed")
    p.add_argument("--out", default="trace.json",
                   help="output path (default trace.json)")
    p.set_defaults(fn=cmd_trace)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
