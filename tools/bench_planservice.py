#!/usr/bin/env python
"""Plan-service benchmark: hit latency, warm-start gain, closed-loop throughput.

Drives a real daemon (Unix socket, line-delimited JSON) with the seeded
Zipf-skewed synthetic fleet traffic from :mod:`repro.service.traffic` and
emits ``BENCH_planservice.json``:

* ``outcomes`` — the winning plan of every distinct request key in the
  stream, replayed serially through a fresh service.  Pure model output:
  byte-identical across regenerations; CI fails on **any** change.
* ``warm_hits`` — p50/p99 wall latency of repeated cache-hit requests vs
  the cold-plan wall for the same key.
* ``warm_start`` — cold-planning wall and winner quality with and without
  a nearest-machine warm seed, on two committed machine pairs (the donor
  is planned first, then the target; fresh plan cache for every leg).
* ``throughput`` — closed-loop requests/s at several client counts
  against the daemon, vs ``serial_replan_rps``: the no-service status quo
  in which every request cold-replans in a fresh process (fresh plan
  cache per request, one at a time).  The container is single-CPU, so the
  service's advantage is *work elimination* — cache hits and coalescing —
  not parallel planning.

Hard contract (exit 1 on violation):

* warm hits >= 10x faster than the cold plan (p50);
* 8-client closed-loop throughput >= 4x the serial re-plan loop;
* warm-started winner never worse (simulated seconds) than the cold
  winner on either pair, and warm-started planning faster on >= 1 pair.

Wall-clock keys are host-dependent and tolerate 20% drift in CI; the
``outcomes`` section and every ``*_plan_seconds`` winner time must not
drift at all.

Usage::

    PYTHONPATH=src python tools/bench_planservice.py [--out BENCH_planservice.json]
"""

from __future__ import annotations

import sys
import threading
import time

from benchkit import REPO_ROOT, Bench

#: Traffic shape: one seed, one stream, shared by every section.
SEED = 2025
N_REQUESTS = 64
ZIPF_A = 1.9

#: Hit-latency probe repetitions.
HIT_SAMPLES = 200

#: Serial-baseline sample size (each request is a full cold re-plan, so
#: the baseline is measured on a deterministic slice of the stream).
SERIAL_SAMPLES = 8

#: Closed-loop client counts.
CLIENT_COUNTS = (1, 2, 4, 8)

#: Committed machine pairs for the warm-start probe: donor -> target.
WARM_PAIRS = (
    ("delta", 4, 3),
    ("perlmutter", 4, 2),
)

WARM_COLLECTIVE = "all_reduce"
WARM_PAYLOAD = 1 << 24

#: The warm-start probe searches the *full* grid (all pipeline depths,
#: library search on).  Warm seeding pays off by tightening the pruning
#: incumbent early; the default narrow service grid is too small for the
#: effect to clear measurement noise.
WARM_OPTIONS = {"pipelines": [1, 4, 16, 32], "search_libraries": True}


def _fresh_plancache() -> None:
    """Reset the process-wide plan cache (memory-only, default budgets)."""
    from repro.core import plancache

    plancache.configure(disk_dir=None)


def _stream():
    from repro.service.traffic import synthetic_traffic

    return synthetic_traffic(SEED, N_REQUESTS, zipf_a=ZIPF_A)


def measure_outcomes() -> dict:
    """Winning plans of every distinct key, via a fresh serial service."""
    from repro.service.server import PlanService

    _fresh_plancache()
    service = PlanService(jobs=1)
    plans: dict[str, dict] = {}
    stream = _stream()
    try:
        for req in stream:
            label = req.describe()
            if label in plans:
                continue
            response = service.handle({
                "id": label, "type": "plan",
                "machine": _machine_doc(req),
                "collective": req.collective,
                "payload_bytes": req.payload_bytes,
            })
            assert response["status"] == "ok", response
            plans[label] = {
                "winner": response["winner"],
                "plan_seconds": response["plan_seconds"],
            }
    finally:
        service.close()
    return {
        "seed": SEED,
        "n_requests": N_REQUESTS,
        "zipf_a": ZIPF_A,
        "distinct_keys": len(plans),
        "plans": dict(sorted(plans.items())),
    }


def _machine_doc(req) -> dict:
    from repro.service.protocol import machine_to_dict

    return machine_to_dict(req.machine())


def measure_warm_hits() -> dict:
    """p50/p99 wall latency of cache hits vs the cold plan for one key."""
    import numpy as np

    from repro.machine.machines import by_name
    from repro.service.client import PlanClient
    from repro.service.server import PlanServer, PlanService

    _fresh_plancache()
    machine = by_name("delta", nodes=4)
    sock = REPO_ROOT / ".bench-planservice.sock"
    server = PlanServer(sock, PlanService(jobs=1))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        with PlanClient(sock) as client:
            t0 = time.perf_counter()
            cold = client.plan(machine, WARM_COLLECTIVE, WARM_PAYLOAD)
            cold_wall = time.perf_counter() - t0
            assert cold["source"] == "cold", cold["source"]
            walls = []
            for _ in range(HIT_SAMPLES):
                t0 = time.perf_counter()
                hit = client.plan(machine, WARM_COLLECTIVE, WARM_PAYLOAD)
                walls.append(time.perf_counter() - t0)
                assert hit["source"] == "hit", hit["source"]
            client.shutdown()
    finally:
        server.server_close()
        thread.join(timeout=5)
    p50 = float(np.percentile(walls, 50))
    p99 = float(np.percentile(walls, 99))
    return {
        "samples": HIT_SAMPLES,
        "cold_plan_wall_seconds": round(cold_wall, 6),
        "hit_p50_seconds": round(p50, 6),
        "hit_p99_seconds": round(p99, 6),
        "hit_speedup_p50": round(cold_wall / p50, 2),
    }


def measure_warm_start() -> dict:
    """Cold vs warm-started planning on the committed machine pairs."""
    from repro.machine.machines import by_name
    from repro.service.server import PlanService

    pairs = []
    for system, donor_nodes, target_nodes in WARM_PAIRS:
        donor = by_name(system, nodes=donor_nodes)
        target = by_name(system, nodes=target_nodes)

        def _plan(service, machine):
            response = service.handle({
                "id": 0, "type": "plan",
                "machine": _machine_doc_of(machine),
                "collective": WARM_COLLECTIVE,
                "payload_bytes": WARM_PAYLOAD,
                "options": WARM_OPTIONS,
            })
            assert response["status"] == "ok", response
            return response

        # Cold leg: fresh cache, fresh service, nothing to borrow from.
        _fresh_plancache()
        cold_service = PlanService(jobs=1)
        try:
            cold = _plan(cold_service, target)
        finally:
            cold_service.close()
        assert cold["source"] == "cold", cold["source"]

        # Warm leg: fresh cache again; the donor is planned first (not
        # timed against the target) and seeds the nearest-machine index.
        _fresh_plancache()
        warm_service = PlanService(jobs=1)
        try:
            _plan(warm_service, donor)
            warm = _plan(warm_service, target)
        finally:
            warm_service.close()
        assert warm["source"] == "warm", warm["source"]

        pairs.append({
            "system": system,
            "donor_nodes": donor_nodes,
            "target_nodes": target_nodes,
            "cold_plan_seconds": cold["plan_seconds"],
            "warm_plan_seconds": warm["plan_seconds"],
            "cold_winner": cold["winner"],
            "warm_winner": warm["winner"],
            "cold_wall_seconds": round(cold["plan_wall_seconds"], 4),
            "warm_wall_seconds": round(warm["plan_wall_seconds"], 4),
            "warm_wall_speedup": round(
                cold["plan_wall_seconds"] / warm["plan_wall_seconds"], 3),
            "warm_seeds": warm["warm_seeds"],
        })
    return {
        "collective": WARM_COLLECTIVE,
        "payload_bytes": WARM_PAYLOAD,
        "options": WARM_OPTIONS,
        "pairs": pairs,
    }


def _machine_doc_of(machine) -> dict:
    from repro.service.protocol import machine_to_dict

    return machine_to_dict(machine)


def measure_throughput() -> dict:
    """Closed-loop service throughput vs the serial cold re-plan loop."""
    from repro.service.client import PlanClient
    from repro.service.jobs import PlanTask
    from repro.service.server import PlanServer, PlanService

    stream = _stream()

    # Serial baseline: the no-service status quo.  Every request re-plans
    # cold — fresh plan cache each time, exactly like a new process would.
    step = max(1, len(stream) // SERIAL_SAMPLES)
    sample = stream[::step][:SERIAL_SAMPLES]
    t0 = time.perf_counter()
    for req in sample:
        _fresh_plancache()
        PlanTask(
            machine=req.machine(),
            collective=req.collective,
            payload_bytes=req.payload_bytes,
        ).run()
    serial_wall = time.perf_counter() - t0
    serial_rps = len(sample) / serial_wall

    runs = []
    sock = REPO_ROOT / ".bench-planservice.sock"
    for clients in CLIENT_COUNTS:
        _fresh_plancache()
        service = PlanService(jobs=1)
        server = PlanServer(sock, service)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        lanes = [stream[i::clients] for i in range(clients)]
        errors: list[BaseException] = []

        def _client(requests):
            try:
                with PlanClient(sock, timeout=600.0) as client:
                    for req in requests:
                        client.plan(
                            req.machine(), req.collective, req.payload_bytes
                        )
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        t0 = time.perf_counter()
        workers = [
            threading.Thread(target=_client, args=(lane,)) for lane in lanes
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wall = time.perf_counter() - t0
        stats = service.stats.to_dict()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        if errors:
            raise errors[0]
        runs.append({
            "clients": clients,
            "requests": len(stream),
            "wall_seconds": round(wall, 4),
            "requests_per_second": round(len(stream) / wall, 2),
            "planned": stats["planned"],
            "hits": stats["hits"],
            "coalesced": stats["coalesced"],
        })
    return {
        "serial_replan_samples": len(sample),
        "serial_replan_wall_seconds": round(serial_wall, 4),
        "serial_replan_rps": round(serial_rps, 3),
        "runs": runs,
    }


def measure() -> dict:
    """Run every section; returns the JSON-ready result document."""
    outcomes = measure_outcomes()
    warm_hits = measure_warm_hits()
    warm_start = measure_warm_start()
    throughput = measure_throughput()
    return {
        "outcomes": outcomes,
        "warm_hits": warm_hits,
        "warm_start": warm_start,
        "throughput": throughput,
    }


def check(result: dict) -> list[str]:
    """The hard acceptance contract; returns the violations."""
    failures = []
    hits = result["warm_hits"]
    if hits["hit_speedup_p50"] < 10.0:
        failures.append(
            f"warm hit p50 speedup {hits['hit_speedup_p50']}x < 10x"
        )
    pairs = result["warm_start"]["pairs"]
    for pair in pairs:
        if pair["warm_plan_seconds"] > pair["cold_plan_seconds"] + 1e-12:
            failures.append(
                f"warm-started winner worse than cold on {pair['system']} "
                f"{pair['donor_nodes']}->{pair['target_nodes']}: "
                f"{pair['warm_plan_seconds']} > {pair['cold_plan_seconds']}"
            )
    if not any(p["warm_wall_speedup"] > 1.0 for p in pairs):
        failures.append("warm start sped up cold planning on no pair")
    thr = result["throughput"]
    eight = next(
        (r for r in thr["runs"] if r["clients"] == 8), thr["runs"][-1]
    )
    ratio = eight["requests_per_second"] / thr["serial_replan_rps"]
    if ratio < 4.0:
        failures.append(
            f"8-client throughput {eight['requests_per_second']} req/s is "
            f"only {ratio:.2f}x the serial re-plan loop "
            f"({thr['serial_replan_rps']} req/s); need >= 4x"
        )
    return failures


BENCH = Bench(
    name="planservice",
    measure=measure,
    exact=(
        "outcomes.*",
        "warm_start.pairs.*.cold_winner",
        "warm_start.pairs.*.warm_winner",
        "warm_start.pairs.*.cold_plan_seconds",
        "warm_start.pairs.*.warm_plan_seconds",
    ),
    drift={
        "warm_hits.hit_p50_seconds": "higher",
        "throughput.runs.*.requests_per_second": "lower",
    },
    check=check,
)


if __name__ == "__main__":
    sys.exit(BENCH.main())
