"""Concurrent plan service: a coalescing, sharded, warm-starting daemon.

The planner (:mod:`repro.planner`) and plan cache (:mod:`repro.core.plancache`)
are library calls inside one process; this package turns them into a
long-running local service so a fleet's ``init_tuned()`` becomes a
cache-or-plan RPC:

* :mod:`~repro.service.protocol` — line-delimited JSON frames, machine
  descriptions by value, content-addressed request keys;
* :mod:`~repro.service.shards` — machine-fingerprint-sharded response cache
  that owns every request key: stored body, in-flight future (identical
  keys plan once), or a new reservation, answered under one shard lock
  (per-shard LRU + byte budget + frequency-sketch admission);
* :mod:`~repro.service.similarity` — nearest-machine index whose winners
  warm-start the planner's successive-halving search;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — the daemon
  (``repro serve``) and its client (``repro request``);
* :mod:`~repro.service.traffic` — deterministic Zipf-skewed synthetic fleet
  traffic for the benchmark (``tools/bench_planservice.py``).
"""

from .client import PlanClient
from .jobs import PlanTableTask, PlanTask, table_from_dict, table_to_dict
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    machine_digest,
    machine_from_dict,
    machine_to_dict,
    request_key,
)
from .server import PlanServer, PlanService, default_socket_path
from .shards import FrequencySketch, ShardedPlanCache
from .similarity import MachineIndex, machine_distance, translate_candidate
from .traffic import TrafficRequest, synthetic_traffic, traffic_universe

__all__ = [
    "PROTOCOL_VERSION",
    "FrequencySketch",
    "MachineIndex",
    "PlanClient",
    "PlanServer",
    "PlanService",
    "PlanTableTask",
    "PlanTask",
    "ProtocolError",
    "ShardedPlanCache",
    "TrafficRequest",
    "default_socket_path",
    "machine_digest",
    "machine_distance",
    "machine_from_dict",
    "machine_to_dict",
    "request_key",
    "synthetic_traffic",
    "table_from_dict",
    "table_to_dict",
    "traffic_universe",
    "translate_candidate",
]
