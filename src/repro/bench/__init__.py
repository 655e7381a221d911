"""Benchmark harness: configs (Table 5), runner (Section 6.2), figures."""

from .configs import (
    HicclConfig,
    best_config,
    direct_config,
    hierarchical_config,
    pipelined_config,
    ring_config,
    striped_config,
    tree_config,
)
from .degraded import DegradedProbe, degraded_probe, replan_probe, shrink_probe
from .parallel import SweepPoint, hiccl_grid
from .report import geomean, render_throughput_table
from .runner import (
    DEFAULT_PAYLOAD_BYTES,
    Measurement,
    payload_count,
    run_baseline,
    run_hiccl,
    sweep_payloads,
)

__all__ = [
    "DEFAULT_PAYLOAD_BYTES",
    "DegradedProbe",
    "HicclConfig",
    "Measurement",
    "SweepPoint",
    "best_config",
    "degraded_probe",
    "direct_config",
    "geomean",
    "hiccl_grid",
    "hierarchical_config",
    "payload_count",
    "pipelined_config",
    "render_throughput_table",
    "replan_probe",
    "ring_config",
    "run_baseline",
    "run_hiccl",
    "shrink_probe",
    "striped_config",
    "tree_config",
]
