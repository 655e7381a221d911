"""Workload scenario suite: committed baselines for shared-timeline runs.

Regenerates ``benchmarks/output/workloads_{perlmutter,delta}.txt`` through
the ``repro.analysis`` registry.  The records are deterministic functions of
(machine, payload) — no clocks, no randomness — so regeneration must be
byte-identical to the committed files, which
``test_committed_baselines_are_current`` enforces via
``repro.analysis.check`` (render identity and JSON round-trip identity).
"""

from __future__ import annotations

import pytest

from repro.analysis import check, generate, render

SYSTEMS = ("perlmutter", "delta")


@pytest.fixture(scope="module")
def records():
    """Registry records per system (computed once per session)."""
    return {system: generate(f"workloads_{system}") for system in SYSTEMS}


def test_workloads_perlmutter(records, record_output):
    text = render("workloads_perlmutter", records["perlmutter"])
    record_output("workloads_perlmutter", text)
    assert "fsdp_step" in text and "disjoint_halves" in text


def test_workloads_delta(records, record_output):
    text = render("workloads_delta", records["delta"])
    record_output("workloads_delta", text)
    # Delta's single NIC makes the contention mix pay heavily.
    assert "contention_mix" in text


def test_scenario_slowdown_invariants(records):
    slowdowns = {r["scenario"]: r["worst_slowdown"]
                 for r in records["perlmutter"] if r["row"] == "scenario"}
    assert slowdowns["contention_mix"] > 1.0
    assert abs(slowdowns["disjoint_halves"] - 1.0) < 1e-9
    assert slowdowns["fsdp_step"] > 1.0


@pytest.mark.parametrize("system", SYSTEMS)
def test_committed_baselines_are_current(system, records):
    """Regeneration is byte-identical to the committed baseline files, and
    the records survive a JSON round-trip without changing the render."""
    result = check(f"workloads_{system}", records[system])
    assert result.ok, (
        f"{result.reason}; regenerate with `python -m repro figures "
        f"workloads_{system} --out-dir benchmarks/output` and commit"
    )
