"""Degraded-topology acceptance suite: committed fault baselines.

Regenerates ``benchmarks/output/faults_{perlmutter,delta}.txt`` through the
``repro.analysis`` registry: a seeded fault replan (healthy baseline,
replayed-on-degraded time, and the degraded search winner) plus an elastic
shrink (drop the last node, re-plan on the survivors) per committed machine
model.  The records are deterministic functions of (machine shape, seed,
payload) and exclude wall-clock times, so regeneration must be
byte-identical to the committed files — enforced via
``repro.analysis.check``.

The same records back the fault layer's operational contract:

* the degraded-search winner is never worse than replaying the healthy
  schedule on the degraded machine (the healthy plan is merged into the
  degraded ranking, so "do nothing" is always on the table);
* replaying a healthy plan under monotone derates never *gains* time over
  the healthy baseline.
"""

from __future__ import annotations

import pytest

from repro.analysis import check, generate, render

SYSTEMS = ("perlmutter", "delta")


@pytest.fixture(scope="module")
def records():
    """Registry records per system (computed once per session)."""
    return {system: generate(f"faults_{system}") for system in SYSTEMS}


@pytest.mark.parametrize("system", SYSTEMS)
def test_faults_baseline(system, records, record_output):
    text = render(f"faults_{system}", records[system])
    record_output(f"faults_{system}", text)
    assert "replan under FaultSet.random" in text
    assert "elastic shrink" in text


@pytest.mark.parametrize("system", SYSTEMS)
def test_replan_never_worse_than_replay(system, records):
    """The degraded winner beats or matches replaying the healthy plan."""
    rep = next(r for r in records[system] if r["row"] == "replan")
    assert rep["replanned_seconds"] <= rep["replay_seconds"] * (1 + 1e-12)
    assert rep["replay_seconds"] / rep["replanned_seconds"] >= 1.0 - 1e-12


@pytest.mark.parametrize("system", SYSTEMS)
def test_replay_never_gains_under_derates(system, records):
    """Monotone derates: the degraded replay of the healthy schedule is no
    faster than the healthy baseline.  (No such bound holds for the elastic
    shrink — the shrunk machine gets a *different* plan, and a flat node
    tier on 3 nodes can beat a binary tree on 4; see EXPERIMENTS.md.)"""
    rep = next(r for r in records[system] if r["row"] == "replan")
    assert rep["replay_seconds"] >= rep["healthy_seconds"] * (1 - 1e-12)


@pytest.mark.parametrize("system", SYSTEMS)
def test_shrink_shape(system, records):
    """The shrink probe drops exactly one node and keeps the payload."""
    shrink = next(r for r in records[system] if r["row"] == "shrink")
    assert shrink["nodes_after"] == shrink["nodes_before"] - 1
    rank_map = shrink["rank_map"]
    assert len(rank_map) == shrink["nodes_after"] * (
        len(rank_map) // shrink["nodes_after"]
    )
    assert shrink["shrunk_seconds"] > 0.0


@pytest.mark.parametrize("system", SYSTEMS)
def test_committed_baselines_are_current(system, records):
    """Regeneration is byte-identical to the committed baseline files, and
    the records survive a JSON round-trip without changing the render."""
    result = check(f"faults_{system}", records[system])
    assert result.ok, (
        f"{result.reason}; regenerate with `python -m repro figures "
        f"faults_{system} --out-dir benchmarks/output` and commit"
    )
