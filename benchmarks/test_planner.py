"""Planner acceptance suite: committed tuned baselines + search contract.

Regenerates ``benchmarks/output/tuned_{perlmutter,delta}.txt`` through the
``repro.analysis`` registry: for every Table 2 collective on both committed
machine models, the Table 5 paper configuration, the exhaustive grid-search
best, and the staged planner's best, with the planner's stage counters.
The records are deterministic functions of (machine, payload), so
regeneration must be byte-identical to the committed files — which
``repro.analysis.check`` enforces, for both the direct render and the
JSON-round-tripped records.

The same records back the planner's acceptance contract:

* the staged search returns a plan no slower than the exhaustive best over
  the *whole* space — which also proves the truncated-payload halving never
  evicted the eventual winner;
* full-payload simulations cover at most a third of the candidates the
  legacy grid search prices;
* workload-aware tuning (:func:`repro.workloads.scenarios.tune_scenario`)
  improves the contended makespan over per-group isolated tuning on a
  committed scenario (``contention_mix`` on Delta, whose single NIC makes
  contention expensive).
"""

from __future__ import annotations

import pytest

from repro.analysis import check, generate, render

SYSTEMS = ("perlmutter", "delta")


@pytest.fixture(scope="module")
def records():
    """Registry records per system (computed once per session)."""
    return {system: generate(f"tuned_{system}") for system in SYSTEMS}


@pytest.mark.parametrize("system", SYSTEMS)
def test_tuned_baseline(system, records, record_output):
    text = render(f"tuned_{system}", records[system])
    record_output(f"tuned_{system}", text)
    assert "Planner vs paper configs" in text
    assert "workload planning for 'contention_mix'" in text


@pytest.mark.parametrize("system", SYSTEMS)
def test_planner_no_slower_than_exhaustive_best(system, records):
    """Equivalence on every Table 2 collective — including that the halving
    rungs never evicted the eventual winner (else staged > grid here)."""
    for row in (r for r in records[system] if r["row"] == "plan"):
        staged = row["staged_seconds"]
        assert staged <= row["grid_seconds"] * (1 + 1e-12), row["collective"]
        # The Table 5 paper configuration sits inside the space, so the
        # planner can never lose to it either.
        assert staged <= row["paper_seconds"] * (1 + 1e-12), row["collective"]


@pytest.mark.parametrize("system", SYSTEMS)
def test_full_simulation_budget(system, records):
    """Full-payload sims on at most 1/3 of the legacy grid, every time."""
    plans = [r for r in records[system] if r["row"] == "plan"]
    for row in plans:
        assert row["full_evals"] * 3 <= row["grid_size"], row["collective"]
        assert row["truncated_evals"] > 0, row["collective"]
    assert sum(r["pruned"] for r in plans) > 0


def test_workload_tuning_improves_contended_makespan(records):
    """Contended tuning beats per-group isolated tuning on a committed
    scenario: Delta's single NIC makes the four-way contention_mix pay for
    plans that look optimal in isolation."""
    tuning = next(r for r in records["delta"] if r["row"] == "tuning")
    assert tuning["tuned_makespan"] <= tuning["baseline_makespan"]
    assert tuning["improvement"] > 1.0
    choices = [r for r in records["delta"] if r["row"] == "choice"]
    assert any(choice["changed"] for choice in choices)


@pytest.mark.parametrize("system", SYSTEMS)
def test_committed_baselines_are_current(system, records):
    """Regeneration is byte-identical to the committed baseline files, and
    the records survive a JSON round-trip without changing the render."""
    result = check(f"tuned_{system}", records[system])
    assert result.ok, (
        f"{result.reason}; regenerate with `python -m repro figures "
        f"tuned_{system} --out-dir benchmarks/output` and commit"
    )
