"""Serving latency acceptance suite: committed percentile baselines.

Regenerates ``benchmarks/output/serving_{delta,perlmutter}.txt`` through the
``repro.analysis`` registry: per-scenario latency percentile tables (p50 to
worst per request class) of seeded Poisson traffic driven through the
streaming replay engine.  Certified replays are bit-identical to the event
engine and fallbacks *are* the event engine, so the records are pure model
outputs — regeneration must be byte-identical to the committed files,
enforced via ``repro.analysis.check``.
"""

from __future__ import annotations

import pytest

from repro.analysis import check, generate, render

SYSTEMS = ("delta", "perlmutter")


@pytest.fixture(scope="module")
def records():
    """Registry records per system (computed once per session)."""
    return {system: generate(f"serving_{system}") for system in SYSTEMS}


@pytest.mark.parametrize("system", SYSTEMS)
def test_serving_baseline(system, records, record_output):
    text = render(f"serving_{system}", records[system])
    record_output(f"serving_{system}", text)
    assert "prefill_decode" in text
    assert "continuous_batch" in text
    assert "p99 us" in text


@pytest.mark.parametrize("system", SYSTEMS)
def test_latency_ladders_are_monotone(system, records):
    """p50 <= p90 <= p99 <= worst for every class row of every scenario."""
    rows = [r for r in records[system] if r["row"] == "class"]
    assert rows
    for row in rows:
        assert 0.0 < row["p50"] <= row["p90"] <= row["p99"] <= row["worst"]


@pytest.mark.parametrize("system", SYSTEMS)
def test_size_buckets_order_the_tail(system, records):
    """Bigger continuous-batch payload buckets see equal-or-worse medians."""
    rows = {r["klass"]: r for r in records[system]
            if r["row"] == "class" and r["scenario"] == "continuous_batch"}
    assert rows["small"]["p50"] <= rows["medium"]["p50"] <= \
        rows["large"]["p50"]


@pytest.mark.parametrize("system", SYSTEMS)
def test_committed_baselines_are_current(system, records):
    """Regeneration is byte-identical to the committed baseline files, and
    the records survive a JSON round-trip without changing the render."""
    result = check(f"serving_{system}", records[system])
    assert result.ok, (
        f"{result.reason}; regenerate with `python -m repro figures "
        f"serving_{system} --out-dir benchmarks/output` and commit"
    )
