"""Serving driver tests: replay-vs-brute-force differential, engine units.

The load-bearing property of the replay fast path (DESIGN.md Section 14):
for any seeded trace, the streaming engine's per-request latencies are
**float-for-float identical** to one merged brute-force ``simulate_workload``
over the whole trace — certified replays reproduce the event engine's
arithmetic exactly, and contended epochs fall back *through* the event
engine, so the equality is ``==``, not ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import arrival_trace
from repro.analysis import validate_trace as validate_chrome_trace
from repro.errors import CompositionError, InitializationError
from repro.machine.machines import delta
from repro.serving import (
    SERVING_SCENARIOS,
    Arrival,
    applicable_serving_scenarios,
    brute_force_latencies,
    poisson_trace,
    run_serving_scenario,
    simulate_serving,
    validate_trace,
)
from repro.simulator.serving import ServingEngine

MACHINE = delta(nodes=2)
PAYLOAD = 1 << 16  # small payloads keep the merged oracle quick
SCENARIOS = tuple(SERVING_SCENARIOS)


@pytest.fixture(scope="module")
def built():
    """Classes and mix weights per scenario (compiled once per session)."""
    return {name: SERVING_SCENARIOS[name].build(MACHINE, PAYLOAD)
            for name in SCENARIOS}


class TestDifferential:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_replay_is_bit_identical_to_merged_brute_force(self, built, name):
        classes, weights = built[name]
        trace = poisson_trace(400.0, 200, weights, seed=7)
        replay = simulate_serving(MACHINE, classes, trace, name=name)
        merged = brute_force_latencies(MACHINE, classes, trace,
                                       engine="event")
        assert np.array_equal(replay.latencies, merged)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_contended_trace_agrees_through_the_fallback(self, built, name):
        # Mean inter-arrival gap of 10us is far below the request latencies,
        # so epochs pile up and the certificate must reject some arrivals.
        classes, weights = built[name]
        trace = poisson_trace(100_000.0, 120, weights, seed=3)
        replay = simulate_serving(MACHINE, classes, trace,
                                  fallback_engine="event", name=name)
        merged = brute_force_latencies(MACHINE, classes, trace,
                                       engine="event")
        assert replay.stats["fallbacks"] > 0
        engines = {d["engine"] for d in replay.requests_detail}
        assert "event" in engines  # some requests went through the fallback
        assert np.array_equal(replay.latencies, merged)

    def test_merged_mode_is_the_oracle(self, built):
        classes, weights = built["prefill_decode"]
        trace = poisson_trace(400.0, 64, weights, seed=1)
        merged = simulate_serving(MACHINE, classes, trace, mode="merged")
        oracle = brute_force_latencies(MACHINE, classes, trace)
        assert np.array_equal(merged.latencies, oracle)

    def test_replay_counters_are_consistent(self, built):
        classes, weights = built["continuous_batch"]
        trace = poisson_trace(400.0, 150, weights, seed=5)
        result = simulate_serving(MACHINE, classes, trace)
        stats = result.stats
        assert stats["arrivals"] == len(trace) == result.arrivals
        assert stats["replayed"] + stats["merged_requests"] == len(trace)
        assert stats["replayed"] <= stats["accepted"]
        assert stats["rejected"] + stats["accepted"] <= stats["arrivals"]


class TestSummaries:
    def test_percentile_ladder_and_class_partition(self, built):
        classes, weights = built["prefill_decode"]
        trace = poisson_trace(400.0, 128, weights, seed=2)
        result = simulate_serving(MACHINE, classes, trace)
        assert sum(s.count for s in result.classes) == len(trace)
        for s in (*result.classes, result.overall):
            assert 0.0 < s.p50 <= s.p90 <= s.p99 <= s.worst
        assert result.summary_for("decode").name == "decode"
        with pytest.raises(KeyError):
            result.summary_for("no-such-class")

    def test_describe_is_deterministic(self, built):
        classes, weights = built["continuous_batch"]
        trace = poisson_trace(400.0, 96, weights, seed=4)
        first = simulate_serving(MACHINE, classes, trace)
        second = simulate_serving(MACHINE, classes, trace)
        assert first.describe() == second.describe()

    def test_unknown_mode_rejected(self, built):
        classes, weights = built["prefill_decode"]
        trace = poisson_trace(400.0, 4, weights, seed=0)
        with pytest.raises(InitializationError, match="mode"):
            simulate_serving(MACHINE, classes, trace, mode="turbo")


class TestServingEngine:
    def test_arrivals_must_be_nondecreasing(self, built):
        classes, _ = built["prefill_decode"]
        engine = ServingEngine(MACHINE, [rc.template for rc in classes])
        engine.submit(0, 1.0)
        with pytest.raises(ValueError, match="nondecreasing"):
            engine.submit(0, 0.5)

    def test_submit_after_finish_raises(self, built):
        classes, _ = built["prefill_decode"]
        engine = ServingEngine(MACHINE, [rc.template for rc in classes])
        engine.submit(0, 0.0)
        engine.finish()
        with pytest.raises(RuntimeError, match="finish"):
            engine.submit(0, 1.0)

    def test_finish_is_idempotent(self, built):
        classes, _ = built["prefill_decode"]
        engine = ServingEngine(MACHINE, [rc.template for rc in classes])
        engine.submit(1, 0.0)
        first = engine.finish()
        second = engine.finish()
        assert first.requests == second.requests

    def test_scenario_templates_are_replayable(self, built):
        for classes, _ in built.values():
            for rc in classes:
                assert rc.template.replayable, rc.name

    def test_template_compile_prices_each_op_once(self, built, monkeypatch):
        """Compiling a template prices its schedule once: the zero-offset
        event run reuses the booking tables' priced columns."""
        from repro.simulator import engine, serving, timing

        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return timing.price_schedule_columns(*args, **kwargs)

        monkeypatch.setattr(serving, "price_schedule_columns", counted)
        monkeypatch.setattr(engine, "price_schedule_columns", counted)
        template = built["prefill_decode"][0][0].template
        again = serving.make_template(template.name, template.schedule,
                                      MACHINE, template.libraries,
                                      template.elem_bytes)
        assert calls == [len(template.schedule)]
        assert again.replayable


class TestArrivals:
    def test_poisson_trace_is_seed_deterministic(self):
        weights = {"a": 2.0, "b": 1.0}
        assert poisson_trace(50.0, 32, weights, seed=9) == \
            poisson_trace(50.0, 32, weights, seed=9)
        assert poisson_trace(50.0, 32, weights, seed=9) != \
            poisson_trace(50.0, 32, weights, seed=10)

    def test_poisson_trace_is_ordered_and_typed(self):
        trace = poisson_trace(50.0, 64, {"x": 1.0, "y": 3.0}, seed=0)
        times = [a.time for a in trace]
        assert times == sorted(times)
        assert {a.request_class for a in trace} <= {"x", "y"}

    def test_poisson_trace_validation(self):
        with pytest.raises(InitializationError, match="rate"):
            poisson_trace(0.0, 4, {"a": 1.0})
        with pytest.raises(InitializationError, match="count"):
            poisson_trace(1.0, -1, {"a": 1.0})
        with pytest.raises(InitializationError, match="class"):
            poisson_trace(1.0, 4, {})
        with pytest.raises(InitializationError, match="weights"):
            poisson_trace(1.0, 4, {"a": 0.0})

    def test_validate_trace_rejects_bad_traces(self):
        good = (Arrival(0.0, "a"), Arrival(1.0, "a"))
        assert validate_trace(good, {"a"}) == good
        with pytest.raises(InitializationError, match="nondecreasing"):
            validate_trace((Arrival(1.0, "a"), Arrival(0.0, "a")), {"a"})
        with pytest.raises(InitializationError, match="unknown"):
            validate_trace((Arrival(0.0, "zz"),), {"a"})


class TestScenarioRegistry:
    def test_both_scenarios_fit_committed_machines(self):
        assert applicable_serving_scenarios(MACHINE) == list(SCENARIOS)

    def test_unknown_scenario_raises(self):
        with pytest.raises(CompositionError, match="unknown serving"):
            run_serving_scenario("nope", MACHINE)

    def test_single_node_machine_is_rejected(self):
        with pytest.raises(CompositionError, match="nodes"):
            run_serving_scenario("prefill_decode", delta(nodes=1))

    def test_run_serving_scenario_smoke(self):
        result = run_serving_scenario("prefill_decode", MACHINE, arrivals=48,
                                      payload_bytes=PAYLOAD)
        assert result.arrivals == 48
        assert result.mode == "replay"
        assert len(result.requests_detail) == 48


class TestArrivalTraceExport:
    def test_export_validates_and_spans_every_request(self):
        doc = arrival_trace("prefill_decode", MACHINE, arrivals=32,
                            payload_bytes=PAYLOAD)
        assert validate_chrome_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == 32
        assert doc["otherData"]["scenario"] == "prefill_decode"
        assert doc["otherData"]["p99_seconds"] >= doc["otherData"]["p50_seconds"]
