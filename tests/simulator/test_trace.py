"""Tests for execution tracing, Gantt rendering, and utilization reports."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import repro
from repro import Communicator, Library
from repro.machine.machines import generic
from repro.simulator.trace import (
    ascii_gantt,
    build_trace,
    chrome_trace,
    resource_timeline,
    utilization_report,
)


@pytest.fixture
def traced():
    machine = generic(4, 3, 1, name="trace")
    comm = Communicator(machine, materialize=False)
    repro.compose(comm, "broadcast", 1 << 16)
    comm.init(hierarchy=[4, 3], library=[Library.MPI, Library.IPC],
              ring=4, stripe=3, pipeline=5)
    events = build_trace(comm.schedule, comm.timing, machine,
                         comm.plan.libraries)
    return machine, comm, events


class TestBuildTrace:
    def test_one_event_per_op(self, traced):
        _, comm, events = traced
        assert len(events) == len(comm.schedule)
        assert all(ev.finish >= ev.start for ev in events)

    def test_times_match_engine(self, traced):
        _, comm, events = traced
        makespan = max(ev.finish for ev in events)
        assert makespan == pytest.approx(comm.timing.elapsed)

    def test_channels_and_stages_carried(self, traced):
        _, comm, events = traced
        assert {ev.channel for ev in events} == set(range(5))
        assert max(ev.stage for ev in events) == 4  # Figure 6(b): 5 stages


class TestResourceTimeline:
    def test_grouped_and_sorted(self, traced):
        _, _, events = traced
        timeline = resource_timeline(events)
        assert timeline
        for key, evs in timeline.items():
            starts = [e.start for e in evs]
            assert starts == sorted(starts)

    def test_nic_rows_exist(self, traced):
        _, _, events = traced
        kinds = {key[0] for key in resource_timeline(events)}
        assert {"nic_tx", "nic_rx", "link_tx", "link_rx"} <= kinds


class TestAsciiGantt:
    def test_by_rank(self, traced):
        _, _, events = traced
        art = ascii_gantt(events, by="rank")
        assert "ms" in art
        # All 12 ranks participate (striping employs every GPU).
        assert art.count("|") >= 2 * 12

    def test_pipeline_overlap_visible(self, traced):
        """In the steady state, different stages run at the same time —
        some column must contain two different stage digits."""
        _, _, events = traced
        art = ascii_gantt(events, by="rank", width=60)
        rows = [line.split("|")[1] for line in art.splitlines() if "|" in line]
        overlapped = 0
        for col in range(60):
            digits = {row[col] for row in rows if row[col] != " "}
            if len(digits) > 1:
                overlapped += 1
        assert overlapped > 5

    def test_by_resource(self, traced):
        _, _, events = traced
        art = ascii_gantt(events, by="resource", max_rows=8)
        assert "more rows" in art or art.count("|") > 0

    def test_bad_axis_rejected(self, traced):
        _, _, events = traced
        with pytest.raises(ValueError):
            ascii_gantt(events, by="banana")

    def test_empty_trace(self):
        assert "empty" in ascii_gantt([])


class TestChromeTrace:
    def test_valid_json_with_all_events(self, traced):
        _, comm, events = traced
        doc = json.loads(chrome_trace(events))
        assert len(doc["traceEvents"]) == len(comm.schedule)
        ev = doc["traceEvents"][0]
        assert {"name", "ph", "ts", "dur", "tid", "args"} <= set(ev)
        assert ev["ph"] == "X"


class TestUtilizationReport:
    def test_fractions_bounded(self, traced):
        _, comm, _ = traced
        rep = utilization_report(comm.timing)
        assert rep.makespan == comm.timing.elapsed
        assert all(0 <= frac <= 1.0 + 1e-9 for frac in rep.busy_fraction.values())

    def test_bottleneck_is_network_for_ring_broadcast(self, traced):
        """A striped pipelined ring broadcast should be NIC/injection-bound."""
        _, comm, _ = traced
        rep = utilization_report(comm.timing)
        top_kind = rep.bottlenecks(1)[0][0][0]
        assert top_kind in ("nic_tx", "nic_rx", "inj_tx", "inj_rx")

    def test_render(self, traced):
        _, comm, _ = traced
        text = utilization_report(comm.timing).render(3)
        assert "makespan" in text and "%" in text

    def test_render_ignores_busy_insertion_order(self, traced):
        """Equal fractions rank by resource key, not by dict order: the
        event loop inserts in first-booking order, the level engine in
        resource-id order, and both must report alike."""
        _, comm, _ = traced
        timing = comm.timing
        items = list(timing.resource_busy.items())
        fractions = [busy for _, busy in items]
        assert len(set(fractions)) < len(fractions)  # the case has ties
        permuted = replace(timing, resource_busy=dict(reversed(items)))
        for n in (3, 10, len(items)):
            assert (utilization_report(permuted).render(n)
                    == utilization_report(timing).render(n))
