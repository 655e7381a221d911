"""Figure 9: pipeline depth vs buffer size on four nodes of Perlmutter.

Tree implementations of Gather and Scatter, ring+tree implementations of
Broadcast and Reduce, across pipeline depths 1..128 and buffer sizes from
kilobytes to a gigabyte.  Checks the paper's Section 6.4 findings: deep
pipelines win at large messages, hurt at small ones, and rings need deeper
pipelines than trees to saturate.
"""

from __future__ import annotations

import pytest

from repro.analysis import generate, render
from repro.analysis.throughput import FIG9_CASES

SMALL = 1 << 16  # 64 KB
LARGE = 1 << 30  # 1 GB


@pytest.mark.parametrize("collective", sorted(FIG9_CASES))
def test_fig9_panel(benchmark, record_output, full_sweeps, collective):
    name = f"fig9_{collective}"
    kwargs = {}
    if full_sweeps:
        kwargs = {
            "payloads_bytes": [1 << s for s in
                               (14, 16, 18, 20, 22, 24, 26, 28, 30)],
            "depths": (1, 2, 4, 8, 16, 32, 64, 128),
        }
    records = benchmark.pedantic(
        generate, args=(name,), kwargs=kwargs, iterations=1, rounds=1)
    record_output(name, render(name, records))

    points = [r for r in records if r["row"] == "point"]
    depths = sorted({r["depth"] for r in points})

    def thr(depth, payload):
        for r in points:
            if r["depth"] == depth and (
                r["payload_bytes"] == payload
                or abs(r["payload_bytes"] - payload) < 64
            ):
                return r["throughput"]
        raise KeyError(payload)

    def peak(depth):
        return max(r["throughput"] for r in points if r["depth"] == depth)

    deep = max(depths)
    if FIG9_CASES[collective] == "ring":
        # Rings gain *algorithmically* from pipelining: deep wins big at
        # large messages (Section 6.4: "requires up to k = 32 levels").
        assert thr(deep, LARGE) > 2.0 * thr(1, LARGE)
    else:
        # Trees only need to hide intra-node stages: they saturate with a
        # shallow pipeline ("converges ... with only k = 4 stages"), so the
        # deepest pipeline must not beat the shallow ones meaningfully.
        best = max(peak(d) for d in depths)
        assert peak(min(depths, key=lambda d: abs(d - 4))) > 0.8 * best
    # Excessive depth always hurts small messages (latency dominates).
    assert thr(deep, SMALL) < thr(1, SMALL) * 1.5
    # Throughput grows with buffer size at every depth (saturation sweep).
    for d in depths:
        series = [r["throughput"] for r in points if r["depth"] == d]
        assert series[-1] == max(series)
