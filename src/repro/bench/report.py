"""Speedup aggregation (the paper's Section 6.3.1 headline numbers)."""

from __future__ import annotations

import math

from .runner import Measurement


def geomean(values) -> float:
    """Geometric mean of positive values (the paper's speedup aggregate)."""
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def render_throughput_table(rows: list[Measurement], title: str = "") -> str:
    """Tabulate measurements grouped by collective (Figure 8 as text)."""
    by_collective: dict[str, dict[str, float]] = {}
    impls: list[str] = []
    for m in rows:
        by_collective.setdefault(m.collective, {})[m.implementation] = m.throughput
        if m.implementation not in impls:
            impls.append(m.implementation)
    width = max(len(i) for i in impls) + 2
    out = []
    if title:
        out.append(title)
    header = f"{'collective':16s}" + "".join(f"{i:>{width}s}" for i in impls)
    out.append(header)
    for name, vals in by_collective.items():
        cells = "".join(
            f"{vals.get(i, float('nan')):>{width}.2f}" for i in impls
        )
        out.append(f"{name:16s}{cells}")
    return "\n".join(out)
