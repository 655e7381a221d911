"""Shared machinery of the bench-diff legs: one declaration, one rule engine.

Each ``tools/bench_<name>.py`` declares its benchmark once, as a
:class:`Bench`: how to measure it, which keys of its JSON document are
diffed and how, and its hard contract.  ``python tools/bench_<name>.py
[--out PATH]`` runs :meth:`Bench.main` (measure, write
``BENCH_<name>.json``, check the contract), and ``tools/bench_diff.py``
collects every declaration into its ``BENCHES`` registry and applies
:meth:`Bench.diff`.

Rules name keys of the JSON document by dotted path, list items by index
(``scenarios.0.latency``), and may use ``fnmatch`` wildcards
(``scenarios.*.speedup``).  There are three kinds, mirroring what the
model guarantees:

* ``exact`` — deterministic model outputs (op counts, schedule bytes,
  simulated times, plan winners): any change fails;
* ``drift`` — host-dependent wall-clock and throughput figures, each named
  with the direction that is worse: only drift past ``THRESHOLD`` (20%)
  that way fails (slower lowering, lower speedup/throughput);
* ``factor`` — sub-millisecond warm timings, all timer noise at percent
  scale: only an order-of-magnitude regression (warm approaching cold,
  past ``WARM_FACTOR`` times the reference) fails.

The reference is walked from its root and the first path a rule matches
is diffed whole (a matched dict or list compares entire); on one path a
drift or factor rule takes precedence over an exact one.  A ruled path of
the reference that is missing from the run fails.  Keys no rule matches
are recorded for context and never diffed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Tolerated one-sided drift for host-dependent (wall-clock) figures.
THRESHOLD = 0.20

#: A factor-ruled key fails only when worse than this multiple of the
#: reference (a cache regression makes warm look like cold).
WARM_FACTOR = 10.0

_MISSING = object()


def drift(ref: float, new: float, worse_when: str) -> float:
    """Signed fractional drift of ``new`` vs ``ref``; positive is worse."""
    if worse_when == "higher":
        return (new - ref) / ref
    return (ref - new) / ref


def _child(doc, key):
    """``doc[key]`` for a dict key or list index, else ``_MISSING``."""
    if isinstance(doc, dict):
        return doc.get(key, _MISSING)
    if isinstance(doc, list) and isinstance(key, int) and key < len(doc):
        return doc[key]
    return _MISSING


@dataclass(frozen=True)
class Bench:
    """One bench-diff leg: its measurement, its diff rules, its contract.

    ``measure()`` returns the JSON-ready result document; ``drift`` maps
    key patterns to the direction that is worse (``"higher"`` or
    ``"lower"``), ``exact`` and ``factor`` are key patterns; ``check(result)``
    returns the violations of the hard contract (empty when it holds).
    """

    name: str
    measure: Callable[[], dict]
    drift: dict[str, str]
    exact: tuple[str, ...] = ()
    factor: tuple[str, ...] = ()
    check: Callable[[dict], list] = lambda result: []

    def rule(self, path: str) -> tuple[str, str] | None:
        """``(kind, worse_when)`` of the rule governing ``path``, if any."""
        for pattern, worse_when in self.drift.items():
            if fnmatchcase(path, pattern):
                return "drift", worse_when
        if any(fnmatchcase(path, pattern) for pattern in self.factor):
            return "factor", "higher"
        if any(fnmatchcase(path, pattern) for pattern in self.exact):
            return "exact", ""
        return None

    def diff(self, ref: dict, new: dict) -> list:
        """Apply the rules to a run vs the reference; the failure strings."""
        failures: list[str] = []
        self._diff_node("", ref, new, failures)
        return failures

    def _diff_node(self, path: str, ref, new, failures: list) -> None:
        rule = self.rule(path) if path else None
        if rule is None:
            if isinstance(ref, dict):
                children = ref.items()
            elif isinstance(ref, list):
                children = enumerate(ref)
            else:
                children = ()
            for key, value in children:
                child = f"{path}.{key}" if path else str(key)
                self._diff_node(child, value, _child(new, key), failures)
            return
        if new is _MISSING:
            failures.append(f"{path}: missing from the run")
            return
        kind, worse_when = rule
        if kind == "exact":
            if new != ref:
                failures.append(f"{path}: committed {ref!r} vs run {new!r}")
        elif kind == "drift":
            d = drift(ref, new, worse_when)
            print(f"{path}: committed {ref} vs run {new} ({d:+.1%} worse)")
            if d > THRESHOLD:
                failures.append(f"{path} drifted {d:+.1%}")
        else:
            print(f"{path}: committed {ref} vs run {new}")
            if new > WARM_FACTOR * ref:
                failures.append(
                    f"{path} {new} > {WARM_FACTOR:g}x committed {ref}")

    def main(self, argv=None) -> int:
        """Run the benchmark, write the JSON document, check the contract."""
        parser = argparse.ArgumentParser(
            description=sys.modules[self.measure.__module__].__doc__)
        parser.add_argument(
            "--out", default=str(REPO_ROOT / f"BENCH_{self.name}.json"))
        args = parser.parse_args(argv)
        result = self.measure()
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result, indent=2))
        print(f"[saved to {args.out}]")
        failures = self.check(result)
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1 if failures else 0
