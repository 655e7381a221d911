#!/usr/bin/env python3
"""Diff a benchmark run against its committed reference.

One entry point for the bench-diff CI legs (see
.github/workflows/ci.yml's ``bench-diff`` matrix job)::

    python tools/bench_diff.py lowering     # BENCH_lowering.json vs .ci.json
    python tools/bench_diff.py simulator --ref a.json --new b.json

``BENCHES`` holds the :class:`benchkit.Bench` declared by every
``tools/bench_<name>.py``: each benchmark names its exact-match,
drift and warm-factor keys beside the code that measures them, and one
rule engine (:meth:`benchkit.Bench.diff`) applies them.

Exit status 1 with a summary when anything regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

#: Benchmark name -> declaration, one per ``tools/bench_<name>.py``.
#: Matrix entries in ci.yml key into this.
BENCHES = {
    bench.name: bench
    for bench in (importlib.import_module(path.stem).BENCH
                  for path in sorted(TOOLS.glob("bench_*.py"))
                  if path.stem != "bench_diff")
}


def run_diff(bench: str, ref: dict, new: dict) -> list:
    """Apply one benchmark's rules; returns the list of failure strings."""
    return BENCHES[bench].diff(ref, new)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="diff a benchmark run against its committed reference")
    parser.add_argument("bench", choices=sorted(BENCHES))
    parser.add_argument("--ref", type=Path, default=None,
                        help="committed reference (default BENCH_<bench>.json)")
    parser.add_argument("--new", dest="new_path", type=Path, default=None,
                        help="fresh run (default BENCH_<bench>.ci.json)")
    args = parser.parse_args(argv)
    ref_path = args.ref or Path(f"BENCH_{args.bench}.json")
    new_path = args.new_path or Path(f"BENCH_{args.bench}.ci.json")
    ref = json.loads(ref_path.read_text())
    new = json.loads(new_path.read_text())
    failures = run_diff(args.bench, ref, new)
    if failures:
        print("regressed vs committed reference:\n  " + "\n  ".join(failures),
              file=sys.stderr)
        return 1
    print(f"{args.bench}: no regression vs {ref_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
