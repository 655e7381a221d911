#!/usr/bin/env python
"""Docstring coverage checker for the core/workload/simulator/planner/model layers.

Every *public* module, class, function, and method under the checked
directories must carry a docstring — these layers define the workload and
planner contracts documented in DESIGN.md, and an undocumented public name
is a contract hole.  Public means: not prefixed with ``_``, not a dunder, and not
nested inside a private class.  Wired into ``tools/smoke.sh``, the CI
workflow, and ``tests/test_docs.py``.

Run directly (``python tools/check_docstrings.py``); exits nonzero listing
every offender as ``path:line: kind qualname``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories (relative to the repository root) held to full coverage.
CHECKED_DIRS = (
    "src/repro/workloads",
    "src/repro/simulator",
    "src/repro/planner",
    "src/repro/model",
    "src/repro/core",
    "src/repro/service",
    "src/repro/serving",
    "src/repro/analysis",
)

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _walk_defs(body, prefix: str, offenders: list[tuple[int, str, str]]):
    """Collect public defs lacking docstrings from one class/module body."""
    for node in body:
        if not isinstance(node, _DEF_NODES):
            continue
        if not _is_public(node.name):
            continue
        kind = "class" if isinstance(node, ast.ClassDef) else "function"
        qualname = f"{prefix}{node.name}"
        if ast.get_docstring(node) is None:
            offenders.append((node.lineno, kind, qualname))
        if isinstance(node, ast.ClassDef):
            _walk_defs(node.body, f"{qualname}.", offenders)


def missing_docstrings(root: Path = REPO_ROOT) -> list[str]:
    """Every public name under the checked dirs lacking a docstring."""
    problems: list[str] = []
    for top in CHECKED_DIRS:
        base = root / top
        if not base.exists():
            problems.append(f"{top}: checked directory does not exist")
            continue
        for py in sorted(base.rglob("*.py")):
            rel = py.relative_to(root)
            tree = ast.parse(py.read_text(encoding="utf-8"), filename=str(rel))
            if ast.get_docstring(tree) is None:
                problems.append(f"{rel}:1: module lacks a docstring")
            offenders: list[tuple[int, str, str]] = []
            _walk_defs(tree.body, "", offenders)
            for lineno, kind, qualname in offenders:
                problems.append(
                    f"{rel}:{lineno}: public {kind} {qualname!r} lacks a "
                    "docstring"
                )
    return problems


def main() -> int:
    """Run the check; print a report and return the exit code."""
    problems = missing_docstrings()
    if problems:
        print(f"{len(problems)} missing docstring(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    checked = sum(
        len(list((REPO_ROOT / top).rglob("*.py"))) for top in CHECKED_DIRS
    )
    print(f"docstring coverage OK ({checked} files in {len(CHECKED_DIRS)} "
          "checked directories)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
