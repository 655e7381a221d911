"""Shared benchmark fixtures.

Every benchmark regenerates one table or figure of the paper and checks its
text rendering against the committed ``benchmarks/output/<name>.txt``, so a
drifted figure fails the run instead of silently replacing its baseline.
``REPRO_FULL=1`` in the environment extends sweeps to their full (slow)
ranges.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


def pytest_collection_modifyitems(items):
    """Mark every benchmark as ``slow`` and run the benchmarks last.

    The figure sweeps are minutes-long synthesis grids; the smoke job
    (``pytest -x -q -m "not slow"``, see tools/smoke.sh) skips them while the
    full tier-1 run still executes everything.  Moving them behind the rest
    of the collection lets ``pytest -x`` report a broken unit test within
    minutes instead of after the sweeps; the set of tests is unchanged.
    """
    bench_root = Path(__file__).parent.resolve()
    rest, sweeps = [], []
    for item in items:
        if bench_root in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)
            sweeps.append(item)
        else:
            rest.append(item)
    items[:] = rest + sweeps


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def full_sweeps() -> bool:
    return os.environ.get("REPRO_FULL", "") == "1"


@pytest.fixture
def record_output(full_sweeps):
    """Echo a figure/table rendering and check it against its baseline.

    The rendering must equal the committed baseline byte for byte; a
    committed file is never rewritten here.  ``REPRO_FULL=1`` sweeps
    differ from the committed ones by design, so they are only printed.
    """
    from repro.analysis import baseline_path

    def _record(name: str, text: str) -> None:
        print(f"\n{text}\n")
        if full_sweeps:
            return
        path = baseline_path(name)
        committed = path.read_text() if path.exists() else None
        assert committed == text + "\n", (
            f"{name} differs from committed {path}; regenerate with "
            f"`python -m repro figures {name} --out-dir benchmarks/output` "
            "and review the diff")

    return _record
