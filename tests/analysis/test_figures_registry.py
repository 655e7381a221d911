"""Registry contract: coverage, record purity, and byte-identity.

The expensive figures (fig8/fig9/fig10, tuned, workloads, faults) are
regenerated and byte-checked by their own benchmark suites under
``benchmarks/``; here the *cheap* structural figures prove the registry
mechanics — record JSON-safety, render purity, drift detection — in the
smoke-test tier.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.analysis as analysis
from repro.analysis import (
    FIGURES,
    baseline_dir,
    check,
    generate,
    records_csv,
    records_json,
    render,
)

ROOT = Path(__file__).resolve().parents[2]

#: Figures cheap enough for the smoke tier (model-only, no throughput sims).
CHEAP = ("fig1_volume", "fig2_bindings", "fig5_trees", "fig6_stages",
         "fig7_matrices", "table3_bounds")


def test_registry_covers_every_committed_baseline():
    """Every committed baseline has a figure, and vice versa."""
    stems = {p.stem for p in baseline_dir().glob("*.txt")
             if not p.stem.endswith("_timing")}
    assert stems == set(FIGURES)


def test_registry_entries_are_complete():
    for name, fig in FIGURES.items():
        assert fig.name == name
        assert fig.title and fig.group
        assert callable(fig.generate) and callable(fig.render)


@pytest.mark.parametrize("name", CHEAP)
def test_cheap_figures_regenerate_byte_identically(name):
    result = check(name)
    assert result.ok, result.reason


@pytest.mark.parametrize("name", CHEAP)
def test_records_are_json_safe_and_round_trip(name):
    records = generate(name)
    assert isinstance(records, list)
    assert all(isinstance(r, dict) for r in records)
    rebuilt = json.loads(json.dumps(records))
    assert rebuilt == records
    assert render(name, rebuilt) == render(name, records)


def test_records_json_is_stable_and_newline_terminated():
    records = generate("fig6_stages")
    text = records_json(records)
    assert text.endswith("\n")
    assert text == records_json(json.loads(text))  # idempotent round-trip


def test_records_csv_covers_union_of_keys():
    records = generate("table3_bounds")  # system rows + bound rows
    reader = csv.reader(io.StringIO(records_csv(records)))
    rows = list(reader)
    header, body = rows[0], rows[1:]
    assert len(body) == len(records)
    union = set().union(*(r.keys() for r in records))
    assert set(header) == union


def test_check_detects_record_drift():
    records = generate("fig6_stages")
    tampered = copy.deepcopy(records)
    tampered[0]["stages"] += 1
    result = check("fig6_stages", tampered)
    assert not result.ok
    assert result.reason


def test_check_unknown_figure_raises():
    with pytest.raises(KeyError):
        check("fig99_imaginary")


def test_register_rejects_duplicate_names():
    with pytest.raises(ValueError):
        analysis.registry.register(
            "fig1_volume", "dup", "figure", lambda: [], lambda r: "")


def test_benchmark_fails_on_drifted_baseline_without_rewriting_it(tmp_path):
    """A benchmark whose render differs from the committed baseline fails,
    and the baseline file is left exactly as it was."""
    drifted = tmp_path / "fig1_volume.txt"
    drifted.write_text(baseline_dir().joinpath("fig1_volume.txt").read_text()
                       + "one drifted line\n")
    before = drifted.read_bytes()
    env = dict(os.environ, REPRO_BASELINE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    env.pop("REPRO_FULL", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/test_fig1_volume.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout
    assert "repro figures fig1_volume --out-dir benchmarks/output" \
        in proc.stdout
    assert drifted.read_bytes() == before
