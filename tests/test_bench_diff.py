"""Unit tests for the consolidated benchmark-diff tool (tools/bench_diff.py).

Synthetic reference/run payloads exercise every rule the CI ``bench-diff``
matrix job relies on: exact-match keys fail on any change, wall-clock keys
fail only past the 20% one-sided threshold, the warm-cache factor rule
fails only on order-of-magnitude regressions, and a ruled key missing from
the run fails.  The ``BENCHES`` registry checks itself against the
committed references: every rule matches a committed key, and every
reference passes its own rules and contract.  The registry, the CI matrix,
and the committed ``BENCH_<name>.json`` references must name the same
benchmarks, so no leg can run without a reference to diff against.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import re
import sys
from fnmatch import fnmatch, fnmatchcase
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "bench_diff.py"
_spec = importlib.util.spec_from_file_location("bench_diff", _PATH)
bench_diff = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_diff
_spec.loader.exec_module(bench_diff)


LOWERING_REF = {
    "workload": "fig8-frontier",
    "ops": 71234,
    "schedule_mbytes": 12.5,
    "cold_lower_seconds": 10.0,
    "cold_simulate_seconds": 5.0,
    "cold_total_seconds": 15.0,
    "reference_unreplicated_total_seconds": 60.0,
    "speedup_vs_unreplicated": 4.0,
    "warm_total_seconds": 0.001,
}

SIMULATOR_REF = {
    "event_seconds": 8.0,
    "level_seconds": 1.0,
    "speedup": 8.0,
    "makespan_seconds": 0.125,
}

FAULTS_REF = {
    "replan": {
        "healthy_seconds": 0.010,
        "replay_seconds": 0.014,
        "replanned_seconds": 0.012,
        "replan_wall_seconds": 2.0,
    },
    "elastic_shrink": {
        "healthy_seconds": 0.010,
        "shrunk_seconds": 0.011,
        "replan_wall_seconds": 1.0,
    },
}

PLANSERVICE_REF = {
    "outcomes": {
        "seed": 2025,
        "plans": {"delta/all_gather@16M": {"winner": [3, 4],
                                           "plan_seconds": 0.009}},
    },
    "warm_start": {
        "pairs": [{"system": "delta", "cold_winner": "a", "warm_winner": "a",
                   "cold_plan_seconds": 0.01, "warm_plan_seconds": 0.002,
                   "warm_wall_seconds": 0.5}],
    },
    "warm_hits": {"hit_p50_seconds": 0.001},
    "throughput": {"runs": [{"clients": 1, "requests_per_second": 100.0},
                            {"clients": 8, "requests_per_second": 420.0}]},
}


def _run(bench, ref, new):
    return bench_diff.run_diff(bench, ref, new)


def _committed(name: str) -> dict:
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


# ------------------------------------------------------------------ lowering
def test_lowering_identical_run_passes():
    assert _run("lowering", LOWERING_REF, copy.deepcopy(LOWERING_REF)) == []


def test_lowering_exact_keys_fail_on_any_change():
    new = copy.deepcopy(LOWERING_REF)
    new["ops"] += 1
    failures = _run("lowering", LOWERING_REF, new)
    assert any("ops" in f for f in failures)


def test_lowering_wall_clock_tolerates_small_drift():
    new = copy.deepcopy(LOWERING_REF)
    new["cold_total_seconds"] *= 1.15  # within the 20% budget
    assert _run("lowering", LOWERING_REF, new) == []


def test_lowering_wall_clock_fails_past_threshold():
    new = copy.deepcopy(LOWERING_REF)
    new["cold_total_seconds"] *= 1.30
    failures = _run("lowering", LOWERING_REF, new)
    assert any("cold_total_seconds" in f for f in failures)


def test_lowering_speedup_drift_is_one_sided():
    faster = copy.deepcopy(LOWERING_REF)
    faster["speedup_vs_unreplicated"] *= 2.0  # better: never fails
    assert _run("lowering", LOWERING_REF, faster) == []
    slower = copy.deepcopy(LOWERING_REF)
    slower["speedup_vs_unreplicated"] *= 0.5
    assert _run("lowering", LOWERING_REF, slower) != []


def test_lowering_warm_rule_uses_factor_not_percent():
    noisy = copy.deepcopy(LOWERING_REF)
    noisy["warm_total_seconds"] *= 5.0  # timer noise: passes
    assert _run("lowering", LOWERING_REF, noisy) == []
    regressed = copy.deepcopy(LOWERING_REF)
    regressed["warm_total_seconds"] *= 20.0  # cache regression: fails
    assert _run("lowering", LOWERING_REF, regressed) != []


# ----------------------------------------------------------------- simulator
def test_simulator_makespan_must_not_move():
    new = copy.deepcopy(SIMULATOR_REF)
    new["makespan_seconds"] += 1e-9
    failures = _run("simulator", SIMULATOR_REF, new)
    assert any("makespan" in f for f in failures)


def test_simulator_speedup_fails_only_when_lower():
    better = copy.deepcopy(SIMULATOR_REF)
    better["speedup"] = 16.0
    assert _run("simulator", SIMULATOR_REF, better) == []
    worse = copy.deepcopy(SIMULATOR_REF)
    worse["speedup"] = 5.0
    assert any("speedup" in f for f in _run("simulator", SIMULATOR_REF,
                                              worse))


# -------------------------------------------------------------------- faults
def test_faults_simulated_times_are_exact():
    new = copy.deepcopy(FAULTS_REF)
    new["replan"]["replay_seconds"] *= 1.0001
    failures = _run("faults", FAULTS_REF, new)
    assert any("replay_seconds" in f for f in failures)


def test_faults_wall_seconds_keys_are_exempt_from_exact_match():
    new = copy.deepcopy(FAULTS_REF)
    new["replan"]["replan_wall_seconds"] *= 1.15
    new["elastic_shrink"]["replan_wall_seconds"] *= 0.5  # faster is fine
    assert _run("faults", FAULTS_REF, new) == []


def test_faults_replan_wall_drift_fails_past_threshold():
    new = copy.deepcopy(FAULTS_REF)
    new["elastic_shrink"]["replan_wall_seconds"] *= 1.5
    failures = _run("faults", FAULTS_REF, new)
    assert any("elastic_shrink.replan_wall_seconds" in f for f in failures)


# --------------------------------------------------------------- planservice
def test_planservice_identical_run_passes():
    assert _run("planservice", PLANSERVICE_REF,
                copy.deepcopy(PLANSERVICE_REF)) == []


def test_planservice_outcome_change_fails():
    new = copy.deepcopy(PLANSERVICE_REF)
    new["outcomes"]["plans"]["delta/all_gather@16M"]["winner"] = [4, 3]
    failures = _run("planservice", PLANSERVICE_REF, new)
    assert any("outcomes.plans" in f for f in failures)


def test_planservice_warm_start_winner_is_exact_but_wall_is_free():
    new = copy.deepcopy(PLANSERVICE_REF)
    new["warm_start"]["pairs"][0]["warm_wall_seconds"] = 99.0  # not diffed
    assert _run("planservice", PLANSERVICE_REF, new) == []
    new["warm_start"]["pairs"][0]["warm_winner"] = "b"
    failures = _run("planservice", PLANSERVICE_REF, new)
    assert any("warm_winner" in f for f in failures)


def test_planservice_throughput_drift_is_one_sided():
    new = copy.deepcopy(PLANSERVICE_REF)
    new["throughput"]["runs"][1]["requests_per_second"] = 300.0  # -29%
    failures = _run("planservice", PLANSERVICE_REF, new)
    assert any("throughput.runs.1.requests_per_second" in f
               for f in failures)
    faster = copy.deepcopy(PLANSERVICE_REF)
    faster["throughput"]["runs"][1]["requests_per_second"] = 900.0
    assert _run("planservice", PLANSERVICE_REF, faster) == []


# ----------------------------------------------------------------------- CLI
def test_cli_roundtrip(tmp_path, capsys):
    ref = tmp_path / "ref.json"
    new = tmp_path / "new.json"
    ref.write_text(json.dumps(SIMULATOR_REF))
    new.write_text(json.dumps(SIMULATOR_REF))
    assert bench_diff.main(["simulator", "--ref", str(ref),
                            "--new", str(new)]) == 0
    regressed = dict(SIMULATOR_REF, speedup=1.0)
    new.write_text(json.dumps(regressed))
    assert bench_diff.main(["simulator", "--ref", str(ref),
                            "--new", str(new)]) == 1
    assert "regressed" in capsys.readouterr().err


SERVING_REF = {
    "arrivals": 1000,
    "seed": 0,
    "scenarios": [
        {
            "system": "delta",
            "scenario": "prefill_decode",
            "latency": {
                "classes": [{"name": "prefill", "count": 250,
                             "p50": 7.8e-05, "p90": 8.1e-05, "p99": 8.4e-05,
                             "mean": 7.9e-05, "worst": 9.0e-05}],
                "overall": {"name": "overall", "count": 1000,
                            "p50": 5.7e-05, "p90": 7.9e-05, "p99": 8.3e-05,
                            "mean": 6.0e-05, "worst": 9.0e-05},
            },
            "replay_stats": {"arrivals": 1000, "accepted": 997,
                             "rejected": 3, "fallbacks": 1,
                             "merged_requests": 3, "replayed": 997,
                             "epochs": 960},
            "bit_identical": True,
            "replay_wall_seconds": 0.25,
            "speedup": 12.0,
        },
    ],
}


def test_serving_identical_run_passes():
    assert _run("serving", SERVING_REF, copy.deepcopy(SERVING_REF)) == []


def test_serving_latency_percentiles_are_exact():
    new = copy.deepcopy(SERVING_REF)
    new["scenarios"][0]["latency"]["overall"]["p99"] *= 1.0001
    failures = _run("serving", SERVING_REF, new)
    assert any("scenarios.0.latency" in f for f in failures)


def test_serving_replay_counters_are_exact():
    new = copy.deepcopy(SERVING_REF)
    new["scenarios"][0]["replay_stats"]["fallbacks"] += 1
    failures = _run("serving", SERVING_REF, new)
    assert any("scenarios.0.replay_stats" in f for f in failures)


def test_serving_bit_identity_is_mandatory():
    new = copy.deepcopy(SERVING_REF)
    new["scenarios"][0]["bit_identical"] = False
    failures = _run("serving", SERVING_REF, new)
    assert any("scenarios.0.bit_identical" in f for f in failures)


def test_serving_speedup_drift_is_one_sided():
    faster = copy.deepcopy(SERVING_REF)
    faster["scenarios"][0]["speedup"] = 24.0
    assert _run("serving", SERVING_REF, faster) == []
    noisy = copy.deepcopy(SERVING_REF)
    noisy["scenarios"][0]["speedup"] = 10.5  # -12.5%: within budget
    assert _run("serving", SERVING_REF, noisy) == []
    slower = copy.deepcopy(SERVING_REF)
    slower["scenarios"][0]["speedup"] = 9.0  # -25%: fails
    failures = _run("serving", SERVING_REF, slower)
    assert any("speedup drifted" in f for f in failures)


def test_serving_replay_wall_drift_is_one_sided():
    """The fast path's own wall is gated, so a ratio that falls only
    because the naive loop got faster cannot hide a slower replay."""
    faster = copy.deepcopy(SERVING_REF)
    faster["scenarios"][0]["replay_wall_seconds"] = 0.1
    assert _run("serving", SERVING_REF, faster) == []
    slower = copy.deepcopy(SERVING_REF)
    slower["scenarios"][0]["replay_wall_seconds"] = 0.35  # +40%: fails
    failures = _run("serving", SERVING_REF, slower)
    assert any("replay_wall_seconds drifted" in f for f in failures)


def test_serving_leg_set_must_match():
    new = copy.deepcopy(SERVING_REF)
    new["scenarios"][0]["scenario"] = "continuous_batch"
    failures = _run("serving", SERVING_REF, new)
    assert any("scenarios.0.scenario" in f for f in failures)


def test_planservice_missing_pairs_and_runs_fail():
    """A run lacking ruled entries of the reference fails on each of them
    (a pairwise ``zip`` would silently skip the unmatched tail)."""
    ref = _committed("planservice")
    new = copy.deepcopy(ref)
    del new["warm_start"]["pairs"][1]
    del new["throughput"]["runs"][1:]
    failures = _run("planservice", ref, new)
    assert "warm_start.pairs.1.cold_winner: missing from the run" in failures
    for i in (1, 2, 3):
        assert (f"throughput.runs.{i}.requests_per_second: "
                "missing from the run") in failures


def test_missing_exact_key_fails():
    new = copy.deepcopy(LOWERING_REF)
    del new["ops"]
    assert _run("lowering", LOWERING_REF, new) == [
        "ops: missing from the run"]


def _ci_matrix_benches() -> list:
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    match = re.search(r"^\s*bench:\s*\[([^\]]*)\]", text, re.M)
    assert match, "ci.yml has no bench-diff matrix"
    return sorted(name.strip() for name in match.group(1).split(","))


def _committed_references() -> list:
    return sorted(p.name[len("BENCH_"):-len(".json")]
                  for p in ROOT.glob("BENCH_*.json")
                  if not p.name.endswith(".ci.json"))


def _paths(doc, prefix=""):
    """Every dotted path of a JSON document (list items by index)."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        yield path
        yield from _paths(value, path)


@pytest.mark.parametrize("name", sorted(bench_diff.BENCHES))
def test_every_rule_matches_a_committed_key(name):
    """A misspelt rule would silently exempt the key it meant to guard."""
    bench = bench_diff.BENCHES[name]
    paths = list(_paths(_committed(name)))
    patterns = [*bench.exact, *bench.drift, *bench.factor]
    unmatched = [p for p in patterns
                 if not any(fnmatchcase(path, p) for path in paths)]
    assert not unmatched


@pytest.mark.parametrize("name", sorted(bench_diff.BENCHES))
def test_committed_reference_passes_its_rules_and_contract(name):
    bench = bench_diff.BENCHES[name]
    ref = _committed(name)
    assert bench.diff(ref, copy.deepcopy(ref)) == []
    assert bench.check(ref) == []


def test_rules_ci_matrix_and_references_name_the_same_benches():
    assert sorted(bench_diff.BENCHES) == _ci_matrix_benches()
    assert sorted(bench_diff.BENCHES) == _committed_references()


def test_gitignore_lists_no_committed_reference():
    patterns = [line.strip().lstrip("/")
                for line in (ROOT / ".gitignore").read_text().splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    ignored = [(f"BENCH_{name}.json", pattern)
               for name in bench_diff.BENCHES for pattern in patterns
               if fnmatch(f"BENCH_{name}.json", pattern)]
    assert not ignored
