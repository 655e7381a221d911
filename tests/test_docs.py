"""Documentation integrity: broken .md cross-references fail the build."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
CHECKER = TOOLS / "check_doc_links.py"
DOCSTRINGS = TOOLS / "check_docstrings.py"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load_checker():
    return _load(CHECKER)


def test_promised_documents_exist():
    root = CHECKER.parent.parent
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"):
        assert (root / name).exists(), f"{name} is missing"


def test_no_broken_cross_references():
    checker = _load_checker()
    errors: list[str] = []
    checker.check_markdown_links(errors)
    checker.check_source_mentions(errors)
    checker.check_bench_references(errors)
    checker.check_code_references(errors)
    assert not errors, "broken documentation references:\n" + "\n".join(errors)


def test_code_reference_check_flags_missing_code(tmp_path):
    checker = _load_checker()
    (tmp_path / "DESIGN.md").write_text(
        "Resolve: `service.shards`, `repro.core.plancache`, "
        "`bench.parallel.TaskPool.submit`, `analysis.FIGURES`, `os.path`.\n"
        "Broken: `service.batcher`, `repro.bench.parallel.run_sweep`.\n"
        "```python\nx = `service.batcher`\n```\n")
    errors: list[str] = []
    checker.check_code_references(errors, docs=("DESIGN.md",),
                                  root=tmp_path)
    assert len(errors) == 2, errors
    assert "`repro.bench.parallel.run_sweep`" in errors[0]
    assert "`service.batcher`" in errors[1]


def test_github_slugging():
    checker = _load_checker()
    assert checker.github_slug("1. Layer tour") == "1-layer-tour"
    assert (checker.github_slug("3. Plan cache (`repro.core.plancache`)")
            == "3-plan-cache-reprocoreplancache")


def test_anchor_extraction_sees_explicit_ids():
    checker = _load_checker()
    anchors = checker.anchors_of(CHECKER.parent.parent / "EXPERIMENTS.md")
    assert "paper-vs-measured" in anchors
    assert "calibration" in anchors


def test_docstring_coverage_of_workload_and_simulator_layers():
    checker = _load(DOCSTRINGS)
    problems = checker.missing_docstrings()
    assert not problems, "missing docstrings:\n" + "\n".join(problems)


def test_docstring_checker_detects_offenders(tmp_path):
    checker = _load(DOCSTRINGS)
    bad = tmp_path / "src" / "repro" / "workloads"
    bad.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "simulator").mkdir()
    (bad / "mod.py").write_text(
        '"""Module doc."""\n\n\ndef documented():\n    """Yes."""\n\n\n'
        "def naked():\n    pass\n\n\nclass Thing:\n"
        '    """Doc."""\n\n    def method(self):\n        pass\n'
    )
    problems = checker.missing_docstrings(tmp_path)
    assert any("'naked'" in p for p in problems)
    assert any("'Thing.method'" in p for p in problems)
    assert not any("documented" in p for p in problems)


def test_readme_workload_quickstart_runs():
    """The README "Simulating a training step" snippet executes as written."""
    readme = CHECKER.parent.parent / "README.md"
    section = readme.read_text().split("## Simulating a training step")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "quickstart python block missing"
    namespace: dict = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)  # noqa: S102
    result = namespace["result"]
    assert result.makespan > 0
    assert result.worst_slowdown >= 1.0


def test_readme_inspecting_schedules_quickstart_runs():
    """The README "Inspecting schedules" snippet executes as written."""
    readme = CHECKER.parent.parent / "README.md"
    section = readme.read_text().split("## Inspecting schedules")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "inspecting-schedules python block missing"
    namespace: dict = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)  # noqa: S102
    schedule = namespace["schedule"]
    lowered = namespace["lowered"]
    assert len(schedule) > 0
    assert namespace["stages"] >= 1
    assert set(namespace["volumes"]) == {"inter-node", "intra-node", "local"}
    assert namespace["first_op"].uid == 0
    assert [s["pass"] for s in lowered.summaries] == [
        "expand-logic", "hierarchy", "pipelining", "striping", "ring-tree",
        "channel-binding",
    ]


def test_readme_fault_quickstart_runs():
    """The README "Surviving faults" snippet executes as written."""
    readme = CHECKER.parent.parent / "README.md"
    section = readme.read_text().split("## Surviving faults")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "fault python block missing"
    namespace: dict = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)  # noqa: S102
    report = namespace["report"]
    assert report.replay_seconds >= report.healthy_seconds
    assert report.replanned_seconds <= report.replay_seconds
    shrink = namespace["shrink"]
    assert shrink.nodes_after == 3
    assert shrink.rank_map == tuple(range(12))
    # The replanned communicator itself stays healthy.
    assert namespace["comm"].machine.faults is None


def test_readme_serving_plans_quickstart_runs():
    """The README "Serving plans" snippet executes as written."""
    readme = CHECKER.parent.parent / "README.md"
    section = readme.read_text().split("## Serving plans")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "serving-plans python block missing"
    namespace: dict = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)  # noqa: S102
    cold, hit, stats = namespace["cold"], namespace["hit"], namespace["stats"]
    assert cold["status"] == hit["status"] == "ok"
    assert cold["source"] in ("cold", "warm")
    assert hit["source"] == "hit"
    assert hit["winner"] == cold["winner"]
    assert stats["service"]["requests"] == 2
    assert stats["service"]["planned"] == 1
    assert stats["service"]["hits"] == 1
    assert len(stats["cache"]["shards"]) >= 1


def test_readme_serving_latency_quickstart_runs():
    """The README "Serving latency" snippet executes as written."""
    readme = CHECKER.parent.parent / "README.md"
    section = readme.read_text().split("## Serving latency")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "serving-latency python block missing"
    namespace: dict = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)  # noqa: S102
    result = namespace["result"]
    assert result.arrivals == 200
    assert 0.0 < result.overall.p50 <= result.overall.p99
    assert result.stats["replayed"] + result.stats["merged_requests"] == 200
    table = namespace["table"]
    for entry in table.entries:
        assert entry.plan_seconds <= entry.baseline_seconds * (1 + 1e-12)
    tabled = namespace["tabled"]
    assert tabled.arrivals == 64
    assert [s.name for s in tabled.classes] == ["small", "large"]


def test_readme_figures_quickstart_runs():
    """The README "Figures and traces" snippet executes as written."""
    readme = CHECKER.parent.parent / "README.md"
    section = readme.read_text().split("## Figures and traces")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "figures python block missing"
    namespace: dict = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)  # noqa: S102
    records = namespace["records"]
    assert records and all(isinstance(r, dict) for r in records)
    assert namespace["text"].startswith("Figure 6")
    assert namespace["export"].endswith("\n")
    assert namespace["result"].ok, namespace["result"].reason
    assert namespace["problems"] == []
    assert namespace["trace"]["otherData"]["workload"] == "disjoint_halves"


def test_readme_planner_quickstart_runs():
    """The README "Tuning the optimization parameters" snippet executes."""
    readme = CHECKER.parent.parent / "README.md"
    section = readme.read_text().split(
        "## Tuning the optimization parameters")[1]
    section = section.split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks, "planner python block missing"
    namespace: dict = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)  # noqa: S102
    plan = namespace["plan"]
    assert plan.best.seconds > 0
    assert namespace["elapsed"] == plan.best.seconds
    assert plan.stats.full_evals * 3 <= plan.stats.grid_size
