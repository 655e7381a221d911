"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _parse_size, build_parser, main


class TestParseSize:
    def test_plain_bytes(self):
        assert _parse_size("4096") == 4096

    def test_suffixes(self):
        assert _parse_size("1K") == 1024
        assert _parse_size("64M") == 64 << 20
        assert _parse_size("2G") == 2 << 30

    def test_fractional(self):
        assert _parse_size("0.5G") == 1 << 29

    def test_lowercase(self):
        assert _parse_size("16m") == 16 << 20


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "broadcast"])
        assert args.system == "perlmutter"
        assert args.nodes == 4
        assert args.topology == "auto"


class TestCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("delta", "perlmutter", "frontier", "aurora"):
            assert name in out

    def test_run(self, capsys):
        rc = main(["run", "broadcast", "--system", "perlmutter",
                   "--payload", "16M", "--topology", "tree", "--pipeline", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GB/s" in out and "pipeline(4)" in out

    def test_compare(self, capsys):
        rc = main(["compare", "broadcast", "--system", "delta",
                   "--payload", "16M"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mpi" in out and "hiccl" in out and "bounds:" in out

    def test_lower_dump(self, capsys):
        rc = main(["lower", "all_reduce", "--system", "perlmutter",
                   "--nodes", "2", "--payload", "8M", "--dump"])
        assert rc == 0
        out = capsys.readouterr().out
        for pass_name in ("expand-logic", "hierarchy", "pipelining",
                          "striping", "ring-tree", "channel-binding"):
            assert pass_name in out
        assert "stage(s)" in out and "scratch high-water" in out

    def test_lower_with_optimization_passes(self, capsys):
        rc = main(["lower", "broadcast", "--system", "delta", "--nodes", "2",
                   "--payload", "1M", "--pipeline", "8", "--dump",
                   "--fuse", "--dce"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuse-contiguous" in out and "dead-copy-elim" in out

    def test_tune_staged(self, capsys):
        rc = main(["tune", "broadcast", "--system", "perlmutter",
                   "--nodes", "2", "--payload", "8M", "--top", "3",
                   "--pipelines", "1,8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planning broadcast" in out and "strategy: staged" in out
        assert "pruned analytically" in out
        assert "full-payload evals" in out

    def test_tune_grid_strategy(self, capsys):
        rc = main(["tune", "broadcast", "--system", "perlmutter",
                   "--nodes", "2", "--payload", "4M", "--strategy", "grid",
                   "--pipelines", "1,4", "--no-library-search"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy: grid" in out and "best:" in out

    def test_tune_budget_caps_full_evals(self, capsys):
        rc = main(["tune", "broadcast", "--system", "perlmutter",
                   "--nodes", "2", "--payload", "4M", "--budget", "3",
                   "--pipelines", "1,8"])
        assert rc == 0
        assert "3 full-payload evals" in capsys.readouterr().out

    def test_tune_workload_rejects_collective_flags(self, capsys):
        rc = main(["tune", "disjoint_halves", "--workload",
                   "--system", "perlmutter", "--nodes", "2",
                   "--jobs", "4", "--strategy", "grid"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "--jobs" in out and "--strategy" in out
        assert "not applicable with --workload" in out

    def test_tune_rounds_requires_workload(self, capsys):
        rc = main(["tune", "broadcast", "--system", "perlmutter",
                   "--nodes", "2", "--rounds", "3"])
        assert rc == 2
        assert "--rounds only applies" in capsys.readouterr().out

    def test_tune_workload_mode(self, capsys):
        rc = main(["tune", "disjoint_halves", "--workload",
                   "--system", "perlmutter", "--nodes", "2",
                   "--payload", "2M", "--rounds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workload-aware tuning" in out
        assert "isolated-tuned makespan" in out and "contended-tuned" in out

    def test_bounds(self, capsys):
        rc = main(["bounds", "--system", "aurora"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "broadcast" in out and "achievable" in out

    def test_gantt(self, capsys):
        rc = main(["gantt", "broadcast", "--system", "perlmutter",
                   "--payload", "4M", "--pipeline", "4", "--width", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "digits = stage" in out and "makespan" in out

    def test_bench_serial(self, capsys):
        rc = main(["bench", "--system", "perlmutter", "--nodes", "2",
                   "--payload", "4M", "--collectives", "broadcast",
                   "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "hiccl-striped" in out
        assert "plan cache:" in out

    def test_bench_parallel_workers(self, capsys):
        rc = main(["bench", "--system", "perlmutter", "--nodes", "2",
                   "--payload", "4M", "--collectives", "broadcast",
                   "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "jobs=2" in out

    def test_workloads_list(self, capsys):
        assert main(["workloads", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fsdp_step", "moe_layer", "llm3d_step",
                     "contention_mix", "disjoint_halves"):
            assert name in out

    def test_workloads_run_named_scenarios(self, capsys):
        rc = main(["workloads", "contention_mix", "disjoint_halves",
                   "--system", "perlmutter", "--nodes", "2",
                   "--payload", "1M"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Workload scenarios (perlmutter)" in out
        assert "contention_mix" in out and "disjoint_halves" in out
        assert "slowdown" in out and "busiest resources" in out

    def test_workloads_unknown_scenario_errors(self):
        from repro.errors import CompositionError

        with pytest.raises(CompositionError, match="unknown scenario"):
            main(["workloads", "not_a_scenario", "--nodes", "2"])

    def test_cache_stats(self, capsys):
        rc = main(["cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan cache" in out and "disk layer" in out

    def test_cache_counts_loadable_plans_and_stale_files(
            self, tmp_path, monkeypatch, capsys):
        """Both modes count only current-schema plans, the files a lookup
        can load; other schemas are stale files that ``--clear`` removes."""
        import json

        from repro.core import plancache

        current = f"v{plancache.SCHEMA_VERSION}-a.npz"
        for name in (current, "v1-b.npz", "v1-c.pkl"):
            (tmp_path / name).write_bytes(b"x" * 10)
        monkeypatch.setenv(plancache.ENV_CACHE_DIR, str(tmp_path))
        plancache.configure(disk_dir=None)
        try:
            assert main(["cache"]) == 0
            out = capsys.readouterr().out
            assert "1 persisted plan(s)" in out
            assert "2 stale file(s)" in out
            assert main(["cache", "--json"]) == 0
            disk = json.loads(capsys.readouterr().out)["disk"]
            assert (disk["entries"], disk["bytes"], disk["stale"]) == (1, 10, 2)
            assert main(["cache", "--clear"]) == 0
            assert "3 persisted file(s) removed" in capsys.readouterr().out
            assert list(tmp_path.iterdir()) == []
        finally:
            plancache.reset()

    def test_cache_json_clear_deletes_and_reports(
            self, tmp_path, monkeypatch, capsys):
        """``--json --clear`` clears like the text mode and reports how
        many files went; the counts describe the cache before the clear."""
        import json

        from repro.core import plancache

        for name in ("v2-a.npz", "v1-b.pkl"):
            (tmp_path / name).write_bytes(b"x" * 10)
        monkeypatch.setenv(plancache.ENV_CACHE_DIR, str(tmp_path))
        plancache.configure(disk_dir=None)
        try:
            assert main(["cache", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["cleared"] == 0
            assert len(list(tmp_path.iterdir())) == 2
            assert main(["cache", "--json", "--clear"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["cleared"] == 2
            assert doc["disk"]["entries"] + doc["disk"]["stale"] == 2
            assert list(tmp_path.iterdir()) == []
        finally:
            plancache.reset()

    def test_unknown_system_errors(self):
        with pytest.raises(KeyError):
            main(["bounds", "--system", "summit"])

    def test_machines_lists_aggregates(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "Aggregate full systems" in out
        assert "9408 nodes" in out and "10624 nodes" in out

    def test_sim_collective_event(self, capsys):
        rc = main(["sim", "broadcast", "--system", "perlmutter",
                   "--nodes", "2", "--payload", "4M", "--engine", "event"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ops, engine requested 'event', ran 'event'" in out
        assert "makespan" in out and "simulator wall" in out

    def test_sim_contended_collective_falls_back(self, capsys):
        rc = main(["sim", "all_reduce", "--system", "perlmutter",
                   "--nodes", "2", "--payload", "4M", "--engine", "level"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine requested 'level', ran 'event'" in out

    def test_sim_pipeline_runs_levelized(self, capsys):
        rc = main(["sim", "pipeline", "--system", "frontier", "--nodes", "8",
                   "--payload", "1M", "--engine", "level",
                   "--microbatches", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine requested 'level', ran 'level'" in out

    def test_sim_engine_both_prints_comparison(self, capsys):
        rc = main(["sim", "pipeline", "--system", "frontier", "--nodes", "4",
                   "--payload", "1M", "--engine", "both",
                   "--microbatches", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "identical" in out and "True" in out

    def test_sim_auto_engages_level_on_aggregate_system(self, capsys):
        rc = main(["sim", "pipeline", "--system", "aurora-full",
                   "--nodes", "6", "--payload", "256K", "--engine", "auto"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aurora" in out and "ran 'level'" in out
