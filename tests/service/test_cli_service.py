"""CLI surface of the plan service: serve, request, cache --socket/--json."""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.service.server import PlanServer, PlanService


@pytest.fixture(autouse=True)
def fresh_cache():
    """Memory-only plan cache so CLI runs stay hermetic."""
    from repro.core import plancache

    plancache.configure(disk_dir=None)
    yield
    plancache.reset()


@pytest.fixture()
def live_socket(tmp_path):
    """A served socket path backed by a single-job service."""
    socket_path = tmp_path / "svc.sock"
    srv = PlanServer(socket_path, PlanService(jobs=1))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield str(socket_path)
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.jobs == 1
        assert args.shards >= 1

    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--jobs", "2", "--shards", "8", "--shard-bytes", "4M",
        ])
        assert args.jobs == 2
        assert args.shards == 8
        assert args.shard_bytes == "4M"

    @pytest.mark.parametrize("flag", ["--no-warm-start", "--no-admission"])
    def test_serve_has_no_feature_switches(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag])

    def test_request_defaults(self):
        args = build_parser().parse_args(["request", "all_reduce"])
        assert args.system == "perlmutter"
        assert args.nodes == 4

    def test_cache_flags(self):
        args = build_parser().parse_args(["cache", "--json"])
        assert args.json is True
        assert args.socket is None


class TestRequest:
    def test_request_plans_then_hits(self, live_socket, capsys):
        argv = ["request", "all_reduce", "--system", "delta", "--nodes", "2",
                "--payload", "4M", "--socket", live_socket]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cold" in first or "warm" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "hit" in second

    def test_request_json_output(self, live_socket, capsys):
        rc = main(["request", "all_gather", "--system", "delta",
                   "--nodes", "2", "--payload", "4M",
                   "--socket", live_socket, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"
        assert doc["winner"]["hierarchy"]
        assert doc["plan_seconds"] > 0

    def test_request_dead_socket_fails(self, tmp_path, capsys):
        rc = main(["request", "all_reduce", "--socket",
                   str(tmp_path / "nothing.sock")])
        assert rc != 0


class TestCache:
    def test_cache_json_local(self, capsys):
        assert main(["cache", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "in_process" in doc
        assert "disk" in doc

    def test_cache_socket_shows_shards(self, live_socket, capsys):
        main(["request", "all_reduce", "--system", "delta", "--nodes", "2",
              "--payload", "4M", "--socket", live_socket])
        capsys.readouterr()
        assert main(["cache", "--socket", live_socket]) == 0
        out = capsys.readouterr().out
        assert "shard" in out
        assert "inflight=0" in out
        assert main(["cache", "--socket", live_socket, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"service", "cache"}
        assert doc["service"]["requests"] >= 1
        assert len(doc["cache"]["shards"]) >= 1
        assert doc["cache"]["total"]["inflight"] == 0


class TestShutdown:
    def test_request_shutdown_stops_server(self, tmp_path, capsys):
        from repro.service.server import socket_alive

        socket_path = tmp_path / "svc.sock"
        srv = PlanServer(socket_path, PlanService(jobs=1))
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert socket_alive(socket_path)
        assert main(["request", "--shutdown",
                     "--socket", str(socket_path)]) == 0
        thread.join(timeout=10)
        assert not thread.is_alive()
        srv.server_close()
