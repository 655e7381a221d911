"""End-to-end plan service: socket serving, determinism, faults, stats."""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import Future

import pytest

from repro.errors import FaultError, HicclError
from repro.machine.faults import FaultSet
from repro.machine.machines import by_name
from repro.service.client import PlanClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    machine_to_dict,
)
from repro.service.server import (
    MAX_FRAME_BYTES,
    PlanServer,
    PlanService,
    socket_alive,
)
from repro.service.traffic import synthetic_traffic, traffic_universe

PAYLOAD = 1 << 22

#: A small deterministic stream over both committed paper systems.
STREAM = synthetic_traffic(
    seed=11,
    n_requests=10,
    universe=traffic_universe(
        systems=("delta", "perlmutter"),
        nodes=(2,),
        fault_seeds=(None,),
        collectives=("all_reduce", "all_gather"),
        payloads=(PAYLOAD,),
    ),
    zipf_a=1.5,
)


@pytest.fixture()
def fresh_cache():
    """Memory-only plan cache so no state leaks between tests."""
    from repro.core import plancache

    plancache.configure(disk_dir=None)
    yield
    plancache.reset()


@pytest.fixture()
def service(fresh_cache):
    svc = PlanService(jobs=1)
    yield svc
    svc.close()


@pytest.fixture()
def server(tmp_path, fresh_cache):
    """A live socket server plus a connected client factory."""
    socket_path = tmp_path / "svc.sock"
    svc = PlanService(jobs=1)
    srv = PlanServer(socket_path, svc)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield socket_path, svc
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


def _replay(service: PlanService, stream) -> list[dict]:
    responses = []
    for i, req in enumerate(stream):
        from repro.service.protocol import machine_to_dict

        responses.append(service.handle({
            "id": i, "type": "plan",
            "machine": machine_to_dict(req.machine()),
            "collective": req.collective,
            "payload_bytes": req.payload_bytes,
        }))
    return responses


def test_seeded_stream_is_deterministic_across_fresh_services(fresh_cache):
    """Two fresh services replaying the same seeded stream agree exactly."""
    assert {r.system for r in STREAM} == {"delta", "perlmutter"}
    first_svc = PlanService(jobs=1)
    try:
        first = _replay(first_svc, STREAM)
    finally:
        first_svc.close()
    second_svc = PlanService(jobs=1)
    try:
        second = _replay(second_svc, STREAM)
    finally:
        second_svc.close()
    for a, b in zip(first, second):
        assert a["status"] == b["status"] == "ok"
        assert a["winner"] == b["winner"]
        assert a["plan_seconds"] == b["plan_seconds"]
        assert a["source"] == b["source"]


def test_duplicate_request_hits_cache(service):
    [first, second] = _replay(service, [STREAM[0], STREAM[0]])
    assert first["source"] in ("cold", "warm")
    assert second["source"] == "hit"
    assert second["winner"] == first["winner"]
    assert service.stats.planned == 1
    assert service.stats.hits == 1


def test_warm_start_engages_across_similar_machines(service):
    """Planning delta:3 after delta:4 warm-starts from the recorded winner.

    The pair matters: the donor's translated winner must not coincide with
    a candidate the staged search seeds anyway (then ``warm_seeds`` is
    rightly 0 — the seed added no new information).  delta 4 -> 3 is one of
    the committed benchmark pairs where the seed is genuinely additional.
    """
    from repro.service.protocol import machine_to_dict

    def plan(nodes):
        return service.handle({
            "id": nodes, "type": "plan",
            "machine": machine_to_dict(by_name("delta", nodes=nodes)),
            "collective": "all_reduce",
            "payload_bytes": PAYLOAD,
        })

    donor = plan(4)
    target = plan(3)
    assert donor["source"] == "cold"
    assert target["source"] == "warm"
    assert target["warm_seeds"] >= 1
    assert service.stats.warm_started == 1


def test_drained_machine_rejected_with_fault_error(server):
    socket_path, _svc = server
    machine = by_name("delta", nodes=4)
    drained = FaultSet(drained_nodes=(1,)).apply(machine)
    with PlanClient(socket_path) as client:
        with pytest.raises(FaultError, match="drained"):
            client.plan(drained, "all_reduce", PAYLOAD)
        # The connection survives the error frame and still serves.
        assert client.ping()["protocol"] == PROTOCOL_VERSION


def test_server_round_trip_and_stats(server):
    socket_path, svc = server
    machine = by_name("perlmutter", nodes=2)
    with PlanClient(socket_path) as client:
        first = client.plan(machine, "all_reduce", PAYLOAD)
        assert first["status"] == "ok"
        assert first["source"] == "cold"
        assert first["winner"]["hierarchy"]
        second = client.plan(machine, "all_reduce", PAYLOAD)
        assert second["source"] == "hit"
        assert second["winner"] == first["winner"]
        stats = client.stats()
        assert stats["service"]["requests"] == 2
        assert stats["service"]["planned"] == 1
        assert stats["service"]["hits"] == 1
        assert stats["cache"]["total"]["entries"] == 1
        assert stats["cache"]["total"]["inflight"] == 0
        assert len(stats["cache"]["shards"]) == svc.cache.num_shards
        assert set(stats) == {"id", "status", "service", "cache"}


def test_unknown_request_type_is_error_frame(server):
    socket_path, _svc = server
    with PlanClient(socket_path) as client:
        with pytest.raises(HicclError, match="unknown request type"):
            client.call({"type": "nonsense"})


def test_malformed_plan_request_is_error_frame(server):
    socket_path, _svc = server
    with PlanClient(socket_path) as client:
        with pytest.raises(HicclError, match="malformed"):
            client.call({"type": "plan", "collective": "all_reduce"})


def _frame(kind: str, **fields) -> dict:
    """A well-formed ``plan``/``plan_table`` frame with ``fields`` replaced."""
    return {
        "id": 7, "type": kind,
        "machine": machine_to_dict(by_name("delta", nodes=2)),
        "collective": "all_reduce",
        "payload_bytes": PAYLOAD,
        "size_classes": [["small", PAYLOAD]],
        **fields,
    }


#: Malformed fields that once escaped ``handle`` as bare Python errors.
MALFORMED = {
    "faults-not-object": {"machine": {
        **machine_to_dict(by_name("delta", nodes=2)), "faults": [1, 2]}},
    "options-not-object": {"options": [1]},
    "pipelines-not-list": {"options": {"pipelines": 4}},
}


@pytest.mark.parametrize("kind", ["plan", "plan_table"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_is_protocol_error_frame(service, kind, case):
    response = service.handle(_frame(kind, **MALFORMED[case]))
    assert response["id"] == 7
    assert response["status"] == "error"
    assert response["error"] == "ProtocolError"
    assert service.stats.errors == 1
    assert service.stats.planned == 0
    assert service.cache.stats()["total"]["lookups"] == 0


def test_malformed_requests_keep_the_connection(server):
    socket_path, svc = server
    with PlanClient(socket_path) as client:
        for kind in ("plan", "plan_table"):
            for fields in MALFORMED.values():
                with pytest.raises(ProtocolError):
                    client.call(_frame(kind, **fields))
        assert client.ping()["protocol"] == PROTOCOL_VERSION
    assert svc.stats.errors == 2 * len(MALFORMED)


def test_oversized_frame_is_rejected_and_connection_closed(server):
    """A line past MAX_FRAME_BYTES gets a ProtocolError frame, then EOF."""
    socket_path, svc = server
    pad = b"x" * MAX_FRAME_BYTES
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(30)
        raw.connect(str(socket_path))
        try:
            raw.sendall(b'{"type": "plan", "pad": "' + pad + b'"}\n')
        except (BrokenPipeError, ConnectionResetError):
            pass  # the daemon may close before the tail is written
        with raw.makefile("rb") as reader:
            response = decode_frame(reader.readline())
            try:
                rest = reader.read()
            except ConnectionResetError:
                rest = b""  # closed with the frame's tail still unread
    assert response["status"] == "error"
    assert response["error"] == "ProtocolError"
    assert str(MAX_FRAME_BYTES) in response["message"]
    assert rest == b""  # no further frames: the connection was closed
    # The frame never reached the engine (a plan frame would count).
    assert svc.stats.requests == svc.stats.errors == 0
    with PlanClient(socket_path) as client:
        assert client.ping()["protocol"] == PROTOCOL_VERSION


def test_concurrent_clients_share_one_planning_pass(server):
    """Eight clients, one key: exactly one plan, everyone gets the winner."""
    socket_path, svc = server
    machine = by_name("delta", nodes=2)
    barrier = threading.Barrier(8)
    winners, failures = [], []

    def client_thread():
        try:
            with PlanClient(socket_path, timeout=120.0) as client:
                barrier.wait(timeout=30)
                response = client.plan(machine, "all_gather", PAYLOAD)
                winners.append(response["winner"])
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=client_thread) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not failures
    assert len(winners) == 8
    assert all(w == winners[0] for w in winners)
    # The plan was synthesized exactly once: every request either planned
    # it, coalesced onto it, or hit the cache.
    assert svc.stats.planned == 1
    assert svc.stats.coalesced + svc.stats.hits == 7


def test_shutdown_frame_stops_server(tmp_path, fresh_cache):
    socket_path = tmp_path / "svc.sock"
    svc = PlanService(jobs=1)
    srv = PlanServer(socket_path, svc)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    assert socket_alive(socket_path)
    with PlanClient(socket_path) as client:
        assert client.shutdown()["status"] == "ok"
    thread.join(timeout=10)
    assert not thread.is_alive()
    srv.server_close()
    assert not socket_alive(socket_path)


def _wait_for(predicate, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.005)


def _lookups(service) -> int:
    return service.cache.stats()["total"]["lookups"]


def _handle_in_threads(service, frames) -> tuple[list, dict]:
    """Start one ``service.handle`` thread per frame; responses by frame id."""
    responses: dict = {}

    def request(frame):
        responses[frame["id"]] = service.handle(frame)

    threads = [threading.Thread(target=request, args=(f,)) for f in frames]
    for t in threads:
        t.start()
    return threads, responses


def _join(threads) -> None:
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()


def test_duplicates_in_flight_run_one_task(service):
    """N concurrent duplicates: one pool task, N-1 coalesced, one winner."""
    n = 6
    gate = threading.Event()
    tasks = []
    submit = service.pool.submit

    def gated_submit(task):
        tasks.append(task)
        gate.wait(timeout=120)
        return submit(task)

    service.pool.submit = gated_submit
    threads, responses = _handle_in_threads(
        service, [_frame("plan", id=i) for i in range(n)])
    try:
        # The creator is held inside submit, outside every lock, so each
        # duplicate reaches the shard and joins the reserved key.
        _wait_for(lambda: _lookups(service) == n)
        assert len(tasks) == 1
        assert service.cache.stats()["total"]["inflight"] == 1
    finally:
        gate.set()
        _join(threads)

    sources = sorted(r["source"] for r in responses.values())
    assert sources == ["coalesced"] * (n - 1) + ["cold"]
    assert len({str(r["winner"]) for r in responses.values()}) == 1
    assert len(tasks) == 1
    assert (service.stats.planned, service.stats.coalesced) == (1, n - 1)
    assert service.cache.stats()["total"]["inflight"] == 0


class _HeldFuture(Future):
    """Mirrors a pool future, but ``result()`` waits for ``release``.

    It resolves (running every done-callback) as soon as the plan
    finishes, then holds the thread that reads it: the window between a
    plan finishing and its creator resuming.
    """

    def __init__(self, inner: Future, release: threading.Event,
                 finished: threading.Event) -> None:
        super().__init__()
        self._release = release
        self._finished = finished
        inner.add_done_callback(self._mirror)

    def _mirror(self, inner: Future) -> None:
        error = inner.exception()
        if error is None:
            self.set_result(inner.result())
        else:
            self.set_exception(error)
        self._finished.set()

    def result(self, timeout=None):
        self._release.wait(timeout=120)
        return super().result(timeout)


def test_duplicate_after_plan_finishes_does_not_replan(service):
    """A duplicate landing after the plan finished but before its creator
    resumed joins the plan instead of running a second planning pass."""
    release, finished = threading.Event(), threading.Event()
    submit = service.pool.submit
    service.pool.submit = lambda task: _HeldFuture(submit(task), release,
                                                   finished)
    threads, responses = _handle_in_threads(service,
                                            [_frame("plan", id="creator")])
    try:
        assert finished.wait(timeout=120)  # planned; the creator is held
        duplicate, more = _handle_in_threads(
            service, [_frame("plan", id="duplicate")])
        threads += duplicate
        _wait_for(lambda: _lookups(service) == 2)
    finally:
        release.set()
        _join(threads)

    assert service.stats.planned == 1
    assert responses["creator"]["source"] == "cold"
    assert more["duplicate"]["source"] == "coalesced"
    assert more["duplicate"]["winner"] == responses["creator"]["winner"]
    assert service.handle(_frame("plan"))["source"] == "hit"


def test_failed_plan_fails_every_waiter_and_retires_key(service):
    n = 3
    gate = threading.Event()
    submit = service.pool.submit

    def failing_submit(task):
        gate.wait(timeout=120)
        raise RuntimeError("boom")

    service.pool.submit = failing_submit
    threads, responses = _handle_in_threads(
        service, [_frame("plan", id=i) for i in range(n)])
    try:
        _wait_for(lambda: _lookups(service) == n)
    finally:
        gate.set()
        _join(threads)

    for response in responses.values():
        assert response["status"] == "error"
        assert response["error"] == "ProtocolError"
        assert "boom" in response["message"]
    assert service.stats.errors == n
    assert service.stats.planned == service.stats.coalesced == 0
    assert service.cache.stats()["total"]["inflight"] == 0
    # The key was retired with nothing stored: the next request plans.
    service.pool.submit = submit
    assert service.handle(_frame("plan"))["source"] == "cold"


def test_burst_of_connections_before_serve_forever(tmp_path, fresh_cache):
    """32 simultaneous connects all queue before the accept loop runs."""
    socket_path = tmp_path / "svc.sock"
    srv = PlanServer(socket_path, PlanService(jobs=1))
    conns, connected = [], 0
    try:
        for _ in range(32):
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conns.append(conn)
            conn.setblocking(False)
            try:
                conn.connect(str(socket_path))
            except (BlockingIOError, ConnectionRefusedError):
                continue  # the listen backlog is full
            connected += 1
    finally:
        for conn in conns:
            conn.close()
        srv.server_close()
    assert connected == 32
