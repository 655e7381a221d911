"""The planning daemon: service engine + Unix-socket frame server.

:class:`PlanService` is the transport-free engine — it owns the sharded
response cache (which also owns every in-flight request key), the worker
pool, the nearest-machine warm-start index, and the service counters, and
exposes ``handle(frame) -> frame``.  :class:`PlanServer` wraps it in a
threaded Unix-domain-socket server speaking the line-delimited JSON
protocol (:mod:`repro.service.protocol`); ``repro serve`` runs one in the
foreground, and tests drive one in-process on a temp-dir socket.

Request flow for ``type: "plan"``:

1. decode + rebuild the machine (drained-node machines are rejected with a
   ``FaultError`` frame up front, mirroring the replanner's contract — the
   planner cannot price traffic through a drained node);
2. one shard-cache claim by request key answers ``source: "hit"`` with the
   stored body, ``source: "coalesced"`` with the in-flight future of an
   identical concurrent request, or reserves the key;
3. the reserving request looks up the nearest *other* machine fingerprint
   that already has a winner for this collective and seeds the planner
   with its translated candidates (``source: "warm"``), else plans cold
   (``source: "cold"``); settling the key stores the outcome in the shard
   and wakes every coalesced waiter, and the winner joins the warm-start
   index.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from ..bench.parallel import TaskPool
from ..errors import FaultError, HicclError
from .jobs import (
    SERVICE_PIPELINES,
    PlanTableTask,
    PlanTask,
    candidate_from_dict,
)
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    machine_digest,
    machine_from_dict,
    request_key,
)
from .shards import (
    DEFAULT_SHARD_BYTES,
    DEFAULT_SHARD_CAPACITY,
    DEFAULT_SHARDS,
    ShardedPlanCache,
)
from .similarity import MachineIndex

#: Environment override for the default socket path.
ENV_SOCKET = "REPRO_SERVICE_SOCKET"

#: How many nearest machines donate warm-start candidates per cold plan.
WARM_NEIGHBORS = 2

#: Longest request frame the daemon reads, line terminator included.  A
#: longer line is answered with a ``ProtocolError`` frame and its connection
#: is closed, so no client can make the daemon buffer an unbounded line.
MAX_FRAME_BYTES = 1 << 20


def default_socket_path() -> Path:
    """Default Unix socket path (honors ``REPRO_SERVICE_SOCKET``)."""
    env = os.environ.get(ENV_SOCKET)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "plan-service.sock"


@dataclass
class ServiceStats:
    """Top-level request counters of one daemon."""

    requests: int = 0
    hits: int = 0
    planned: int = 0
    coalesced: int = 0
    warm_started: int = 0
    errors: int = 0

    def to_dict(self) -> dict:
        """JSON-shaped snapshot."""
        return {
            "requests": self.requests,
            "hits": self.hits,
            "planned": self.planned,
            "coalesced": self.coalesced,
            "warm_started": self.warm_started,
            "errors": self.errors,
        }


def _parse_plan_request(frame: dict) -> tuple[PlanTask | PlanTableTask, str]:
    """Validate a ``plan``/``plan_table`` frame into its task and request key.

    Any malformed field raises :class:`ProtocolError`; a machine with
    drained nodes raises :class:`~repro.errors.FaultError`, mirroring
    :func:`repro.planner.replan.replan`: a drained node carries no traffic,
    so there is no plan to serve — shrink the job onto the survivors
    (:mod:`repro.workloads.elastic`) and ask again.
    """
    kind = frame["type"]
    try:
        machine = machine_from_dict(frame["machine"])
        collective = str(frame["collective"])
        dtype = str(frame.get("dtype", "float32"))
        options = frame.get("options") or {}
        if not isinstance(options, dict):
            raise TypeError(
                f"options must be an object, got {type(options).__name__}")
        max_full = options.get("max_full")
        search = dict(
            machine=machine,
            collective=collective,
            dtype_name=dtype,
            pipelines=tuple(
                int(m) for m in options.get("pipelines", SERVICE_PIPELINES)),
            search_libraries=bool(options.get("search_libraries", False)),
            max_full=None if max_full is None else int(max_full),
        )
        if kind == "plan":
            task = PlanTask(payload_bytes=int(frame["payload_bytes"]),
                            **search)
        else:
            task = PlanTableTask(size_classes=tuple(
                (str(name), int(payload))
                for name, payload in frame["size_classes"]
            ), **search)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {kind} request: {exc}") from exc
    if kind == "plan":
        payload_bytes = task.payload_bytes
    else:
        if not task.size_classes:
            raise ProtocolError("plan_table needs at least one size class")
        # The size classes fold into the key through the options channel,
        # so a table request never collides with a single-plan request.
        payload_bytes = max(payload for _, payload in task.size_classes)
        options = {**options, "kind": "plan_table",
                   "size_classes": [list(sc) for sc in task.size_classes]}
    if machine.faults is not None and machine.faults.drained_nodes:
        raise FaultError(
            f"machine {machine.name!r} has drained node(s) "
            f"{list(machine.faults.drained_nodes)}; plan for the "
            "shrunk survivor machine instead"
        )
    return task, request_key(machine, collective, payload_bytes, dtype,
                             options)


class PlanService:
    """Transport-free planning engine: cache, worker pool, warm-start index."""

    def __init__(
        self,
        jobs: int = 1,
        num_shards: int = DEFAULT_SHARDS,
        shard_capacity: int = DEFAULT_SHARD_CAPACITY,
        shard_bytes: int = DEFAULT_SHARD_BYTES,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        self.cache = ShardedPlanCache(
            num_shards=num_shards,
            capacity=shard_capacity,
            max_bytes=shard_bytes,
        )
        self.pool = TaskPool(jobs=jobs, cache_dir=cache_dir)
        self.stats = ServiceStats()
        self._lock = threading.Lock()
        self._index = MachineIndex()
        # digest -> {collective: winner candidate dict}; feeds warm starts.
        self._winners: dict[str, dict[str, dict]] = {}

    # ------------------------------------------------------------- warm start
    def _warm_donors(self, digest: str, machine, collective) -> tuple:
        """Translated winner candidates from the nearest other machines."""
        donors = []
        with self._lock:
            neighbors = self._index.nearest(
                machine, exclude=digest, k=WARM_NEIGHBORS
            )
            for other_digest, _other, _dist in neighbors:
                winner = self._winners.get(other_digest, {}).get(collective)
                if winner is not None:
                    donors.append(candidate_from_dict(winner))
        return tuple(donors)

    def _record(self, digest: str, machine, collective, outcome: dict) -> None:
        """Register the machine + winning candidate for future warm starts."""
        with self._lock:
            self._index.add(digest, machine)
            self._winners.setdefault(digest, {})[collective] = dict(
                outcome["winner"]
            )

    # --------------------------------------------------------------- handlers
    def handle(self, frame: dict) -> dict:
        """Answer one decoded request frame with a response frame."""
        request_id = frame.get("id")
        try:
            kind = frame.get("type")
            if kind == "ping":
                return {
                    "id": request_id, "status": "ok",
                    "protocol": PROTOCOL_VERSION,
                }
            if kind == "stats":
                with self._lock:
                    service = self.stats.to_dict()
                return {
                    "id": request_id, "status": "ok",
                    "service": service,
                    "cache": self.cache.stats(),
                }
            if kind in ("plan", "plan_table"):
                return self._handle_plan(frame)
            raise ProtocolError(f"unknown request type {kind!r}")
        except HicclError as exc:
            with self._lock:
                self.stats.errors += 1
            return error_frame(request_id, exc)

    def _handle_plan(self, frame: dict) -> dict:
        """Serve one ``plan`` or ``plan_table`` frame (cached + coalesced).

        One shard claim answers the key: a stored body at once, an
        in-flight plan by waiting on its future, and otherwise this request
        plans it on the worker pool (:meth:`_plan`) — a ``plan`` seeds its
        search with the translated winners of the nearest machines already
        planned, a ``plan_table`` runs
        :class:`~repro.service.jobs.PlanTableTask`.
        """
        with self._lock:
            self.stats.requests += 1
        request_id = frame.get("id")
        task, key = _parse_plan_request(frame)
        digest = machine_digest(task.machine)

        began = time.perf_counter()
        source, found = self.cache.claim(digest, key)
        if source == "hit":
            with self._lock:
                self.stats.hits += 1
            return self._respond(request_id, found, "hit", began)
        try:
            if source == "planned":
                outcome = self._plan(digest, key, task)
            else:
                outcome = found.result()
        except HicclError:
            raise
        except Exception as exc:  # pool failures surface as error frames
            raise ProtocolError(f"planning failed: {exc}") from exc

        if source == "coalesced":
            with self._lock:
                self.stats.coalesced += 1
            return self._respond(request_id, outcome, "coalesced", began)
        warm = bool(outcome.get("warm_seeds"))
        with self._lock:
            self.stats.planned += 1
            self.stats.warm_started += warm
        if isinstance(task, PlanTask):
            self._record(digest, task.machine, task.collective, outcome)
        return self._respond(request_id, outcome,
                             "warm" if warm else "cold", began)

    def _plan(self, digest: str, key: str, task) -> dict:
        """Plan a key this request reserved, then settle it in the shard.

        Runs outside every lock.  Whatever fails — the warm-start lookup,
        the submit, or the task itself — fails every coalesced waiter with
        the same exception and retires the key, so the next request for it
        plans afresh.
        """
        try:
            if isinstance(task, PlanTask):
                task = replace(task, warm_donors=self._warm_donors(
                    digest, task.machine, task.collective))
            outcome = self.pool.submit(task).result()
        except BaseException as exc:
            self.cache.settle(digest, key, error=exc)
            raise
        self.cache.settle(digest, key, outcome)
        return outcome

    @staticmethod
    def _respond(request_id, outcome: dict, source: str, began: float) -> dict:
        body = dict(outcome)
        body.update({
            "id": request_id,
            "status": "ok",
            "source": source,
            "seconds": time.perf_counter() - began,
        })
        return body

    def close(self) -> None:
        """Shut the worker pool down."""
        self.pool.shutdown()


class _Handler(socketserver.StreamRequestHandler):
    """Per-connection line loop: one frame in, one frame out."""

    def handle(self) -> None:  # noqa: D102 - socketserver contract
        while True:
            try:
                line = self.rfile.readline(MAX_FRAME_BYTES + 1)
            except (ConnectionError, OSError):
                return
            if not line:
                return
            if len(line) > MAX_FRAME_BYTES:
                # The rest of the line is still unread; resynchronizing on
                # it would misparse its tail as frames, so drop the client.
                error = ProtocolError(
                    f"frame exceeds {MAX_FRAME_BYTES} bytes; closing")
                try:
                    self.wfile.write(encode_frame(error_frame(None, error)))
                except (ConnectionError, OSError):
                    pass
                return
            try:
                frame = decode_frame(line)
            except ProtocolError as exc:
                self.wfile.write(encode_frame(error_frame(None, exc)))
                continue
            if frame.get("type") == "shutdown":
                self.wfile.write(encode_frame(
                    {"id": frame.get("id"), "status": "ok", "stopping": True}
                ))
                self.server.initiate_shutdown()
                return
            response = self.server.service.handle(frame)
            try:
                self.wfile.write(encode_frame(response))
            except (ConnectionError, OSError):
                return


class PlanServer(socketserver.ThreadingUnixStreamServer):
    """Threaded Unix-socket frame server around a :class:`PlanService`.

    Each connection gets its own thread, so N clients block only inside
    the engine's locks (shard lock, service counters) or on their own plan
    future — never on each other's socket I/O.  The listen backlog is
    ``socket.SOMAXCONN`` rather than socketserver's 5, so a fleet burst of
    simultaneous connects queues in the kernel instead of being refused
    while the accept loop is busy or not yet running.  Use as a context
    manager or call :meth:`serve_forever` / :meth:`shutdown` like any
    ``socketserver``; :meth:`initiate_shutdown` is the async variant the
    ``shutdown`` frame uses (calling ``shutdown()`` from a handler thread
    would deadlock).
    """

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = socket.SOMAXCONN

    def __init__(self, socket_path: str | os.PathLike, service: PlanService):
        self.socket_path = Path(socket_path)
        self.service = service
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        super().__init__(str(self.socket_path), _Handler)

    def initiate_shutdown(self) -> None:
        """Stop the serve loop from a handler thread (non-blocking)."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def server_close(self) -> None:
        """Close the listener, remove the socket file, stop the pool."""
        super().server_close()
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        self.service.close()


def socket_alive(socket_path: str | os.PathLike) -> bool:
    """True when something accepts connections on ``socket_path``."""
    path = Path(socket_path)
    if not path.exists():
        return False
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.5)
        probe.connect(str(path))
        return True
    except OSError:
        return False
    finally:
        probe.close()
