"""Client side of the plan service: one socket, frames in and out.

:class:`PlanClient` wraps a connected Unix-domain stream socket in the
line-delimited JSON protocol: ``plan()``/``stats()``/``ping()``/
``shutdown()`` send one frame and block for the matching response line.
Error frames re-raise as the exception class the server named when it is
one of ours (``FaultError`` for drained machines, ``ProtocolError`` for
malformed requests, ...), so service and in-process planning fail
identically from the caller's point of view.

One client is one connection and is *not* thread-safe — the protocol has
no frame interleaving — but clients are cheap; concurrent callers (the
benchmark's closed-loop clients, one per thread) each open their own.
"""

from __future__ import annotations

import itertools
import socket
from pathlib import Path

from .. import errors as _errors
from ..machine.spec import MachineSpec
from .protocol import ProtocolError, decode_frame, encode_frame, machine_to_dict


def _raise_error_frame(frame: dict) -> None:
    name = frame.get("error", "HicclError")
    message = frame.get("message", "plan service error")
    exc_type = getattr(_errors, name, None)
    if exc_type is None or not (
        isinstance(exc_type, type) and issubclass(exc_type, Exception)
    ):
        exc_type = ProtocolError if name == "ProtocolError" else _errors.HicclError
    raise exc_type(message)


class PlanClient:
    """One connection to a running plan daemon."""

    def __init__(self, socket_path: str | Path, timeout: float | None = 60.0):
        self.socket_path = Path(socket_path)
        self._ids = itertools.count(1)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(str(self.socket_path))
        except OSError:
            self._sock.close()
            raise
        self._reader = self._sock.makefile("rb")

    # ------------------------------------------------------------------ frames
    def call(self, frame: dict) -> dict:
        """Send one frame and block for its response (error frames raise)."""
        frame = dict(frame)
        frame.setdefault("id", next(self._ids))
        self._sock.sendall(encode_frame(frame))
        line = self._reader.readline()
        if not line:
            raise ProtocolError("plan service closed the connection")
        response = decode_frame(line)
        if response.get("status") == "error":
            _raise_error_frame(response)
        return response

    def plan(
        self,
        machine: MachineSpec,
        collective: str,
        payload_bytes: int,
        dtype: str = "float32",
        options: dict | None = None,
    ) -> dict:
        """Request a plan for one collective on one described machine."""
        frame: dict = {
            "type": "plan",
            "machine": machine_to_dict(machine),
            "collective": collective,
            "payload_bytes": int(payload_bytes),
            "dtype": dtype,
        }
        if options:
            frame["options"] = options
        return self.call(frame)

    def plan_table(
        self,
        machine: MachineSpec,
        collective: str,
        size_classes,
        dtype: str = "float32",
        options: dict | None = None,
    ) -> dict:
        """Request a size-classed plan table for one collective.

        ``size_classes`` is an iterable of ``(name, payload_bytes)`` pairs
        (or :class:`~repro.planner.SizeClass` instances).  The response's
        ``table`` document rebuilds into a
        :class:`~repro.planner.PlanTable` via
        :func:`repro.service.jobs.table_from_dict`.
        """
        frame: dict = {
            "type": "plan_table",
            "machine": machine_to_dict(machine),
            "collective": collective,
            "size_classes": [
                [sc.name, sc.payload_bytes] if hasattr(sc, "payload_bytes")
                else [str(sc[0]), int(sc[1])]
                for sc in size_classes
            ],
            "dtype": dtype,
        }
        if options:
            frame["options"] = options
        return self.call(frame)

    def stats(self) -> dict:
        """Service counters and per-shard cache counters (with in-flight keys)."""
        return self.call({"type": "stats"})

    def ping(self) -> dict:
        """Liveness probe; the response carries the protocol version."""
        return self.call({"type": "ping"})

    def shutdown(self) -> dict:
        """Ask the daemon to stop its serve loop."""
        return self.call({"type": "shutdown"})

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "PlanClient":
        """Context-manager entry: the connected client."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the connection."""
        self.close()
