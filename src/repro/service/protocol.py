"""Line-delimited JSON protocol of the plan service.

One request or response per line, each a single JSON object terminated by
``"\\n"`` — trivially framable over any stream socket and greppable in a
capture.  The protocol is deliberately value-only: a request carries the
*full machine description* (not a name the server must resolve), so the
daemon can serve machines its own registry has never heard of, and the
request key is built on the same :func:`repro.core.plancache.machine_fingerprint`
the plan cache uses — two requests that would lower identically share one
cache entry by construction.

Request types (the ``type`` field):

``plan``
    ``{"id", "type": "plan", "collective", "machine": {...},
    "payload_bytes", "dtype", "options": {...}}`` — plan one named
    collective on the described machine.  ``options`` tunes the search
    (``pipelines``, ``search_libraries``, ``max_full``) and is part of the
    request key.
``plan_table``
    ``{"id", "type": "plan_table", "collective", "machine": {...},
    "size_classes": [["small", 65536], ...], "dtype", "options": {...}}``
    — plan one winner per payload size class
    (:func:`repro.planner.plan_table`): a baseline search at the largest
    class, warm-started searches at the smaller ones.  The response's
    ``table`` document rebuilds client-side via
    :func:`repro.service.jobs.table_from_dict`.  Cached and coalesced
    exactly like ``plan`` requests, with the size classes folded into the
    request key so table and single-plan requests never collide.
``stats``
    Snapshot of the service counters and per-shard cache statistics.
``ping``
    Liveness probe; echoes the protocol version.
``shutdown``
    Ask the daemon to stop accepting connections and exit its serve loop.

Responses always echo the request ``id`` and carry ``status`` (``ok`` |
``error``).  Error frames name the exception class (e.g. ``FaultError``
for a drained-node machine, mirroring :func:`repro.planner.replan.replan`)
plus a human-readable message, so clients can re-raise faithfully.
"""

from __future__ import annotations

import hashlib
import json

from ..errors import HicclError
from ..core.plancache import machine_fingerprint
from ..machine.faults import FaultSet
from ..machine.nic import Binding
from ..machine.spec import LevelSpec, MachineSpec

#: Bumped on any wire-visible change; ``ping`` echoes it so clients can
#: detect a mismatched daemon before sending work.
PROTOCOL_VERSION = 1


class ProtocolError(HicclError):
    """A frame that cannot be decoded or fails structural validation."""


def encode_frame(obj: dict) -> bytes:
    """One wire frame: compact, key-sorted JSON plus the line terminator."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes | str) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on malformed input."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty frame")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def error_frame(request_id, exc: BaseException) -> dict:
    """Error response carrying the exception class name and message."""
    return {
        "id": request_id,
        "status": "error",
        "error": type(exc).__name__,
        "message": str(exc),
    }


# --------------------------------------------------------- machine transport
def machine_to_dict(machine: MachineSpec) -> dict:
    """JSON-serializable description of a machine, faults included.

    The inverse of :func:`machine_from_dict`; round-tripping preserves the
    machine fingerprint exactly (asserted by the protocol tests), which is
    what makes the service's cache keys agree with in-process ones.
    """
    doc: dict = {
        "name": machine.name,
        "nodes": machine.nodes,
        "levels": [
            {
                "name": lv.name,
                "extent": lv.extent,
                "bandwidth": lv.bandwidth,
                "latency": lv.latency,
            }
            for lv in machine.levels
        ],
        "nic_count": machine.nic_count,
        "nic_bandwidth": machine.nic_bandwidth,
        "nic_latency": machine.nic_latency,
        "binding": machine.binding.value,
        "copy_bandwidth": machine.copy_bandwidth,
        "copy_latency": machine.copy_latency,
        "reduce_bandwidth": machine.reduce_bandwidth,
        "kernel_latency": machine.kernel_latency,
        "gpu_injection_bandwidth": machine.gpu_injection_bandwidth,
    }
    if machine.faults is not None:
        f = machine.faults
        doc["faults"] = {
            "down_nics": [list(e) for e in f.down_nics],
            "down_links": [list(e) for e in f.down_links],
            "drained_nodes": list(f.drained_nodes),
            "nic_derate": [list(e) for e in f.nic_derate],
            "link_derate": [list(e) for e in f.link_derate],
            "stragglers": [list(e) for e in f.stragglers],
        }
    return doc


def machine_from_dict(doc: dict) -> MachineSpec:
    """Rebuild a :class:`MachineSpec` from :func:`machine_to_dict` output.

    Faults are reattached through ``FaultSet.apply``, so every declared
    index is re-validated against the described shape — a corrupt frame
    cannot smuggle an out-of-range fault past the server.
    """
    try:
        spec = MachineSpec(
            name=str(doc["name"]),
            nodes=int(doc["nodes"]),
            levels=tuple(
                LevelSpec(
                    name=str(lv["name"]),
                    extent=int(lv["extent"]),
                    bandwidth=float(lv["bandwidth"]),
                    latency=float(lv["latency"]),
                )
                for lv in doc["levels"]
            ),
            nic_count=int(doc["nic_count"]),
            nic_bandwidth=float(doc["nic_bandwidth"]),
            nic_latency=float(doc["nic_latency"]),
            binding=Binding(doc["binding"]),
            copy_bandwidth=float(doc["copy_bandwidth"]),
            copy_latency=float(doc["copy_latency"]),
            reduce_bandwidth=float(doc["reduce_bandwidth"]),
            kernel_latency=float(doc["kernel_latency"]),
            gpu_injection_bandwidth=(
                None if doc.get("gpu_injection_bandwidth") is None
                else float(doc["gpu_injection_bandwidth"])
            ),
        )
        faults = doc.get("faults")
        if not faults:
            return spec
        if not isinstance(faults, dict):
            raise TypeError(
                f"faults must be an object, got {type(faults).__name__}")
        fault_set = FaultSet(
            down_nics=tuple(tuple(e) for e in faults.get("down_nics", ())),
            down_links=tuple(tuple(e) for e in faults.get("down_links", ())),
            drained_nodes=tuple(faults.get("drained_nodes", ())),
            nic_derate=tuple(tuple(e) for e in faults.get("nic_derate", ())),
            link_derate=tuple(tuple(e) for e in faults.get("link_derate", ())),
            stragglers=tuple(tuple(e) for e in faults.get("stragglers", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed machine description: {exc}") from exc
    return fault_set.apply(spec)


# ------------------------------------------------------------------- keying
def machine_digest(machine: MachineSpec) -> str:
    """SHA-256 hex digest of the machine fingerprint (the sharding key)."""
    return hashlib.sha256(
        repr(machine_fingerprint(machine)).encode()
    ).hexdigest()


def _canon(value):
    """Canonical hashable form of a JSON value (lists become tuples)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def request_key(
    machine: MachineSpec,
    collective: str,
    payload_bytes: int,
    dtype: str = "float32",
    options: dict | None = None,
) -> str:
    """Content address of one plan request (coalescing + shard-cache key).

    Built on the same machine fingerprint the plan cache keys on, plus the
    planning inputs; two requests with equal keys are guaranteed to produce
    identical plans, which is what makes collapsing them onto one planning
    task sound.  JSON-shaped ``options`` are canonicalized (lists and
    tuples key identically), so a key computed client-side from Python
    tuples matches the server's recomputation from the decoded frame.
    """
    parts = (
        ("machine", machine_fingerprint(machine)),
        ("collective", str(collective)),
        ("payload_bytes", int(payload_bytes)),
        ("dtype", str(dtype)),
        ("options", _canon(options or {})),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()
