"""Measurement harness implementing the paper's protocol (Section 6.2).

"We measure the peak throughput of each collective function on each system.
We run the end-to-end collective function in multiple rounds: 5 warmup
rounds and 10 measurement rounds. [...] We run collectives with buffer sizes
of pd bytes.  If a collective requires t seconds to execute, the throughput
is dp/t (GB/s).  We vary d across large message sizes until the throughput
saturates."

Throughput runs use timing-only communicators (simulated timing is
independent of buffer contents), so GB-scale payloads cost no memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.ccl_like import ccl_collective
from ..baselines.direct import direct_collective
from ..baselines.mpi_like import mpi_collective
from ..baselines.oneccl_like import ONECCL_OFFERED, oneccl_collective
from ..core.communicator import Communicator
from ..core.composition import compose
from ..errors import CompositionError
from ..machine.spec import MachineSpec
from ..transport.library import VENDOR_LIBRARY, Library
from .configs import HicclConfig

#: Default payload for peak-throughput measurements: 1 GiB total.
DEFAULT_PAYLOAD_BYTES = 1 << 30

WARMUP_ROUNDS = 5
MEASURE_ROUNDS = 10


@dataclass(frozen=True)
class Measurement:
    """One measured point: a collective under one implementation."""

    system: str
    collective: str
    implementation: str
    payload_bytes: int
    seconds: float

    @property
    def throughput(self) -> float:
        """GB/s by the paper's definition (payload ``dp`` over elapsed)."""
        return self.payload_bytes / 1.0e9 / self.seconds


def payload_count(machine: MachineSpec, payload_bytes: int,
                  elem_bytes: int = 4) -> int:
    """Per-chunk element count ``d`` such that total payload = ``p * d``."""
    return max(1, payload_bytes // (machine.world_size * elem_bytes))


def run_hiccl(machine: MachineSpec, collective: str, config: HicclConfig,
              payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
              warmup: int = WARMUP_ROUNDS, rounds: int = MEASURE_ROUNDS,
              dtype=np.float32) -> Measurement:
    """Measure a HiCCL collective under ``config`` (timing-only)."""
    count = payload_count(machine, payload_bytes, np.dtype(dtype).itemsize)
    comm = Communicator(machine, dtype=dtype, materialize=False)
    compose(comm, collective, count)
    comm.init(**config.init_kwargs())
    seconds = comm.measure(warmup=warmup, rounds=rounds)
    actual = count * machine.world_size * np.dtype(dtype).itemsize
    return Measurement(machine.name, collective, f"hiccl-{config.name}",
                       actual, seconds)


def run_baseline(machine: MachineSpec, collective: str, family: str,
                 payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
                 warmup: int = WARMUP_ROUNDS, rounds: int = MEASURE_ROUNDS,
                 dtype=np.float32) -> Measurement | None:
    """Measure a baseline; returns None when the library lacks the collective.

    ``family`` is one of ``mpi``, ``vendor`` (NCCL / RCCL / OneCCL depending
    on the system), or ``direct``.
    """
    itemsize = np.dtype(dtype).itemsize
    count = payload_count(machine, payload_bytes, itemsize)
    try:
        if family == "mpi":
            run = mpi_collective(machine, collective, count, dtype=dtype,
                                 materialize=False)
            label = "mpi"
        elif family == "direct":
            run = direct_collective(machine, collective, count, dtype=dtype,
                                    materialize=False)
            label = "direct"
        elif family == "vendor":
            vendor = VENDOR_LIBRARY.get(machine.name, Library.NCCL)
            if vendor is Library.ONECCL:
                if collective not in ONECCL_OFFERED:
                    return None
                run = oneccl_collective(machine, collective, count,
                                        dtype=dtype, materialize=False)
            else:
                run = ccl_collective(machine, collective, count, dtype=dtype,
                                     materialize=False, library=vendor)
            label = vendor.value
        else:
            raise ValueError(f"unknown baseline family {family!r}")
    except CompositionError:
        return None  # collective not offered by this library (Table 1)
    seconds = run.measure(warmup=warmup, rounds=rounds)
    actual = count * machine.world_size * itemsize
    return Measurement(machine.name, collective, label, actual, seconds)


def sweep_payloads(machine: MachineSpec, collective: str, config: HicclConfig,
                   payloads_bytes, dtype=np.float32) -> list[Measurement]:
    """Buffer-size sweep (Figure 9's x-axis)."""
    return [
        run_hiccl(machine, collective, config, payload_bytes=pb,
                  warmup=1, rounds=1, dtype=dtype)
        for pb in payloads_bytes
    ]
