"""Optimization parameters of ``Communicator.init`` (Section 4.1).

The optimization space has five parameters (Listing 2, lines 13-17):

1. integer factors of ``p`` describing the virtual network hierarchy;
2. the point-to-point library for each level;
3. the striping factor ``s`` for NICs;
4. the number of nodes ``n`` forming a ring (1 = tree only);
5. the pipeline depth ``m``.

HiCCL "does not automatically select these parameters, which are part of the
input" — :class:`OptimizationPlan` validates them against the machine and the
virtual topology and is then consumed by the lowering in
:mod:`repro.core.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InitializationError
from ..machine.spec import MachineSpec
from ..machine.topology import TreeTopology
from ..transport.library import Library
from ..transport.profiles import validate_level_libraries


@dataclass(frozen=True)
class OptimizationPlan:
    """Validated optimization parameters bound to a machine."""

    machine: MachineSpec
    topology: TreeTopology
    libraries: tuple[Library, ...]
    stripe: int = 1
    ring: int = 1
    pipeline: int = 1

    @classmethod
    def create(
        cls,
        machine: MachineSpec,
        hierarchy,
        libraries,
        *,
        stripe: int = 1,
        ring: int = 1,
        pipeline: int = 1,
    ) -> "OptimizationPlan":
        """Validate the parameters against ``machine`` and build the plan.

        Raises :class:`InitializationError` (or a hierarchy/library error)
        for a factorization, library vector, stripe, ring or pipeline depth
        the machine cannot run.
        """
        topology = TreeTopology(list(hierarchy), machine.world_size)
        libraries = tuple(libraries)
        validate_level_libraries(machine, topology, list(libraries))
        if stripe < 1:
            raise InitializationError(f"stripe factor must be >= 1, got {stripe}")
        if stripe > machine.gpus_per_node:
            raise InitializationError(
                f"stripe factor {stripe} exceeds {machine.gpus_per_node} GPUs per "
                f"node on {machine.name}; striping uses the root's node peers"
            )
        if ring < 1:
            raise InitializationError(f"ring node count must be >= 1, got {ring}")
        if ring > 1 and ring != topology.factors[0]:
            raise InitializationError(
                f"ring({ring}) must equal the top hierarchy factor "
                f"{topology.factors[0]} (the number of conceptual nodes) or 1"
            )
        if pipeline < 1:
            raise InitializationError(f"pipeline depth must be >= 1, got {pipeline}")
        return cls(
            machine=machine,
            topology=topology,
            libraries=libraries,
            stripe=stripe,
            ring=ring,
            pipeline=pipeline,
        )

    @property
    def uses_ring(self) -> bool:
        """True when the top level runs the ring (``ring > 1``)."""
        return self.ring > 1

    def describe(self) -> str:
        """One-line summary of every parameter."""
        libs = ", ".join(lib.name for lib in self.libraries)
        topo = "ring+tree" if self.uses_ring else "tree"
        return (
            f"hierarchy={list(self.topology.factors)} [{libs}] {topo} "
            f"stripe({self.stripe}) ring({self.ring}) pipeline({self.pipeline})"
        )
