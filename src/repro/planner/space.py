"""Unified candidate generation over all five optimization parameters.

The paper's optimization space (Section 4.1) has five inputs: the hierarchy
factor vector, the per-level library vector, the NIC striping factor, the
ring node count, and the pipeline depth.  The legacy grid fixes the library
vector by policy (Table 5: best inter-node p2p backend between nodes, IPC
within) and enumerates the other four; this module makes the library vector
a *searchable dimension* with the policy as the default seed, and packages
the whole space as a
:class:`SearchSpace` the staged search (:mod:`repro.planner.search`) can
enumerate, prune, and price.

Candidates are validated structurally at generation time (hierarchy factors
must multiply to the world size, IPC may not cross nodes, rings must match
the top factor), so every :class:`PlanCandidate` a space yields can be fed to
``Communicator.init`` without raising.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

from ..core.plan import OptimizationPlan
from ..errors import HicclError
from ..machine.spec import MachineSpec
from ..transport.library import DIRECT_LIBRARY, VENDOR_LIBRARY, Library


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the five-parameter optimization space (no price attached)."""

    hierarchy: tuple[int, ...]
    libraries: tuple[Library, ...]
    stripe: int
    ring: int
    pipeline: int

    def init_kwargs(self) -> dict:
        """Keyword arguments for ``Communicator.init``."""
        return {
            "hierarchy": list(self.hierarchy),
            "library": list(self.libraries),
            "stripe": self.stripe,
            "ring": self.ring,
            "pipeline": self.pipeline,
        }

    def sort_key(self) -> tuple:
        """Deterministic total order over candidates (ties in pricing)."""
        return (
            self.hierarchy,
            tuple(lib.value for lib in self.libraries),
            self.stripe,
            self.ring,
            self.pipeline,
        )

    def describe(self) -> str:
        """Human-readable one-line summary of the configuration."""
        libs = ",".join(lib.name for lib in self.libraries)
        return (
            f"{list(self.hierarchy)} [{libs}] stripe({self.stripe}) "
            f"ring({self.ring}) pipeline({self.pipeline})"
        )


def _binary_split(n: int) -> list[int] | None:
    """[2, 2, ...] factorization of a power of two, else None."""
    factors = []
    while n > 1:
        if n % 2:
            return None
        factors.append(2)
        n //= 2
    return factors


def hierarchy_candidates(machine: MachineSpec) -> list[list[int]]:
    """Factor vectors worth trying on this machine.

    Always includes the flat ``{p}`` and the physical factorization; adds a
    binary inter-node split when the node count is a power of two, and a
    node-merged variant (whole nodes as leaves of the inter-node tree with a
    single intra level) for machines with multi-level nodes.
    """
    p = machine.world_size
    out: list[list[int]] = [[p]]
    physical = machine.physical_factors()
    if machine.nodes > 1:
        out.append(physical)
    else:
        out.append([lvl.extent for lvl in machine.levels])
    binary = _binary_split(machine.nodes)
    if binary and machine.nodes > 2:
        out.append(binary + [lvl.extent for lvl in machine.levels])
    if len(machine.levels) > 1 and machine.nodes > 1:
        # Collapse the intra-node levels into one (ignore die boundaries).
        out.append([machine.nodes, machine.gpus_per_node])
    return [list(h) for h in dict.fromkeys(tuple(h) for h in out)]


def policy_libraries(machine: MachineSpec, hierarchy,
                     inter: Library) -> tuple[Library, ...]:
    """Table 5's per-level policy: IPC for levels provably inside a node."""
    libs: list[Library] = []
    block = machine.world_size
    g = machine.gpus_per_node
    for factor in hierarchy:
        # Level i serves hops between sub-blocks of the current block.
        libs.append(Library.IPC if block <= g and g % block == 0 else inter)
        block //= factor
    return tuple(libs)


def default_inter_libraries(machine: MachineSpec) -> tuple[Library, ...]:
    """Inter-node backends worth searching, the Table 5 policy choice first.

    The policy backend (``DIRECT_LIBRARY``) leads so seeded searches start
    from the paper's configuration; GPU-aware MPI and the system's vendor
    library (or NCCL on unknown machines) follow as alternatives.
    """
    policy = DIRECT_LIBRARY.get(machine.name, Library.MPI)
    return tuple(dict.fromkeys(
        (policy, Library.MPI, VENDOR_LIBRARY.get(machine.name, Library.NCCL))
    ))


def library_vectors(machine: MachineSpec, hierarchy, inter_libraries,
                    search: bool = True) -> list[tuple[Library, ...]]:
    """Per-level library vectors to try for one hierarchy, policy seed first.

    For every inter-node backend the policy vector (backend between nodes,
    IPC within) is generated; with ``search`` enabled a uniform variant
    (the backend on every level, exercising its intra-node path) rides
    along.  Vectors are deduplicated preserving order, so element 0 is
    always the Table 5 policy for ``inter_libraries[0]``.
    """
    vectors: list[tuple[Library, ...]] = [
        policy_libraries(machine, hierarchy, inter)
        for inter in inter_libraries
    ]
    if search:
        vectors += [
            tuple(inter for _ in hierarchy) for inter in inter_libraries
        ]
    return list(dict.fromkeys(vectors))


@dataclass(frozen=True)
class SearchSpace:
    """The enumerable candidate space of one (machine, search options) pair.

    ``candidates()`` yields every *valid* configuration; the subset priced by
    the legacy exhaustive grid — policy libraries under the default
    inter-node backend — is exposed by ``grid_candidates()`` and is the
    baseline the planner's full-simulation budget is measured against.
    """

    machine: MachineSpec
    hierarchies: tuple[tuple[int, ...], ...]
    inter_libraries: tuple[Library, ...]
    stripes: tuple[int, ...]
    pipelines: tuple[int, ...]
    include_ring: bool = True
    search_libraries: bool = True

    @classmethod
    def build(
        cls,
        machine: MachineSpec,
        *,
        inter_library: Library | None = None,
        inter_libraries=None,
        stripes=None,
        pipelines=(1, 4, 16, 32),
        include_ring: bool = True,
        search_libraries: bool = True,
    ) -> "SearchSpace":
        """Assemble the default space for ``machine``.

        ``inter_library`` pins a single inter-node backend;
        ``inter_libraries`` lists several to search over; by default
        :func:`default_inter_libraries` decides.
        """
        if inter_libraries is None:
            if inter_library is not None:
                inter_libraries = (inter_library,)
            elif search_libraries:
                inter_libraries = default_inter_libraries(machine)
            else:
                inter_libraries = (
                    DIRECT_LIBRARY.get(machine.name, Library.MPI),
                )
        if stripes is None:
            stripes = sorted({1, machine.gpus_per_node})
        return cls(
            machine=machine,
            hierarchies=tuple(
                tuple(h) for h in hierarchy_candidates(machine)
            ),
            inter_libraries=tuple(inter_libraries),
            stripes=tuple(stripes),
            pipelines=tuple(pipelines),
            include_ring=include_ring,
            search_libraries=search_libraries,
        )

    def _rings(self, hierarchy: tuple[int, ...]) -> list[int]:
        rings = [1]
        if (self.include_ring and len(hierarchy) > 1
                and hierarchy[0] == self.machine.nodes
                and self.machine.nodes > 1):
            rings.append(self.machine.nodes)
        return rings

    def _valid(self, cand: PlanCandidate) -> bool:
        try:
            OptimizationPlan.create(
                self.machine, list(cand.hierarchy), list(cand.libraries),
                stripe=cand.stripe, ring=cand.ring, pipeline=cand.pipeline,
            )
        except HicclError:
            return False
        return True

    def _enumerate(self, search_libraries: bool) -> list[PlanCandidate]:
        out: list[PlanCandidate] = []
        for hierarchy in self.hierarchies:
            vectors = library_vectors(
                self.machine, hierarchy, self.inter_libraries,
                search=search_libraries,
            )
            rings = self._rings(hierarchy)
            for libs in vectors:
                for stripe, ring, pipeline in itertools.product(
                        self.stripes, rings, self.pipelines):
                    cand = PlanCandidate(hierarchy, libs, stripe, ring,
                                         pipeline)
                    if self._valid(cand):
                        out.append(cand)
        return out

    # Validating a candidate runs the full OptimizationPlan.create check, so
    # each enumeration is cached on the (frozen) space and the accessors
    # below hand out copies.
    @cached_property
    def _all_candidates(self) -> tuple[PlanCandidate, ...]:
        return tuple(self._enumerate(self.search_libraries))

    @cached_property
    def _grid(self) -> tuple[PlanCandidate, ...]:
        narrowed = replace(self, inter_libraries=self.inter_libraries[:1])
        return tuple(narrowed._enumerate(False))

    @cached_property
    def _policy(self) -> tuple[PlanCandidate, ...]:
        policies = {
            h: {
                policy_libraries(self.machine, h, inter)
                for inter in self.inter_libraries
            }
            for h in self.hierarchies
        }
        return tuple(
            c for c in self._all_candidates
            if c.libraries in policies[c.hierarchy]
        )

    def candidates(self) -> list[PlanCandidate]:
        """Every valid candidate of the space, in deterministic order."""
        return list(self._all_candidates)

    def grid_candidates(self) -> list[PlanCandidate]:
        """The legacy exhaustive grid: policy libraries, default backend only.

        The denominator of the planner's "full simulations on at most a
        third of the grid" budget.  A space built with
        ``search_libraries=False`` and one inter-node backend holds exactly
        these candidates.
        """
        return list(self._grid)

    def policy_candidates(self) -> list[PlanCandidate]:
        """Candidates whose library vector is a Table 5 policy vector."""
        return list(self._policy)
