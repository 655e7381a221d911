"""HiCCL core: primitives, composition, factorization, communicator."""

from .buffers import BufferHandle, BufferView
from .communicator import Communicator
from .composition import COLLECTIVES, FIGURE8_ORDER, compose
from .ops import ReduceOp, accumulate, reference_reduce
from .passes import lower_program, split_even
from .plan import OptimizationPlan
from .plancache import CachedPlan, CacheStats, PlanCache, PlanKey, plan_key
from .primitives import Fence, Multicast, Program, Reduction
from .schedule import P2POp, Schedule, ScheduleBuilder
from .vcollectives import (
    V_COLLECTIVES,
    compose_all_gatherv,
    compose_gatherv,
    compose_reduce_scatterv,
    compose_scatterv,
)

__all__ = [
    "BufferHandle",
    "V_COLLECTIVES",
    "compose_all_gatherv",
    "compose_gatherv",
    "compose_reduce_scatterv",
    "compose_scatterv",
    "BufferView",
    "COLLECTIVES",
    "CachedPlan",
    "CacheStats",
    "PlanCache",
    "PlanKey",
    "plan_key",
    "Communicator",
    "FIGURE8_ORDER",
    "Fence",
    "Multicast",
    "OptimizationPlan",
    "P2POp",
    "Program",
    "ReduceOp",
    "Reduction",
    "Schedule",
    "ScheduleBuilder",
    "accumulate",
    "compose",
    "lower_program",
    "reference_reduce",
    "split_even",
]
