"""Discrete-event + levelized-batch + functional simulation substrate."""

from .engine import (
    ENGINES,
    JobSpec,
    TimingResult,
    WorkloadTimingResult,
    busy_gigabytes,
    simulate,
    simulate_workload,
)
from .executor import critical_path_length, execute, materialize_scratch, random_topological_order
from .process import MemoryPool
from .serving import (
    ReplayStats,
    ReplayTemplate,
    RequestTiming,
    ServingEngine,
    ServingTimingResult,
    make_template,
)
from .timing import (
    BookingColumns,
    PricedColumns,
    PricedOp,
    booking_columns,
    bookings_at,
    price_op,
    price_schedule,
    price_schedule_columns,
)
from .trace import (
    TraceEvent,
    ascii_gantt,
    build_trace,
    chrome_trace,
    resource_timeline,
    utilization_report,
)

__all__ = [
    "BookingColumns",
    "ENGINES",
    "JobSpec",
    "MemoryPool",
    "PricedColumns",
    "PricedOp",
    "ReplayStats",
    "ReplayTemplate",
    "RequestTiming",
    "ServingEngine",
    "ServingTimingResult",
    "TimingResult",
    "WorkloadTimingResult",
    "booking_columns",
    "bookings_at",
    "busy_gigabytes",
    "critical_path_length",
    "execute",
    "make_template",
    "materialize_scratch",
    "price_op",
    "price_schedule",
    "price_schedule_columns",
    "random_topological_order",
    "simulate",
    "simulate_workload",
    "TraceEvent",
    "ascii_gantt",
    "build_trace",
    "chrome_trace",
    "resource_timeline",
    "utilization_report",
]
