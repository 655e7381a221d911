"""Public API surface checks: exports, docstrings, and error hierarchy."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

MODULES = [
    "repro",
    "repro.cli",
    "repro.collectives",
    "repro.errors",
    "repro.core",
    "repro.core.buffers",
    "repro.core.communicator",
    "repro.core.composition",
    "repro.core.intervals",
    "repro.core.latency",
    "repro.core.ops",
    "repro.core.plan",
    "repro.core.plancache",
    "repro.core.primitives",
    "repro.core.schedule",
    "repro.core.vcollectives",
    "repro.machine",
    "repro.machine.machines",
    "repro.machine.nic",
    "repro.machine.rankmap",
    "repro.machine.spec",
    "repro.machine.topology",
    "repro.model",
    "repro.model.bounds",
    "repro.model.perf_model",
    "repro.simulator",
    "repro.simulator.engine",
    "repro.simulator.executor",
    "repro.simulator.level",
    "repro.simulator.process",
    "repro.simulator.timing",
    "repro.simulator.trace",
    "repro.transport",
    "repro.transport.library",
    "repro.transport.profiles",
    "repro.baselines",
    "repro.baselines.base",
    "repro.baselines.ccl_like",
    "repro.baselines.direct",
    "repro.baselines.mpi_like",
    "repro.baselines.oneccl_like",
    "repro.bench",
    "repro.bench.configs",
    "repro.bench.figures",
    "repro.bench.parallel",
    "repro.bench.report",
    "repro.bench.runner",
    "repro.workloads",
    "repro.workloads.groups",
    "repro.workloads.scenarios",
    "repro.workloads.workload",
    "repro.planner",
    "repro.planner.space",
    "repro.planner.score",
    "repro.planner.search",
    "repro.planner.workload",
    "repro.service",
    "repro.service.client",
    "repro.service.jobs",
    "repro.service.protocol",
    "repro.service.server",
    "repro.service.shards",
    "repro.service.similarity",
    "repro.service.traffic",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_with_docstring(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 20, f"{name} lacks a docstring"


def test_all_exports_resolve():
    for name in MODULES:
        mod = importlib.import_module(name)
        for symbol in getattr(mod, "__all__", []):
            assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"


def test_public_functions_documented():
    """Every public callable in the core packages carries a docstring."""
    undocumented = []
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr_name, attr in vars(mod).items():
            if attr_name.startswith("_"):
                continue
            if getattr(attr, "__module__", None) != name:
                continue  # re-export; documented at origin
            if inspect.isfunction(attr) or inspect.isclass(attr):
                if not (attr.__doc__ or "").strip():
                    undocumented.append(f"{name}.{attr_name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_error_hierarchy():
    from repro.errors import (
        CompositionError,
        ExecutionError,
        HicclError,
        HierarchyError,
        InitializationError,
        LibraryAssignmentError,
        RaceConditionError,
        ScheduleError,
    )

    assert issubclass(CompositionError, HicclError)
    assert issubclass(RaceConditionError, CompositionError)
    assert issubclass(HierarchyError, InitializationError)
    assert issubclass(LibraryAssignmentError, InitializationError)
    assert issubclass(ExecutionError, HicclError)
    assert issubclass(ScheduleError, HicclError)


def test_version():
    assert repro.__version__


def test_figure8_order_covers_all_collectives():
    assert set(repro.FIGURE8_ORDER) == set(repro.COLLECTIVES)
    assert len(repro.FIGURE8_ORDER) == 8
