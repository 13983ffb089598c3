"""Timing simulators and the functional executor (the "hardware").

These stand in for the paper's POWER8/POWER9 hosts, K80/V100 devices and
PCIe/NVLink buses (see DESIGN.md §2): every "actual"/"measured" number in
the reproduced tables and figures comes from here, while the analytical
models of :mod:`repro.models` provide the "predicted" numbers.

The functional executor interprets the IR over numpy arrays; it is loaded
on first use, so the timing simulators import without numpy.
"""

from typing import TYPE_CHECKING

from .locality import (
    AccessLocality,
    AccessSpec,
    CacheLevel,
    LoopExtent,
    MemoryHierarchy,
    analyze_access,
    group_accesses,
)
from .cpu_sim import CPUSimResult, cpu_memory_hierarchy, simulate_cpu
from .gpu_sim import GPUSimResult, simulate_gpu_kernel
from .interconnect_sim import TransferSimResult, simulate_transfers

if TYPE_CHECKING:
    from .executor import ExecutionProfile, allocate_arrays, execute_region

_EXECUTOR_NAMES = ("ExecutionProfile", "allocate_arrays", "execute_region")

__all__ = [
    "AccessLocality",
    "AccessSpec",
    "CacheLevel",
    "LoopExtent",
    "MemoryHierarchy",
    "analyze_access",
    "group_accesses",
    "CPUSimResult",
    "cpu_memory_hierarchy",
    "simulate_cpu",
    "GPUSimResult",
    "simulate_gpu_kernel",
    "TransferSimResult",
    "simulate_transfers",
    "ExecutionProfile",
    "allocate_arrays",
    "execute_region",
]


def __getattr__(name: str):
    """Load the functional executor when one of its names is first used."""
    if name in _EXECUTOR_NAMES:
        from . import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
