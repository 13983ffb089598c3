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
)
from .cpu_sim import CPUSimResult, cpu_memory_hierarchy, simulate_cpu
from .gpu_sim import GPUSimResult, simulate_gpu_kernel
from .interconnect_sim import TransferSimResult, simulate_dmas, simulate_transfers
from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .executor import ExecutionProfile, allocate_arrays, execute_region

_LAZY = {"executor": ("ExecutionProfile", "allocate_arrays", "execute_region")}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "AccessLocality",
        "AccessSpec",
        "CacheLevel",
        "LoopExtent",
        "MemoryHierarchy",
        "analyze_access",
        "CPUSimResult",
        "cpu_memory_hierarchy",
        "simulate_cpu",
        "GPUSimResult",
        "simulate_gpu_kernel",
        "TransferSimResult",
        "simulate_dmas",
        "simulate_transfers",
    ),
)
