"""Dual code generation plans for outlined target regions.

The compiler duplicates each target region into a GPU kernel and a
CPU-parallel fallback (Figure 2); these modules compute the execution shape
of each version — grid geometry + ``#OMP_Rep`` on the device, thread/chunk
structure on the host.
"""

from .gpu_plan import DEFAULT_THREADS_PER_BLOCK, GPULaunchPlan, plan_gpu_launch
from .cpu_plan import CPUPlan, OMPSchedule, plan_cpu_execution

__all__ = [
    "DEFAULT_THREADS_PER_BLOCK",
    "GPULaunchPlan",
    "plan_gpu_launch",
    "CPUPlan",
    "OMPSchedule",
    "plan_cpu_execution",
]
