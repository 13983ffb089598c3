"""Dual code generation plans for outlined target regions.

The compiler duplicates each target region into a GPU kernel and a
CPU-parallel fallback (Figure 2); these modules compute the execution shape
of each version — grid geometry + ``#OMP_Rep`` on the device, thread/chunk
structure on the host.
"""

from .gpu_plan import DEFAULT_THREADS_PER_BLOCK, GPULaunchPlan, plan_gpu_launch
from .cpu_plan import CPUPlan, OMPSchedule, plan_cpu_execution
from .._lazy import lazy_exports

#: loaded on first use: the models and simulators use the default geometry
_LAZY = {
    "tuning": ("CANDIDATE_BLOCK_SIZES", "GeometryChoice", "tune_threads_per_block"),
}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "DEFAULT_THREADS_PER_BLOCK",
        "GPULaunchPlan",
        "plan_gpu_launch",
        "CPUPlan",
        "OMPSchedule",
        "plan_cpu_execution",
    ),
)
