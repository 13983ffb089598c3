"""Global model-constant calibration against microbenchmarks.

The paper stresses that "values of [the model's] parameters can be obtained
from micro-benchmarks".  This module performs that step for the two scale
constants the analytical models cannot derive statically:

* ``cpu_time_scale`` — how much slower the measured host is than the
  cacheless Liao/MCA estimate (cache refills, bandwidth saturation of wide
  teams);
* ``gpu_time_scale`` — how much the measured device deviates from the
  Hong estimate on a well-behaved coalesced kernel (memory-level
  parallelism beyond one request per warp).

Both are fit on *synthetic* microkernels (triad + row-dot), never on the
evaluation workload, so per-kernel model error structure — uncoalesced
over-accounting, cache blindness — is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis import ProgramAttributeDatabase
from ..machines import Platform
from ..models import predict_both
from ..sim import simulate_cpu, simulate_gpu_kernel
from .kernels import build_dot_rows, build_triad

__all__ = ["ModelCalibration", "fit_model_calibration"]

#: Problem size of the calibration kernels (4 Mi elements ≈ 16 MiB/array).
_CAL_N = 1 << 22
_CAL_DOT = {"n": 4096, "m": 4096}


@dataclass(frozen=True)
class ModelCalibration:
    """Fitted global scale constants for one platform/team configuration."""

    platform_name: str
    num_threads: int | None
    cpu_time_scale: float
    gpu_time_scale: float

    def __post_init__(self):
        if self.cpu_time_scale <= 0 or self.gpu_time_scale <= 0:
            raise ValueError("calibration scales must be positive")


def fit_model_calibration(
    platform: Platform, *, num_threads: int | None = None
) -> ModelCalibration:
    """Fit the scale constants by running the probes on the platform.

    Each probe is "measured" (simulated) and predicted; the geometric mean
    of measured/predicted across probes is the scale.
    """
    probes = [
        (build_triad(), {"n": _CAL_N}, {"a": 2.0}),
        (build_dot_rows(), dict(_CAL_DOT), {}),
    ]
    cpu_ratios: list[float] = []
    gpu_ratios: list[float] = []
    db = ProgramAttributeDatabase()
    for region, env, _scalars in probes:
        attrs = db.compile_region(region)
        bound = attrs.bind(env)
        pred = predict_both(bound, platform, num_threads=num_threads)
        sim_cpu = simulate_cpu(
            attrs, platform.host, env, num_threads=num_threads
        ).seconds
        sim_gpu = simulate_gpu_kernel(attrs, platform.gpu, env)
        cpu_ratios.append(sim_cpu / pred.cpu.seconds)
        # compare kernel-only portions: launch+transfer are separately exact
        pred_kernel = max(pred.gpu.kernel_seconds, 1e-12)
        sim_kernel = max(sim_gpu.seconds - sim_gpu.launch_seconds, 1e-12)
        gpu_ratios.append(sim_kernel / pred_kernel)

    gm = lambda xs: math.exp(sum(math.log(x) for x in xs) / len(xs))  # noqa: E731
    return ModelCalibration(
        platform_name=platform.name,
        num_threads=num_threads,
        cpu_time_scale=gm(cpu_ratios),
        gpu_time_scale=gm(gpu_ratios),
    )
