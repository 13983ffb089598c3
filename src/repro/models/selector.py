"""The combined predictor: evaluate both models and pick a target.

Section IV.D — "the model that results in the lowest predicted runtime is
chosen as the winner".  This module wires bound attributes, launch plans
and the two analytical models into one call the runtime invokes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Protocol

from ..analysis import BoundAttributes
from ..codegen import DEFAULT_THREADS_PER_BLOCK, plan_gpu_launch
from ..machines import Platform
from .cpu_model import CPUPrediction, predict_cpu_time
from .gpu_model import GPUPrediction, predict_gpu_time

__all__ = ["SelectionPrediction", "predict_both", "CalibrationLike"]


class CalibrationLike(Protocol):
    """Microbenchmark-fitted scale constants (see repro.calibrate)."""

    cpu_time_scale: float
    gpu_time_scale: float


@dataclass(frozen=True)
class SelectionPrediction:
    """Both predictions plus the resulting offloading decision."""

    cpu: CPUPrediction
    gpu: GPUPrediction

    @property
    def offload(self) -> bool:
        """True when the GPU version is predicted to be faster."""
        return self.gpu.seconds < self.cpu.seconds

    @property
    def predicted_speedup(self) -> float:
        """Predicted GPU-offloading speedup (CPU time / GPU time)."""
        return self.cpu.seconds / self.gpu.seconds

    @property
    def winner(self) -> str:
        return "gpu" if self.offload else "cpu"

    def scaled(
        self, cpu_scale: float = 1.0, gpu_scale: float = 1.0
    ) -> "SelectionPrediction":
        """A copy with either side's predicted seconds multiplied.

        The drift machinery's common operation: apply a learned correction
        factor (or an injected calibration skew) to one side without
        rebuilding the underlying model predictions.  Returns ``self``
        when both scales are exactly 1, so the untouched object keeps
        identity-level comparability.
        """
        if cpu_scale == 1.0 and gpu_scale == 1.0:
            return self
        return SelectionPrediction(
            cpu=dataclasses.replace(
                self.cpu, seconds=self.cpu.seconds * cpu_scale
            ),
            gpu=dataclasses.replace(
                self.gpu, seconds=self.gpu.seconds * gpu_scale
            ),
        )


def predict_both(
    bound: BoundAttributes,
    platform: Platform,
    *,
    num_threads: int | None = None,
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
    use_runtime_tripcounts: bool = True,
    calibration: CalibrationLike | None = None,
) -> SelectionPrediction:
    """Evaluate the CPU and GPU analytical models for one region launch.

    Figure 2's runtime half supplies "array sizes, loop trip counts,
    arbitrary variable values" — so by default every trip count that a
    runtime value can resolve is resolved, and only genuinely
    undiscoverable counts keep the 128-iteration compile-time abstraction
    (``hybrid_trips``).  ``use_runtime_tripcounts=False`` forces the pure
    static abstraction everywhere — the degraded predictor Section IV.E's
    error discussion contemplates — and is exercised as an ablation.
    """
    attributes = bound.attributes
    loadout = (
        bound.loadout if use_runtime_tripcounts else attributes.static_loadout
    )
    env = dict(bound.env) if use_runtime_tripcounts else {}
    cpu_pred = predict_cpu_time(
        attributes,
        loadout,
        bound.parallel_iterations,
        platform.host,
        num_threads=num_threads,
        env=env,
    )
    plan = plan_gpu_launch(
        bound.parallel_iterations,
        platform.gpu,
        threads_per_block=threads_per_block,
    )
    gpu_pred = predict_gpu_time(
        bound.region.name,
        loadout,
        bound.ipda,
        plan,
        platform.gpu,
        platform.bus,
        bound.bytes_to_device,
        bound.bytes_to_host,
        num_reductions=attributes.reductions,
    )
    if calibration is not None:
        cpu_pred = dataclasses.replace(
            cpu_pred, seconds=cpu_pred.seconds * calibration.cpu_time_scale
        )
        kernel = gpu_pred.kernel_seconds * calibration.gpu_time_scale
        gpu_pred = dataclasses.replace(
            gpu_pred,
            kernel_seconds=kernel,
            seconds=kernel
            + gpu_pred.launch_seconds
            + gpu_pred.transfer.total_seconds,
        )
    return SelectionPrediction(cpu=cpu_pred, gpu=gpu_pred)
