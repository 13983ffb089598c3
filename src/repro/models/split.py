"""Cooperative CPU+GPU split execution (the Introduction's motivation).

The paper opens with Valero-Lara et al.'s observation that "for some
tasks, a split of the computation between CPU and GPU execution leads to
better performance".  With both analytical models in hand, the optimal
static split falls out of the same machinery: give a fraction ``f`` of
the parallel band to the device and the rest to the host, predict each
side, and minimise the makespan ``max(T_cpu(1-f), T_gpu(f))``.

The device's transfer volume is scaled by its share — valid for arrays
whose extent is proportional to the parallel band (our suite shape); the
region's broadcast operands (read by every iteration) are transferred in
full whenever ``f > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import BoundAttributes
from ..codegen import plan_gpu_launch
from ..ipda import CoalescingClass
from ..machines import Platform
from .cpu_model import predict_cpu_time
from .gpu_model import predict_gpu_time
from .selector import CalibrationLike

__all__ = ["SplitPrediction", "predict_split"]


@dataclass(frozen=True)
class SplitPrediction:
    """Best static CPU/GPU work split for one region launch."""

    region_name: str
    gpu_fraction: float  # share of parallel iterations offloaded
    makespan_seconds: float  # predicted time of the split execution
    cpu_only_seconds: float
    gpu_only_seconds: float
    curve: tuple[tuple[float, float], ...]  # (fraction, makespan) samples

    @property
    def speedup_over_best_single(self) -> float:
        best_single = min(self.cpu_only_seconds, self.gpu_only_seconds)
        return best_single / self.makespan_seconds

    @property
    def worthwhile(self) -> bool:
        """Does splitting beat running entirely on the better device?"""
        return self.speedup_over_best_single > 1.02  # beyond noise


def predict_split(
    bound: BoundAttributes,
    platform: Platform,
    *,
    num_threads: int | None = None,
    calibration: CalibrationLike | None = None,
    samples: int = 32,
) -> SplitPrediction:
    """Sweep the split fraction and return the predicted optimum.

    ``samples`` grid points of ``f`` in [0, 1] are evaluated; the two
    endpoints are the pure-CPU and pure-GPU predictions.
    """
    if samples < 3:
        raise ValueError("need at least 3 samples (the endpoints + one split)")
    iters = bound.parallel_iterations
    env = dict(bound.env)

    def cpu_seconds(share: int) -> float:
        if share <= 0:
            return 0.0
        pred = predict_cpu_time(
            bound.attributes,
            bound.loadout,
            share,
            platform.host,
            num_threads=num_threads,
            env=env,
        )
        scale = calibration.cpu_time_scale if calibration else 1.0
        return pred.seconds * scale

    def gpu_seconds(share: int) -> float:
        if share <= 0:
            return 0.0
        plan = plan_gpu_launch(share, platform.gpu)
        frac = share / iters
        to_dev, to_host = _scaled_transfers(bound, frac)
        pred = predict_gpu_time(
            bound.region.name,
            bound.loadout,
            bound.ipda,
            plan,
            platform.gpu,
            platform.bus,
            to_dev,
            to_host,
        )
        scale = calibration.gpu_time_scale if calibration else 1.0
        return (
            pred.kernel_seconds * scale
            + pred.launch_seconds
            + pred.transfer.total_seconds
        )

    curve: list[tuple[float, float]] = []
    best_f, best_t = 0.0, float("inf")
    for k in range(samples):
        f = k / (samples - 1)
        gpu_share = round(iters * f)
        cpu_share = iters - gpu_share
        makespan = max(cpu_seconds(cpu_share), gpu_seconds(gpu_share))
        curve.append((f, makespan))
        if makespan < best_t:
            best_f, best_t = f, makespan

    return SplitPrediction(
        region_name=bound.region.name,
        gpu_fraction=best_f,
        makespan_seconds=best_t,
        cpu_only_seconds=curve[0][1],
        gpu_only_seconds=curve[-1][1],
        curve=tuple(curve),
    )


def _scaled_transfers(bound: BoundAttributes, fraction: float) -> tuple[int, int]:
    """Device transfer bytes when only ``fraction`` of the band offloads.

    Arrays indexed by the band (non-uniform inter-thread stride) shrink
    with the share; broadcast operands (uniform, stride 0) must be copied
    whole whenever anything offloads.
    """
    if fraction <= 0:
        return 0, 0
    env = dict(bound.env)
    to_dev = 0.0
    to_host = 0.0
    uniform_arrays = {
        b.stride.access.array.name
        for b in bound.ipda.accesses
        if b.coalescing is CoalescingClass.UNIFORM
    }
    partitioned = {
        b.stride.access.array.name
        for b in bound.ipda.accesses
        if b.coalescing is not CoalescingClass.UNIFORM
    }
    for arr in bound.region.arrays.values():
        nbytes = int(arr.element_count().evaluate(env)) * arr.dtype.size
        share = 1.0 if (arr.name in uniform_arrays and arr.name not in partitioned) else fraction
        if arr.is_input:
            to_dev += nbytes * share
        if arr.is_output:
            to_host += nbytes * share
    return int(to_dev), int(to_host)
