"""Ablation studies of the hybrid framework's ingredients.

Each ablation removes one contribution the paper argues for and measures
the damage to decision quality:

* ``no-ipda`` — replace the IPDA coalescing analysis by the naive
  assumption that every access coalesces (what a model without
  inter-thread stride analysis would do), or by the conservative
  assumption that nothing does;
* ``static-tripcounts`` — drop the runtime trip-count feed (Figure 2) and
  use the pure 128-iteration compile-time abstraction;
* ``no-omp-rep`` — drop the paper's ``#OMP_Rep`` extension to the Hong
  model (threads assumed to execute one iteration each);
* ``no-calibration`` — skip the microbenchmark parameter-fitting step.

Scored by decision accuracy against the oracle and by the geometric-mean
suite speedup the resulting policy achieves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..analysis import ProgramAttributeDatabase
from ..calibrate import fit_model_calibration
from ..codegen import plan_gpu_launch
from ..ipda import BoundAccess, BoundIPDA, CoalescingClass
from ..machines import PLATFORM_P9_V100, Platform
from ..models import predict_both, predict_cpu_time, predict_gpu_time
from ..polybench import all_kernel_cases
from ..util import geomean, render_table
from .common import measure_suite

__all__ = ["AblationScore", "AblationResult", "run_ablations"]

_VARIANTS = (
    "full",
    "no-ipda (all coalesced)",
    "no-ipda (all uncoalesced)",
    "static-tripcounts",
    "no-omp-rep",
    "no-calibration",
)


@dataclass(frozen=True)
class AblationScore:
    variant: str
    decision_accuracy: float
    geomean_speedup: float


@dataclass(frozen=True)
class AblationResult:
    mode: str
    platform_name: str
    num_threads: int | None
    scores: tuple[AblationScore, ...]

    def score(self, variant: str) -> AblationScore:
        for s in self.scores:
            if s.variant == variant:
                return s
        raise KeyError(variant)

    def render(self) -> str:
        rows = [
            [s.variant, f"{s.decision_accuracy:.0%}", f"{s.geomean_speedup:.2f}x"]
            for s in self.scores
        ]
        return render_table(
            ["variant", "decision accuracy", "suite speedup (geomean)"],
            rows,
            title=(
                f"Ablations of the hybrid framework "
                f"({self.platform_name}, {self.mode} mode, "
                f"{self.num_threads or 'full'}-thread host)"
            ),
        )


def _force_coalescing(bound_ipda: BoundIPDA, coalesced: bool) -> BoundIPDA:
    """Replace every access's IPDA verdict with a fixed assumption."""
    cls = CoalescingClass.COALESCED if coalesced else CoalescingClass.UNCOALESCED
    txn = 4 if coalesced else 32
    accesses = tuple(
        BoundAccess(
            stride=a.stride,
            thread_stride_elems=a.thread_stride_elems,
            coalescing=cls,
            transactions_per_access=txn,
            false_sharing_risk=a.false_sharing_risk,
        )
        for a in bound_ipda.accesses
    )
    return BoundIPDA(bound_ipda.region_name, accesses)


def run_ablations(
    mode: str = "benchmark",
    platform: Platform = PLATFORM_P9_V100,
    *,
    num_threads: int | None = None,
) -> AblationResult:
    """Score every ablation variant over the suite."""
    measured = measure_suite(platform, mode, num_threads=num_threads)
    calibration = fit_model_calibration(platform, num_threads=num_threads)
    db = ProgramAttributeDatabase()
    bounds = []
    for case in all_kernel_cases(mode):
        attrs = db.compile_region(case.region)
        bounds.append(attrs.bind(case.env))

    scores = []
    for variant in _VARIANTS:
        correct = 0
        achieved = []
        for m, bound in zip(measured, bounds):
            offload = _variant_offload(
                variant, bound, platform, num_threads, calibration
            )
            oracle_gpu = m.gpu_seconds < m.cpu_seconds
            correct += offload == oracle_gpu
            executed = m.gpu_seconds if offload else m.cpu_seconds
            achieved.append(m.cpu_seconds / executed)
        scores.append(
            AblationScore(
                variant=variant,
                decision_accuracy=correct / len(measured),
                geomean_speedup=geomean(achieved),
            )
        )
    return AblationResult(
        mode=mode,
        platform_name=platform.name,
        num_threads=num_threads,
        scores=tuple(scores),
    )


def _variant_offload(variant, bound, platform, num_threads, calibration) -> bool:
    if variant == "full":
        return predict_both(
            bound, platform, num_threads=num_threads, calibration=calibration
        ).offload
    if variant == "static-tripcounts":
        return predict_both(
            bound,
            platform,
            num_threads=num_threads,
            calibration=calibration,
            use_runtime_tripcounts=False,
        ).offload
    if variant == "no-calibration":
        return predict_both(bound, platform, num_threads=num_threads).offload
    if variant.startswith("no-ipda"):
        forced = _force_coalescing(bound.ipda, "all coalesced" in variant)
        cpu_pred = predict_cpu_time(
            bound.attributes,
            bound.loadout,
            bound.parallel_iterations,
            platform.host,
            num_threads=num_threads,
            env=dict(bound.env),
        )
        plan = plan_gpu_launch(bound.parallel_iterations, platform.gpu)
        gpu_pred = predict_gpu_time(
            bound.region.name,
            bound.loadout,
            forced,
            plan,
            platform.gpu,
            platform.bus,
            bound.bytes_to_device,
            bound.bytes_to_host,
        )
        cpu_s = cpu_pred.seconds * calibration.cpu_time_scale
        gpu_s = (
            gpu_pred.kernel_seconds * calibration.gpu_time_scale
            + gpu_pred.launch_seconds
            + gpu_pred.transfer.total_seconds
        )
        return gpu_s < cpu_s
    if variant == "no-omp-rep":
        cpu_pred = predict_cpu_time(
            bound.attributes,
            bound.loadout,
            bound.parallel_iterations,
            platform.host,
            num_threads=num_threads,
            env=dict(bound.env),
        )
        plan = plan_gpu_launch(bound.parallel_iterations, platform.gpu)
        plan = dataclasses.replace(plan, omp_rep=1)
        gpu_pred = predict_gpu_time(
            bound.region.name,
            bound.loadout,
            bound.ipda,
            plan,
            platform.gpu,
            platform.bus,
            bound.bytes_to_device,
            bound.bytes_to_host,
        )
        cpu_s = cpu_pred.seconds * calibration.cpu_time_scale
        gpu_s = (
            gpu_pred.kernel_seconds * calibration.gpu_time_scale
            + gpu_pred.launch_seconds
            + gpu_pred.transfer.total_seconds
        )
        return gpu_s < cpu_s
    raise KeyError(f"unknown ablation variant {variant!r}")


if __name__ == "__main__":  # pragma: no cover
    for mode in ("test", "benchmark"):
        print(run_ablations(mode).render())
        print()
