"""Figure 8 — suite speedup under target-selection policies.

The paper's headline: against the 160-thread host, switching from the
compiler's default policy (always offload) to the model-guided selector
improves the geometric-mean suite speedup (10.2x → 14.2x in test mode,
2.9x → 3.7x in benchmark mode on their hardware).  This experiment
regenerates the per-kernel speedups under ``always-gpu``, ``model-guided``
and ``oracle`` policies and reports the geomeans plus the close-call
mispredictions the paper singles out (its 2DCONV benchmark case).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import PLATFORM_P9_V100, Platform
from ..util import geomean, render_table
from .common import measure_suite, predict_suite

__all__ = ["Figure8Row", "Figure8Result", "run_figure8"]


@dataclass(frozen=True)
class Figure8Row:
    kernel: str
    true_speedup: float  # GPU offloading speedup over the host
    predicted_speedup: float
    always_gpu: float  # suite speedup contribution under each policy
    model_guided: float
    oracle: float

    @property
    def model_choice(self) -> str:
        return "gpu" if self.predicted_speedup > 1.0 else "cpu"

    @property
    def miss(self) -> bool:
        return (self.true_speedup > 1.0) != (self.predicted_speedup > 1.0)


@dataclass(frozen=True)
class Figure8Result:
    mode: str
    platform_name: str
    num_threads: int | None
    rows: tuple[Figure8Row, ...]

    def geomeans(self) -> dict[str, float]:
        return {
            "always-gpu": geomean([r.always_gpu for r in self.rows]),
            "model-guided": geomean([r.model_guided for r in self.rows]),
            "oracle": geomean([r.oracle for r in self.rows]),
        }

    def misses(self) -> list[Figure8Row]:
        return [r for r in self.rows if r.miss]

    def render(self) -> str:
        body = [
            [
                r.kernel,
                f"{r.always_gpu:.2f}x",
                f"{r.model_guided:.2f}x",
                f"{r.oracle:.2f}x",
                r.model_choice,
                "MISS" if r.miss else "",
            ]
            for r in self.rows
        ]
        gms = self.geomeans()
        body.append(
            [
                "geomean",
                f"{gms['always-gpu']:.2f}x",
                f"{gms['model-guided']:.2f}x",
                f"{gms['oracle']:.2f}x",
                "",
                "",
            ]
        )
        table = render_table(
            ["kernel", "always-offload", "model-guided", "oracle", "choice", ""],
            body,
            title=(
                f"Figure 8: suite speedup over the "
                f"{self.num_threads or 'full'}-thread host under selection "
                f"policies ({self.platform_name}, {self.mode} mode)"
            ),
        )
        miss_text = ", ".join(
            f"{r.kernel} (true {r.true_speedup:.2f}x, predicted "
            f"{r.predicted_speedup:.2f}x)"
            for r in self.misses()
        )
        return table + "\nclose-call mispredictions: " + (miss_text or "none")


def run_figure8(
    mode: str = "benchmark",
    platform: Platform = PLATFORM_P9_V100,
    *,
    num_threads: int | None = None,
) -> Figure8Result:
    """Regenerate Figure 8 for one mode (run both modes for the paper)."""
    measured = measure_suite(platform, mode, num_threads=num_threads)
    predicted = predict_suite(platform, mode, num_threads=num_threads)
    rows = []
    for m, p in zip(measured, predicted):
        executed_model = m.gpu_seconds if p.offload else m.cpu_seconds
        rows.append(
            Figure8Row(
                kernel=m.case.name,
                true_speedup=m.true_speedup,
                predicted_speedup=p.predicted_speedup,
                always_gpu=m.cpu_seconds / m.gpu_seconds,
                model_guided=m.cpu_seconds / executed_model,
                oracle=m.cpu_seconds / m.oracle_seconds,
            )
        )
    return Figure8Result(
        mode=mode,
        platform_name=platform.name,
        num_threads=num_threads,
        rows=tuple(rows),
    )
