"""Figures 6 and 7 — actual versus predicted GPU offloading speedup.

Per suite kernel, the true (simulated) speedup of offloading over a
4-thread host versus the hybrid predictor's estimate — Figure 6 is the
``test`` execution mode, Figure 7 is ``benchmark``.  Besides the paired
series, the result carries the error metrics the paper's discussion
implies: decision accuracy and the magnitude of prediction error.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import PLATFORM_P9_V100, Platform
from ..util import correlation, mean_absolute_log_error, render_table
from .common import measure_suite, predict_suite

__all__ = ["PredictionRow", "Figure67Result", "run_figure6", "run_figure7"]

HOST_THREADS = 4  # the paper plots both figures against a 4-thread host


@dataclass(frozen=True)
class PredictionRow:
    kernel: str
    true_speedup: float
    predicted_speedup: float

    @property
    def decision_correct(self) -> bool:
        return (self.true_speedup > 1.0) == (self.predicted_speedup > 1.0)


@dataclass(frozen=True)
class Figure67Result:
    figure: str
    mode: str
    platform_name: str
    rows: tuple[PredictionRow, ...]

    @property
    def decision_accuracy(self) -> float:
        return sum(r.decision_correct for r in self.rows) / len(self.rows)

    @property
    def log_error(self) -> float:
        return mean_absolute_log_error(
            [r.predicted_speedup for r in self.rows],
            [r.true_speedup for r in self.rows],
        )

    @property
    def rank_correlation_proxy(self) -> float:
        """Pearson correlation of log-speedups (ordering fidelity)."""
        import math

        return correlation(
            [math.log(r.true_speedup) for r in self.rows],
            [math.log(r.predicted_speedup) for r in self.rows],
        )

    def render(self) -> str:
        body = [
            [
                r.kernel,
                f"{r.true_speedup:.2f}x",
                f"{r.predicted_speedup:.2f}x",
                "ok" if r.decision_correct else "MISS",
            ]
            for r in self.rows
        ]
        table = render_table(
            ["kernel", "actual speedup", "predicted speedup", "decision"],
            body,
            title=(
                f"{self.figure}: actual vs predicted offloading speedup, "
                f"{self.mode} mode, {HOST_THREADS}-thread host "
                f"({self.platform_name})"
            ),
        )
        return (
            table
            + f"\ndecision accuracy : {self.decision_accuracy:.0%}"
            + f"\nmean |log10 error|: {self.log_error:.3f}"
            + f"\nlog-log correlation: {self.rank_correlation_proxy:.3f}"
        )


def _run(figure: str, mode: str, platform: Platform) -> Figure67Result:
    measured = measure_suite(platform, mode, num_threads=HOST_THREADS)
    predicted = predict_suite(platform, mode, num_threads=HOST_THREADS)
    rows = tuple(
        PredictionRow(
            kernel=m.case.name,
            true_speedup=m.true_speedup,
            predicted_speedup=p.predicted_speedup,
        )
        for m, p in zip(measured, predicted)
    )
    return Figure67Result(
        figure=figure, mode=mode, platform_name=platform.name, rows=rows
    )


def run_figure6(platform: Platform = PLATFORM_P9_V100) -> Figure67Result:
    """Figure 6: test execution mode."""
    return _run("Figure 6", "test", platform)


def run_figure7(platform: Platform = PLATFORM_P9_V100) -> Figure67Result:
    """Figure 7: benchmark execution mode."""
    return _run("Figure 7", "benchmark", platform)
