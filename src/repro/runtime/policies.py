"""Target-selection policies.

* ``always-gpu`` — the OpenMP 4.x prescriptive default: target regions go
  to the accelerator unconditionally;
* ``always-cpu`` — never offload (the host fallback);
* ``model-guided`` — the paper's contribution: evaluate both analytical
  models with runtime-bound attributes and pick the lower prediction;
* ``oracle`` — executes both versions and keeps the faster (the upper
  bound a selector can reach; used to score policies).
"""

from __future__ import annotations

from typing import Protocol

from ..analysis import BoundAttributes
from ..machines import Platform
from ..models import SelectionPrediction, predict_both

__all__ = [
    "Policy",
    "AlwaysGPU",
    "AlwaysCPU",
    "ModelGuided",
    "Oracle",
    "policy_by_name",
]


class Policy(Protocol):
    """A target-selection strategy (decides 'gpu' or 'cpu' per launch)."""

    name: str

    def choose(
        self,
        bound: BoundAttributes,
        platform: Platform,
        *,
        num_threads: int | None,
        sim_cpu_seconds: float,
        sim_gpu_seconds: float,
    ) -> tuple[str, SelectionPrediction | None]:
        """Return (target, prediction-if-any)."""
        ...


class AlwaysGPU:
    """Offload every target region (the compiler's default policy)."""

    name = "always-gpu"

    def choose(self, bound, platform, *, num_threads, sim_cpu_seconds, sim_gpu_seconds):
        return "gpu", None


class AlwaysCPU:
    """Never offload; always run the host fallback."""

    name = "always-cpu"

    def choose(self, bound, platform, *, num_threads, sim_cpu_seconds, sim_gpu_seconds):
        return "cpu", None


class ModelGuided:
    """The hybrid analytical selector of Section IV.

    On first use per (platform, team size) the policy fits the
    microbenchmark calibration constants (repro.calibrate) — the paper's
    "parameters obtained from micro-benchmarks" step — and predicts with
    the runtime trip counts.  The uncalibrated models and the pure
    compile-time 128-iteration abstraction are ablations
    (``repro.experiments.ablations``), which call ``predict_both``
    directly.
    """

    name = "model-guided"

    def __init__(self):
        self._calibrations: dict[tuple[str, int | None], object] = {}

    def _calibration(self, platform: Platform, num_threads: int | None):
        key = (platform.name, num_threads)
        if key not in self._calibrations:
            from ..calibrate import fit_model_calibration

            self._calibrations[key] = fit_model_calibration(
                platform, num_threads=num_threads
            )
        return self._calibrations[key]

    def choose(self, bound, platform, *, num_threads, sim_cpu_seconds, sim_gpu_seconds):
        prediction = predict_both(
            bound,
            platform,
            num_threads=num_threads,
            calibration=self._calibration(platform, num_threads),
        )
        return prediction.winner, prediction


class Oracle:
    """Perfect selector: picks whichever version actually runs faster."""

    name = "oracle"

    def choose(self, bound, platform, *, num_threads, sim_cpu_seconds, sim_gpu_seconds):
        return ("gpu" if sim_gpu_seconds < sim_cpu_seconds else "cpu"), None


def policy_by_name(name: str) -> Policy:
    """Construct a policy from its registry name."""
    table = {
        "always-gpu": AlwaysGPU,
        "always-cpu": AlwaysCPU,
        "model-guided": ModelGuided,
        "oracle": Oracle,
    }
    key = name.strip().lower()
    if key not in table:
        raise ValueError(
            f"unknown policy {name!r}; valid policies: "
            + ", ".join(sorted(table))
        )
    return table[key]()
