"""The calibrated trace, scenario fan-out and score check the traffic
grids share.

:mod:`.replay`, :mod:`.service` and :mod:`.hedge` all replay one seeded
trace whose arrival rate is calibrated from a chaos-free probe, with
chaos confined to the middle tenth of the trace.  :func:`calibrate`
builds that trace once; :func:`fan_out` runs a grid's scenarios over it
through the sweep engine, in process or across the warm-worker pool,
with identical results; :func:`score_failures` is the check every
scored arm of the three grids must pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..machines import Platform
from ..parallel import SweepEngine
from ..replay import (
    ChaosSchedule,
    ChaosWindow,
    MemoizedPolicy,
    ReplayConfig,
    ReplayEngine,
    ReplayScore,
    WorkloadConfig,
    generate_requests,
)
from ..runtime import ExecutionMemo
from .common import _resolve_platform


@dataclass(frozen=True)
class CalibratedTrace:
    """One seeded trace shape and its chaos-free mean service time.

    The four scalars define it completely, so it pickles as them, the
    platform by name (:meth:`__reduce__`), and a worker process
    unpickles an identical trace.  ``policy`` and ``memo`` cache
    deterministic values only, so the worker's fresh pair changes no
    result.
    """

    platform: Platform
    launches: int
    seed: int
    mean_service_s: float
    policy: MemoizedPolicy = field(default_factory=MemoizedPolicy, compare=False)
    memo: ExecutionMemo = field(default_factory=ExecutionMemo, compare=False)
    _requests: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __reduce__(self):
        return (
            _unpickle_trace,
            (self.platform.name, self.launches, self.seed, self.mean_service_s),
        )

    def workload(self, utilization: float, **extra) -> WorkloadConfig:
        """The trace at ``utilization`` of the probed service rate."""
        return WorkloadConfig(
            launches=self.launches,
            seed=self.seed,
            mean_interarrival_s=self.mean_service_s / utilization,
            **extra,
        )

    def requests(self, workload: WorkloadConfig) -> list:
        """The seeded requests of ``workload``, generated once."""
        if workload not in self._requests:
            self._requests[workload] = generate_requests(workload)
        return self._requests[workload]

    def window(self, requests: list) -> tuple[float, float]:
        """The middle tenth of the trace, in *actual* arrival time.

        Windows so carve the exact same request prefix for every seed;
        their length doubles as the scorer's recovery margin.
        """
        return (
            requests[int(0.45 * self.launches)].arrival_s,
            requests[int(0.55 * self.launches)].arrival_s,
        )

    def chaos(
        self, kind: str, window: tuple[float, float], name: str | None = None
    ) -> ChaosSchedule:
        """One ``kind`` chaos window (named ``name``, default ``kind``)."""
        start, stop = window
        return ChaosSchedule(
            windows=(
                ChaosWindow(
                    name=name or kind,
                    kind=kind,
                    start_s=start,
                    stop_s=stop,
                    probability=0.75 if kind == "fault-storm" else 0.35,
                    gpu_scale=6.0 if kind == "hw-drift" else 1.0,
                ),
            ),
            seed=self.seed,
        )

    def run(self, config: ReplayConfig, requests: list | None = None):
        """Replay ``config`` with this trace's policy and memo."""
        return ReplayEngine(config, policy=self.policy, memo=self.memo).run(
            requests=requests
        )


def _unpickle_trace(
    platform_name: str, launches: int, seed: int, mean_service_s: float
) -> CalibratedTrace:
    return CalibratedTrace(
        _resolve_platform(platform_name), launches, seed, mean_service_s
    )


def calibrate(platform: Platform, launches: int, seed: int) -> CalibratedTrace:
    """Probe the mix's chaos-free mean service time (deterministic).

    The trace pickles with its platform's name, so ``platform`` must be
    the registered platform of its name (``ValueError`` otherwise): a
    worker process replays the platform it unpickles.
    """
    platform = _resolve_platform(platform)
    policy, memo = MemoizedPolicy(), ExecutionMemo()
    probe = WorkloadConfig(launches=max(min(launches, 2_000), 200), seed=seed)
    run = ReplayEngine(
        ReplayConfig(platform=platform, workload=probe), policy=policy, memo=memo
    ).run()
    mean_service_s = sum(r.executed_seconds for r in run.records) / len(run.records)
    return CalibratedTrace(
        platform, launches, seed, mean_service_s, policy=policy, memo=memo
    )


def fan_out(
    task,
    trace: CalibratedTrace,
    scenarios: tuple[str, ...],
    *params,
    jobs: int | None = None,
) -> list:
    """``task(trace, scenario, *params)`` per scenario, in grid order.

    The scenarios run through :class:`SweepEngine`: in process every
    scenario shares ``trace``; with ``jobs`` > 1 whole scenarios fan
    over the persistent warm-worker pool, each chunk carrying the
    pickled trace, so payloads match the in-process run byte for byte.
    """
    return SweepEngine(jobs).map(
        _scenario_task,
        [(task, trace, name, params) for name in scenarios],
        labels=list(scenarios),
    )


def score_failures(name: str, score: ReplayScore) -> list[str]:
    """The checks every traffic-grid score must pass, whatever its arm.

    No dispatch-overhead observation is nonfinite, and the overhead and
    completion p99s are finite.
    """
    out = []
    if score.overhead_nonfinite:
        out.append(
            f"{name}: {score.overhead_nonfinite} nonfinite "
            "dispatch-overhead observations"
        )
    if not math.isfinite(score.overhead_p99_s):
        out.append(f"{name}: dispatch-overhead p99 not finite")
    if not math.isfinite(score.completion_p99_s):
        out.append(f"{name}: completion p99 not finite")
    return out


def _scenario_task(item: tuple):
    """Sweep task of :func:`fan_out`: run one scenario over the trace."""
    task, trace, name, params = item
    return task(trace, name, *params)
