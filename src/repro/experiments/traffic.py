"""The calibrated trace and scenario fan-out the traffic grids share.

:mod:`.replay`, :mod:`.service` and :mod:`.hedge` all replay one seeded
trace whose arrival rate is calibrated from a chaos-free probe, with
chaos confined to the middle tenth of the trace.  :func:`calibrate`
builds that trace once; :func:`fan_out` runs a grid's scenarios over it,
sequentially or across the warm-worker pool, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machines import Platform
from ..parallel import SweepEngine
from ..replay import (
    ChaosSchedule,
    ChaosWindow,
    MemoizedPolicy,
    ReplayConfig,
    ReplayEngine,
    WorkloadConfig,
    generate_requests,
)
from ..runtime import ExecutionMemo
from .common import _resolve_platform


@dataclass(frozen=True)
class CalibratedTrace:
    """One seeded trace shape and its chaos-free mean service time.

    The four scalars define it completely, so a worker process rebuilds
    an identical trace from them.  ``policy`` and ``memo`` cache
    deterministic values only, so a fresh pair changes no result.
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


def calibrate(platform: Platform, launches: int, seed: int) -> CalibratedTrace:
    """Probe the mix's chaos-free mean service time (deterministic)."""
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
    chunk: int | None = None,
) -> list:
    """``task(trace, scenario, *params)`` per scenario, in grid order.

    Sequentially every scenario shares ``trace``; with ``jobs`` > 1
    whole scenarios fan over the persistent warm-worker pool, and each
    worker rebuilds the trace from its scalars, so payloads match the
    sequential loop byte for byte.
    """
    engine = SweepEngine(jobs, chunk=chunk)
    if not engine.parallel:
        return [task(trace, name, *params) for name in scenarios]
    shipped = (trace.platform.name, trace.launches, trace.seed, trace.mean_service_s)
    return engine.map(
        _scenario_task,
        [(task, shipped, name, params) for name in scenarios],
        labels=list(scenarios),
    )


def _scenario_task(item: tuple):
    """Worker side of :func:`fan_out`: rebuild the trace, run one scenario."""
    task, (platform_name, launches, seed, mean_service_s), name, params = item
    trace = CalibratedTrace(
        _resolve_platform(platform_name), launches, seed, mean_service_s
    )
    return task(trace, name, *params)
