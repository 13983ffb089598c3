"""Multi-tenant offload-service experiment: per-device lanes vs serial FIFO twins.

Not a paper artefact — the companion to :mod:`.replay` for the offload
service (docs/ROBUSTNESS.md).  One calibrated multi-tenant trace is
replayed twice per scenario through the :class:`~repro.replay.OffloadService`
— once in its serial preset (the single-server FIFO every replay runs by
default), once with per-device lanes — so every comparison is causal:
same requests, same chaos, same policy/memo; the only delta is the lane
shape.  The serial twin's fields and payload keys keep their historical
``legacy`` names.

The grid crosses tenant mix with load shape:

* **uniform-*** — three tenants with equal traffic shares;
* **skewed-***  — one heavy tenant (70/20/10): the fairness gate checks
  the light tenants' p99 is not starved by the heavy one;
* ***-steady**  — calibrated utilization, no chaos: the accuracy twin
  check (the service must not change *what* is selected, only *when*
  launches run);
* ***-storm**   — a mid-trace fault-storm window: the overlap gate
  checks transfer/compute pipelining actually cuts the chaos-window p99
  completion latency vs the serial FIFO;
* ***-burst**   — the trace compressed past single-server saturation:
  the service's per-device server pools must keep the completion p99
  below the serial twin's.

Gates (``ServiceRow.ok`` / ``ServiceResult.passed``): per row,
steady-state selection accuracy stays within
:data:`MAX_SERVICE_ACCURACY_DELTA` of the serial twin and per-tenant
p99 fairness stays under :data:`MAX_FAIRNESS_P99`; across the grid, at
least :data:`MIN_OVERLAP_WINS` scenarios must show the service beating
the serial FIFO on the tail the scenario stresses (chaos-window p99 for
storms, trace-wide p99 for bursts).  ``benchmarks/bench_service.py``
enforces the same numbers from ``benchmarks/traffic_thresholds.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machines import PLATFORM_P9_V100, Platform
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
    score_run,
)
from ..runtime import ExecutionMemo
from ..util import render_table
from .common import _resolve_platform
from .replay import _probe_mean_service

__all__ = [
    "MAX_SERVICE_ACCURACY_DELTA",
    "MAX_FAIRNESS_P99",
    "MIN_OVERLAP_WINS",
    "SERVICE_SCENARIOS",
    "ServiceRow",
    "ServiceResult",
    "run_service",
]

#: Self-check thresholds (mirrored by benchmarks/traffic_thresholds.json).
MAX_SERVICE_ACCURACY_DELTA = 0.01  # |steady accuracy - serial twin|
MAX_FAIRNESS_P99 = 3.0  # max/min per-tenant p99 ratio
MIN_OVERLAP_WINS = 1  # scenarios where the service beats the FIFO tail

SERVICE_SCENARIOS = (
    "uniform-steady",
    "uniform-storm",
    "uniform-burst",
    "skewed-steady",
    "skewed-storm",
    "skewed-burst",
)

#: the heavy-tenant mix of the skewed scenarios
SKEWED_WEIGHTS = (0.7, 0.2, 0.1)
#: offered load of the burst scenarios, as a multiple of the single
#: server's capacity — past 1.0 the serial FIFO must queue unboundedly
BURST_UTILIZATION = 1.6


@dataclass(frozen=True)
class ServiceRow:
    """One scenario: the per-device-lane score and its serial-FIFO twin."""

    scenario: str
    shape: str  # "steady" | "storm" | "burst"
    tenant_weights: tuple[float, ...] | None  # None = uniform
    score: ReplayScore  # the offload-service run
    legacy: ReplayScore  # same trace through the serial preset
    outcome_counts: dict

    @property
    def accuracy_delta(self) -> float:
        """Steady-state selection accuracy, service minus serial twin."""
        return self.score.steady_accuracy - self.legacy.steady_accuracy

    @property
    def overlap_win(self) -> bool:
        """Did pipelining beat the serial FIFO on this scenario's tail?"""
        if self.shape == "storm":
            return (
                self.score.chaos_completion_p99_s
                < self.legacy.chaos_completion_p99_s
            )
        return self.score.completion_p99_s < self.legacy.completion_p99_s

    @property
    def ok(self) -> bool:
        s = self.score
        if not math.isfinite(s.completion_p99_s):
            return False
        if s.overhead_nonfinite:
            return False
        # both twins served the whole trace (conservation across lanes)
        if s.requests != self.legacy.requests or s.launches != self.legacy.launches:
            return False
        if abs(self.accuracy_delta) > MAX_SERVICE_ACCURACY_DELTA:
            return False
        if not (
            math.isfinite(s.fairness_p99) and s.fairness_p99 <= MAX_FAIRNESS_P99
        ):
            return False
        return True


@dataclass(frozen=True)
class ServiceResult:
    """The full tenant-mix × load-shape grid of one service run."""

    rows: tuple[ServiceRow, ...]
    launches: int
    seed: int
    platform_name: str
    tenants: int
    mean_service_s: float
    utilization: float
    burst_utilization: float

    def get(self, scenario: str) -> ServiceRow:
        for row in self.rows:
            if row.scenario == scenario:
                return row
        raise KeyError(scenario)

    @property
    def overlap_wins(self) -> int:
        return sum(1 for row in self.rows if row.overlap_win)

    @property
    def passed(self) -> bool:
        return (
            all(row.ok for row in self.rows)
            and self.overlap_wins >= MIN_OVERLAP_WINS
        )

    def render(self) -> str:
        def pct(x: float) -> str:
            return "-" if not math.isfinite(x) else f"{x * 100:.2f}%"

        def ms(x: float) -> str:
            return "-" if not math.isfinite(x) else f"{x * 1e3:.2f}"

        body = [
            [
                row.scenario,
                row.score.launches,
                pct(row.score.steady_accuracy),
                f"{row.accuracy_delta * 100:+.2f}pt",
                ms(row.legacy.completion_p99_s),
                ms(row.score.completion_p99_s),
                ms(row.legacy.chaos_completion_p99_s),
                ms(row.score.chaos_completion_p99_s),
                f"{row.score.fairness_p99:.3f}",
                "win" if row.overlap_win else "-",
                "ok" if row.ok else "FAIL",
            ]
            for row in self.rows
        ]
        return render_table(
            [
                "scenario",
                "launches",
                "steady acc",
                "vs fifo",
                "fifo p99 (ms)",
                "svc p99 (ms)",
                "fifo chaos p99",
                "svc chaos p99",
                "fairness",
                "overlap",
                "",
            ],
            body,
            title=(
                f"Offload service on {self.platform_name}: {self.launches} "
                f"requests/scenario, {self.tenants} tenants, util "
                f"{self.utilization:g} steady / {self.burst_utilization:g} "
                f"burst (seed {self.seed})"
            ),
        )

    def to_payload(self) -> dict:
        """Deterministic JSON-safe dump (byte-identical across reruns)."""
        return {
            "launches": self.launches,
            "seed": self.seed,
            "platform": self.platform_name,
            "tenants": self.tenants,
            "mean_service_s": self.mean_service_s,
            "utilization": self.utilization,
            "burst_utilization": self.burst_utilization,
            "overlap_wins": self.overlap_wins,
            "passed": self.passed,
            "rows": [
                {
                    "scenario": row.scenario,
                    "shape": row.shape,
                    "tenant_weights": (
                        list(row.tenant_weights) if row.tenant_weights else None
                    ),
                    "ok": row.ok,
                    "overlap_win": row.overlap_win,
                    "accuracy_delta": row.accuracy_delta,
                    "outcome_counts": row.outcome_counts,
                    "legacy_completion_p99_s": row.legacy.completion_p99_s,
                    "legacy_chaos_completion_p99_s": (
                        row.legacy.chaos_completion_p99_s
                    ),
                    "legacy_steady_accuracy": row.legacy.steady_accuracy,
                    **row.score.to_payload(),
                }
                for row in self.rows
            ],
        }


def _service_outcome(
    name: str,
    *,
    platform: Platform,
    seed: int,
    launches: int,
    tenants: int,
    mean_service: float,
    utilization: float,
    burst_utilization: float,
    policy: MemoizedPolicy,
    memo: ExecutionMemo,
) -> tuple[str, "tuple[float, ...] | None", ReplayScore, ReplayScore, dict]:
    """One scenario's (shape, weights, service score, serial score, counts).

    Shared by the sequential loop and the parallel worker task, so the
    two paths cannot drift.
    """
    mix, shape = name.split("-", 1)
    weights = SKEWED_WEIGHTS if mix == "skewed" else None
    util = burst_utilization if shape == "burst" else utilization
    workload = WorkloadConfig(
        launches=launches,
        seed=seed,
        mean_interarrival_s=mean_service / util,
        tenants=tenants,
        tenant_weights=weights,
    )
    requests = generate_requests(workload)
    chaos = ChaosSchedule()
    margin = 0.0
    if shape == "storm":
        w_start = requests[int(0.45 * launches)].arrival_s
        w_stop = requests[int(0.55 * launches)].arrival_s
        margin = w_stop - w_start
        chaos = ChaosSchedule(
            windows=(
                ChaosWindow(
                    name="storm",
                    kind="fault-storm",
                    start_s=w_start,
                    stop_s=w_stop,
                    probability=0.75,
                ),
            ),
            seed=seed,
        )
    base = dict(platform=platform, workload=workload, chaos=chaos)
    legacy_run = ReplayEngine(
        ReplayConfig(**base), policy=policy, memo=memo
    ).run(requests=requests)
    service_run = ReplayEngine(
        ReplayConfig(**base, service=True), policy=policy, memo=memo
    ).run(requests=requests)
    legacy = score_run(legacy_run, recovery_margin_s=margin)
    score = score_run(service_run, recovery_margin_s=margin)
    return shape, weights, score, legacy, service_run.outcome_counts()


def _service_scenario_task(
    task: tuple,
) -> tuple[str, "tuple[float, ...] | None", ReplayScore, ReplayScore, dict]:
    """Worker task: one service scenario, rebuilt from shipped scalars."""
    (
        plat_name,
        name,
        launches,
        seed,
        tenants,
        utilization,
        burst_utilization,
        mean_service,
    ) = task
    return _service_outcome(
        name,
        platform=_resolve_platform(plat_name),
        seed=seed,
        launches=launches,
        tenants=tenants,
        mean_service=mean_service,
        utilization=utilization,
        burst_utilization=burst_utilization,
        policy=MemoizedPolicy(),
        memo=ExecutionMemo(),
    )


def run_service(
    *,
    launches: int = 20_000,
    seed: int = 0,
    platform: Platform = PLATFORM_P9_V100,
    tenants: int = 3,
    utilization: float = 0.6,
    burst_utilization: float = BURST_UTILIZATION,
    scenarios: tuple[str, ...] = SERVICE_SCENARIOS,
    jobs: int | None = None,
    chunk: int | None = None,
) -> ServiceResult:
    """Run the tenant-mix × load-shape grid, twinned against the FIFO.

    ``jobs``/``chunk`` fan whole scenarios over the persistent
    warm-worker pool; rows come back in scenario-declaration order with
    payloads identical to the sequential loop.
    """
    unknown = set(scenarios) - set(SERVICE_SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenarios {sorted(unknown)}")
    if tenants < 2:
        raise ValueError("the service experiment needs >= 2 tenants")

    memo = ExecutionMemo()
    policy = MemoizedPolicy()
    probe_launches = max(min(launches, 2_000), 200)
    mean_service = _probe_mean_service(
        platform, seed, probe_launches, policy, memo
    )

    engine = SweepEngine(jobs, chunk=chunk)
    if engine.parallel:
        outcomes = engine.map(
            _service_scenario_task,
            [
                (
                    platform.name,
                    name,
                    launches,
                    seed,
                    tenants,
                    utilization,
                    burst_utilization,
                    mean_service,
                )
                for name in scenarios
            ],
            labels=list(scenarios),
        )
    else:
        outcomes = [
            _service_outcome(
                name,
                platform=platform,
                seed=seed,
                launches=launches,
                tenants=tenants,
                mean_service=mean_service,
                utilization=utilization,
                burst_utilization=burst_utilization,
                policy=policy,
                memo=memo,
            )
            for name in scenarios
        ]

    rows = tuple(
        ServiceRow(
            scenario=name,
            shape=shape,
            tenant_weights=weights,
            score=score,
            legacy=legacy,
            outcome_counts=counts,
        )
        for name, (shape, weights, score, legacy, counts) in zip(
            scenarios, outcomes
        )
    )
    return ServiceResult(
        rows=rows,
        launches=launches,
        seed=seed,
        platform_name=platform.name,
        tenants=tenants,
        mean_service_s=mean_service,
        utilization=utilization,
        burst_utilization=burst_utilization,
    )
