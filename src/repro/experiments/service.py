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

Gates (``ServiceRow.failures``; ``ServiceResult.passed`` when the grid
has none): per row, steady-state selection accuracy stays within
:data:`MAX_SERVICE_ACCURACY_DELTA` of the serial twin, per-tenant
percentiles are recorded and their p99 fairness stays under
:data:`MAX_FAIRNESS_P99`; across the grid, at least
:data:`MIN_OVERLAP_WINS` scenarios must show the service beating the
serial FIFO on the tail the scenario stresses (chaos-window p99 for
storms, trace-wide p99 for bursts).  The CLI and
``benchmarks/bench_service.py`` both judge by these checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machines import PLATFORM_P9_V100, Platform
from ..replay import ChaosSchedule, ReplayConfig, ReplayScore, score_run
from ..util import render_table
from .traffic import CalibratedTrace, calibrate, fan_out

__all__ = [
    "MAX_SERVICE_ACCURACY_DELTA",
    "MAX_FAIRNESS_P99",
    "MIN_OVERLAP_WINS",
    "SERVICE_SCENARIOS",
    "ServiceRow",
    "ServiceResult",
    "run_service",
]

#: Self-check thresholds (see ServiceRow.failures and ServiceResult.failures).
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
    def failures(self) -> tuple[str, ...]:
        """Every check this scenario fails, as human-readable strings."""
        s, name = self.score, self.scenario
        out = []
        if not math.isfinite(s.completion_p99_s):
            out.append(f"{name}: completion p99 not finite")
        if s.overhead_nonfinite:
            out.append(
                f"{name}: {s.overhead_nonfinite} nonfinite "
                "dispatch-overhead observations"
            )
        # both twins served the whole trace (conservation across lanes)
        if s.requests != self.legacy.requests or s.launches != self.legacy.launches:
            out.append(
                f"{name}: twins disagree on served launches "
                f"({s.launches} vs {self.legacy.launches})"
            )
        if abs(self.accuracy_delta) > MAX_SERVICE_ACCURACY_DELTA:
            out.append(
                f"{name}: steady accuracy moved {self.accuracy_delta:+.4f} "
                f"vs the FIFO twin (|delta| > {MAX_SERVICE_ACCURACY_DELTA})"
            )
        if not (math.isfinite(s.fairness_p99) and s.fairness_p99 <= MAX_FAIRNESS_P99):
            out.append(
                f"{name}: tenant p99 fairness {s.fairness_p99:.3f} "
                f"> {MAX_FAIRNESS_P99}"
            )
        if not s.tenants:
            out.append(f"{name}: no per-tenant percentiles recorded")
        return tuple(out)

    @property
    def ok(self) -> bool:
        return not self.failures


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
    def failures(self) -> tuple[str, ...]:
        out = [f for row in self.rows for f in row.failures]
        if self.overlap_wins < MIN_OVERLAP_WINS:
            out.append(
                f"only {self.overlap_wins} overlap wins across the grid "
                f"(< {MIN_OVERLAP_WINS}): pipelining never beat the serial FIFO"
            )
        return tuple(out)

    @property
    def passed(self) -> bool:
        return not self.failures

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


def _service_scenario(
    trace: CalibratedTrace,
    name: str,
    tenants: int,
    utilization: float,
    burst_utilization: float,
) -> tuple[str, "tuple[float, ...] | None", ReplayScore, ReplayScore, dict]:
    """One scenario's (shape, weights, service score, serial score, counts)."""
    mix, shape = name.split("-", 1)
    weights = SKEWED_WEIGHTS if mix == "skewed" else None
    workload = trace.workload(
        burst_utilization if shape == "burst" else utilization,
        tenants=tenants,
        tenant_weights=weights,
    )
    requests = trace.requests(workload)
    chaos = ChaosSchedule()
    margin = 0.0
    if shape == "storm":
        window = trace.window(requests)
        chaos = trace.chaos("fault-storm", window, name="storm")
        margin = window[1] - window[0]
    base = dict(platform=trace.platform, workload=workload, chaos=chaos)
    legacy_run = trace.run(ReplayConfig(**base), requests)
    service_run = trace.run(ReplayConfig(**base, service=True), requests)
    legacy = score_run(legacy_run, recovery_margin_s=margin)
    score = score_run(service_run, recovery_margin_s=margin)
    return shape, weights, score, legacy, service_run.outcome_counts()


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

    trace = calibrate(platform, launches, seed)
    outcomes = fan_out(
        _service_scenario,
        trace,
        scenarios,
        tenants,
        utilization,
        burst_utilization,
        jobs=jobs,
        chunk=chunk,
    )
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
        mean_service_s=trace.mean_service_s,
        utilization=utilization,
        burst_utilization=burst_utilization,
    )
