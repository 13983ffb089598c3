"""Traffic-scale chaos replay: the production-robustness experiment.

Not a paper artefact — the capstone robustness experiment
(docs/ROBUSTNESS.md).  One seeded, Zipf-popularity, bursty trace is
generated per run (:mod:`repro.replay`), its arrival rate calibrated
from a chaos-free probe so the steady scenario sits at a stated
utilization, and then replayed through the full resilient runtime under
a scenario grid:

* **steady**          — no chaos, unbounded queue: the accuracy and
  overhead baseline every other scenario is gated against;
* **fault-storm**     — 75% of accelerator attempts fault (retryably)
  over a mid-trace window;
* **brownout**        — every accelerator attempt fails over the window
  (the card fell over); the breaker must open and later re-close;
* **link-degraded**   — 35% transfer faults over the window (flaky
  interconnect, mostly absorbed by the retry budget);
* **hw-drift**        — the device *actually* runs 6x slower over the
  window (``time_dilation``): the drift sentinel must detect from the
  residuals and re-calibrate after;
* **overload-reject / -degrade / -defer** — the trace is compressed to
  ~3x offered load against a bounded admission queue, one row per
  load-shedding policy;
* **hedged-chaos**    — the fault-storm chaos replayed twice: once with
  speculative host backups armed (tail-at-scale hedging: a backup
  starts once the primary outlives its case's p95), once without.  The
  hedged arm must actually fire and win, cut the chaos-affected p99
  completion latency vs its unhedged twin, and duplicate at most
  :data:`MAX_HEDGE_EXTRA_FRACTION` of the served seconds.

Gates (``ReplayRow.failures``; ``ReplayResult.passed`` when the grid has
none): chaos scenarios keep steady-state selection accuracy within
:data:`MAX_ACCURACY_DROP` of the baseline, detect every window within
:data:`MAX_TTD_FRACTION` of its duration and recover within
:data:`MAX_TTR_S`; every scenario's dispatch-overhead p99 is finite;
overload scenarios keep the queue depth bounded by its capacity while
shedding/degrading/deferring a nonzero fraction.  The CLI and
``benchmarks/bench_replay.py`` (at the 10⁵-launch scale) both judge by
these checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machines import PLATFORM_P9_V100, Platform
from ..replay import AdmissionConfig, ReplayConfig, ReplayScore, score_run
from ..util import render_table
from .traffic import CalibratedTrace, calibrate, fan_out

__all__ = [
    "MAX_ACCURACY_DROP",
    "MAX_TTD_FRACTION",
    "MAX_TTR_S",
    "MAX_HEDGE_EXTRA_FRACTION",
    "MIN_HEDGE_WINS",
    "REPLAY_SCENARIOS",
    "ReplayRow",
    "ReplayResult",
    "run_replay",
]

#: Self-check thresholds (see ReplayRow.failures).
MAX_ACCURACY_DROP = 0.01  # steady-state accuracy loss vs the no-chaos baseline
MAX_TTD_FRACTION = 0.25  # detection within this fraction of the window
MAX_TTR_S = 2.0  # simulated seconds from window close to clean recovery
MAX_HEDGE_EXTRA_FRACTION = 0.15  # duplicated work hedging may burn
MIN_HEDGE_WINS = 1  # races a hedged backup must win

REPLAY_SCENARIOS = (
    "steady",
    "fault-storm",
    "brownout",
    "link-degraded",
    "hw-drift",
    "overload-reject",
    "overload-degrade",
    "overload-defer",
    "hedged-chaos",
)

_OVERLOAD_POLICIES = {
    "overload-reject": "reject",
    "overload-degrade": "degrade",
    "overload-defer": "defer",
}


@dataclass(frozen=True)
class ReplayRow:
    """One scenario's score plus its gate verdict inputs."""

    scenario: str
    flavour: str  # "baseline" | "chaos" | "overload" | "hedged"
    score: ReplayScore
    baseline_steady_accuracy: float
    capacity: int | None  # admission bound (overload rows)
    outcome_counts: dict
    #: the unhedged twin's score (hedged rows only): same trace, same
    #: chaos, same budget — the only delta is the HedgePolicy
    unhedged: ReplayScore | None = None

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_steady_accuracy - self.score.steady_accuracy

    @property
    def failures(self) -> tuple[str, ...]:
        """Every check this scenario fails, as human-readable strings."""
        s, name = self.score, self.scenario
        out = []
        if s.overhead_nonfinite:
            out.append(
                f"{name}: {s.overhead_nonfinite} nonfinite "
                "dispatch-overhead observations"
            )
        if not math.isfinite(s.overhead_p99_s):
            out.append(f"{name}: dispatch-overhead p99 not finite")
        if self.flavour == "baseline":
            if s.fault_events or s.fallbacks:
                out.append(f"{name}: chaos-free baseline faulted")
            if s.shed_fraction or s.degraded_fraction:
                out.append(f"{name}: chaos-free baseline shed traffic")
        elif self.flavour == "chaos":
            if self.accuracy_drop > MAX_ACCURACY_DROP:
                out.append(
                    f"{name}: steady accuracy dropped "
                    f"{self.accuracy_drop:.4f} > {MAX_ACCURACY_DROP} vs baseline"
                )
            for w in s.windows:
                duration = w.stop_s - w.start_s
                if not w.detected:
                    out.append(f"{name}: window never detected")
                elif w.ttd_s > MAX_TTD_FRACTION * duration:
                    out.append(
                        f"{name}: ttd {w.ttd_s:.3f}s > "
                        f"{MAX_TTD_FRACTION:g} x {duration:.3f}s window"
                    )
                if not w.recovered:
                    out.append(f"{name}: never recovered")
                elif w.ttr_s > MAX_TTR_S:
                    out.append(f"{name}: ttr {w.ttr_s:.3f}s > {MAX_TTR_S}s")
        elif self.flavour == "hedged":
            # hedging must actually fire, win, cut the chaos-affected p99
            # completion latency vs the unhedged twin (the trace-wide p99
            # is pinned by steady-state burst peaks no backup can touch),
            # and stay under the duplicated-work ceiling — a hedge that
            # only burns is a bug
            u = self.unhedged
            if u is None or s.hedged == 0:
                out.append(f"{name}: no backups armed")
            elif s.hedge_wins < MIN_HEDGE_WINS:
                out.append(f"{name}: {s.hedge_wins} hedge wins < {MIN_HEDGE_WINS}")
            elif not s.chaos_completion_p99_s < u.chaos_completion_p99_s:
                out.append(
                    f"{name}: chaos p99 {s.chaos_completion_p99_s:.6f}s "
                    f"not below unhedged {u.chaos_completion_p99_s:.6f}s"
                )
            if not s.hedge_extra_fraction <= MAX_HEDGE_EXTRA_FRACTION:
                out.append(
                    f"{name}: duplicated-work fraction "
                    f"{s.hedge_extra_fraction:.4f} > {MAX_HEDGE_EXTRA_FRACTION}"
                )
        else:  # overload: the bound must hold and the policy must visibly shed
            if self.capacity is not None and s.max_queue_depth > self.capacity:
                out.append(
                    f"{name}: queue depth {s.max_queue_depth} "
                    f"exceeded capacity {self.capacity}"
                )
            if name == "overload-reject":
                if not s.shed_fraction > 0.0:
                    out.append("overload-reject: nothing shed")
                if s.degraded_fraction != 0.0:
                    out.append("overload-reject: degraded traffic to host")
            elif name == "overload-degrade":
                if not s.degraded_fraction > 0.0:
                    out.append("overload-degrade: nothing degraded to host")
                if s.shed_fraction != 0.0:
                    out.append("overload-degrade: shed traffic")
            elif s.deferred == 0 or s.resumed == 0:
                out.append("overload-defer: nothing deferred and resumed")
        return tuple(out)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ReplayResult:
    """The full scenario grid of one traffic replay run."""

    rows: tuple[ReplayRow, ...]
    launches: int
    seed: int
    platform_name: str
    mean_service_s: float
    mean_interarrival_s: float
    utilization: float
    overload_utilization: float

    def get(self, scenario: str) -> ReplayRow:
        for row in self.rows:
            if row.scenario == scenario:
                return row
        raise KeyError(scenario)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(f for row in self.rows for f in row.failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        def pct(x: float) -> str:
            return "-" if not math.isfinite(x) else f"{x * 100:.2f}%"

        def lat(w_attr: str, row: ReplayRow) -> str:
            vals = [getattr(w, w_attr) for w in row.score.windows]
            if not vals:
                return "-"
            return "/".join("inf" if v is None else f"{v:.3f}" for v in vals)

        body = [
            [
                row.scenario,
                row.score.launches,
                pct(row.score.steady_accuracy),
                pct(row.score.overall_accuracy),
                f"{row.score.overhead_p99_s * 1e3:.3f}",
                lat("ttd_s", row),
                lat("ttr_s", row),
                pct(row.score.shed_fraction),
                pct(row.score.degraded_fraction),
                row.score.max_queue_depth,
                "ok" if row.ok else "FAIL",
            ]
            for row in self.rows
        ]
        return render_table(
            [
                "scenario",
                "launches",
                "steady acc",
                "overall acc",
                "p99 ovh (ms)",
                "ttd (s)",
                "ttr (s)",
                "shed",
                "degraded",
                "depth",
                "",
            ],
            body,
            title=(
                f"Traffic replay on {self.platform_name}: {self.launches} "
                f"requests/scenario, util {self.utilization:g} steady / "
                f"{self.overload_utilization:g} overload "
                f"(seed {self.seed})"
            ),
        )

    def to_payload(self) -> dict:
        """Deterministic JSON-safe dump (byte-identical across reruns)."""
        return {
            "launches": self.launches,
            "seed": self.seed,
            "platform": self.platform_name,
            "mean_service_s": self.mean_service_s,
            "mean_interarrival_s": self.mean_interarrival_s,
            "utilization": self.utilization,
            "overload_utilization": self.overload_utilization,
            "passed": self.passed,
            "rows": [
                {
                    "scenario": row.scenario,
                    "flavour": row.flavour,
                    "ok": row.ok,
                    "capacity": row.capacity,
                    "baseline_steady_accuracy": row.baseline_steady_accuracy,
                    "outcome_counts": row.outcome_counts,
                    **(
                        {
                            "unhedged_completion_p99_s": (
                                row.unhedged.completion_p99_s
                            ),
                            "unhedged_chaos_completion_p99_s": (
                                row.unhedged.chaos_completion_p99_s
                            ),
                            "unhedged_chaos_completion_p50_s": (
                                row.unhedged.chaos_completion_p50_s
                            ),
                        }
                        if row.unhedged is not None
                        else {}
                    ),
                    **row.score.to_payload(),
                }
                for row in self.rows
            ],
        }


def _replay_scenario(
    trace: CalibratedTrace,
    name: str,
    utilization: float,
    overload_utilization: float,
    capacity: int,
) -> tuple[str, ReplayScore, dict, "ReplayScore | None"]:
    """One scenario's (flavour, score, outcome_counts, unhedged twin)."""
    if name in _OVERLOAD_POLICIES:
        run = trace.run(
            ReplayConfig(
                platform=trace.platform,
                workload=trace.workload(overload_utilization),
                admission=AdmissionConfig(
                    capacity=capacity,
                    policy=_OVERLOAD_POLICIES[name],
                    defer_capacity=max(capacity * 8, 64),
                ),
            )
        )
        return "overload", score_run(run), run.outcome_counts(), None
    workload = trace.workload(utilization)
    requests = trace.requests(workload)
    window = trace.window(requests)

    def replay(**extra):
        run = trace.run(
            ReplayConfig(platform=trace.platform, workload=workload, **extra),
            requests,
        )
        return run, score_run(run, recovery_margin_s=window[1] - window[0])

    if name == "steady":
        run, score = replay()
        return "baseline", score, run.outcome_counts(), None
    if name == "hedged-chaos":
        # the hedged arm and its unhedged twin share the trace and the
        # fault-storm chaos; the *only* delta is the HedgePolicy, so the
        # chaos-tail p99 comparison is causal
        run, score = replay(chaos=trace.chaos("fault-storm", window), hedge=True)
        _, unhedged = replay(chaos=trace.chaos("fault-storm", window))
        return "hedged", score, run.outcome_counts(), unhedged
    # the chaos scenario names coincide with the window kinds
    run, score = replay(chaos=trace.chaos(name, window))
    return "chaos", score, run.outcome_counts(), None


def run_replay(
    *,
    launches: int = 20_000,
    seed: int = 0,
    platform: Platform = PLATFORM_P9_V100,
    utilization: float = 0.6,
    overload_utilization: float = 3.0,
    capacity: int = 32,
    scenarios: tuple[str, ...] = REPLAY_SCENARIOS,
    jobs: int | None = None,
    chunk: int | None = None,
) -> ReplayResult:
    """Run the scenario grid over one calibrated trace.

    ``jobs``/``chunk`` fan whole scenarios over the persistent
    warm-worker pool; rows come back in scenario-declaration order with
    payloads identical to the sequential loop.
    """
    unknown = set(scenarios) - set(REPLAY_SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenarios {sorted(unknown)}")
    if "steady" not in scenarios:
        raise ValueError("the steady baseline scenario is required")

    trace = calibrate(platform, launches, seed)
    outcomes = fan_out(
        _replay_scenario,
        trace,
        scenarios,
        utilization,
        overload_utilization,
        capacity,
        jobs=jobs,
        chunk=chunk,
    )
    rows: list[ReplayRow] = []
    baseline_steady = math.nan
    for name, (flavour, score, counts, unhedged) in zip(scenarios, outcomes):
        if name == "steady":
            baseline_steady = score.steady_accuracy
        rows.append(
            ReplayRow(
                scenario=name,
                flavour=flavour,
                score=score,
                baseline_steady_accuracy=baseline_steady,
                capacity=capacity if flavour == "overload" else None,
                outcome_counts=counts,
                unhedged=unhedged,
            )
        )

    return ReplayResult(
        rows=tuple(rows),
        launches=launches,
        seed=seed,
        platform_name=platform.name,
        mean_service_s=trace.mean_service_s,
        mean_interarrival_s=trace.mean_service_s / utilization,
        utilization=utilization,
        overload_utilization=overload_utilization,
    )
