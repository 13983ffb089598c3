"""Scoring a replay run: selection accuracy, dispatch-overhead tails,
detection/recovery latency per chaos window, graceful-degradation
accounting.

Two accuracy views are reported:

* **overall** — oracle-match rate over every full-path launch of the
  trace (degraded/shed requests never made a model decision and are
  excluded by construction);
* **steady-state** — the same rate restricted to launches whose service
  started *outside* every chaos window plus its trailing recovery
  margin.  This is the number the acceptance gate compares against the
  no-chaos baseline: chaos must not leak into the calm stretches.

Per fault-flavoured chaos window the scorer extracts

* **time-to-detect (TTD)** — first defensive reaction (a fault event, a
  fallback, or a drift transition) at/after the window opens, minus the
  open time;
* **time-to-recover (TTR)** — first clean accelerator launch (GPU
  target, no faults, no fallback) at/after the window closes, minus the
  close time.

For ``hw-drift`` windows the sentinel's own timestamped transition log
provides both edges: TTD is the first ``→ DRIFTED`` transition inside
the window, TTR the first return to CALIBRATED after it closes.  All
times are simulated seconds — a replay scored twice yields the same
bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..drift import DriftState
from ..obs import QuantileSketch
from .chaos import ChaosWindow
from .engine import ReplayRun

__all__ = ["WindowScore", "TenantScore", "ReplayScore", "score_run"]


@dataclass(frozen=True)
class WindowScore:
    """Detection + recovery latency for one chaos window."""

    window: str
    kind: str
    start_s: float
    stop_s: float
    ttd_s: float | None  # None = never detected
    ttr_s: float | None  # None = never recovered

    @property
    def detected(self) -> bool:
        return self.ttd_s is not None

    @property
    def recovered(self) -> bool:
        return self.ttr_s is not None


@dataclass(frozen=True)
class TenantScore:
    """Completion-latency tails one tenant observed."""

    tenant: str  # "default" for the anonymous single-tenant trace
    launches: int  # served requests (admitted + resumed + degraded)
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float


@dataclass(frozen=True)
class ReplayScore:
    """One replay run, reduced to its gateable numbers."""

    launches: int  # full-path launches (admitted + resumed)
    requests: int  # trace length
    horizon_s: float
    overall_accuracy: float
    steady_accuracy: float
    steady_launches: int
    overhead_p50_s: float  # over launches with nonzero overhead only
    overhead_p99_s: float
    overhead_zero: int  # zero-overhead launches excluded from the tails
    overhead_nonfinite: int
    completion_p50_s: float  # arrival -> winning finish, every served request
    completion_p99_s: float
    #: completion tails over the chaos-affected stretch only (service
    #: started inside a window + recovery margin); 0.0 without chaos.
    #: The trace-wide p99 is pinned by steady-state burst peaks, so this
    #: is the tail a mitigation (hedging) can actually move.
    chaos_completion_p50_s: float
    chaos_completion_p99_s: float
    shed_fraction: float
    degraded_fraction: float
    expired: int  # budget drained while queueing (host-only path)
    deferred: int
    resumed: int
    max_queue_depth: int
    max_wait_s: float
    fallbacks: int
    fault_events: int
    hedged: int  # launches whose host backup actually started
    hedge_wins: int  # ... and finished first
    hedge_extra_fraction: float  # duplicated work / total served seconds
    windows: tuple[WindowScore, ...]
    #: per-tenant completion tails, sorted by tenant label
    tenants: tuple[TenantScore, ...] = ()
    #: max/min ratio of per-tenant p99 latency (1.0 = perfectly fair or
    #: fewer than two tenants; inf = some tenant's p99 is zero while
    #: another's is not)
    fairness_p99: float = 1.0
    #: per-device lane accounting snapshot (None on the serial shape,
    #: whose one lane the queue-level fields above already describe)
    service: dict | None = None

    def window(self, name: str) -> WindowScore:
        for w in self.windows:
            if w.window == name:
                return w
        raise KeyError(name)

    def to_payload(self) -> dict:
        """JSON-safe dump (NaN-free: absent latencies become None)."""
        return {
            "launches": self.launches,
            "requests": self.requests,
            "horizon_s": self.horizon_s,
            "overall_accuracy": self.overall_accuracy,
            "steady_accuracy": self.steady_accuracy,
            "steady_launches": self.steady_launches,
            "overhead_p50_s": self.overhead_p50_s,
            "overhead_p99_s": self.overhead_p99_s,
            "overhead_zero": self.overhead_zero,
            "overhead_nonfinite": self.overhead_nonfinite,
            "completion_p50_s": self.completion_p50_s,
            "completion_p99_s": self.completion_p99_s,
            "chaos_completion_p50_s": self.chaos_completion_p50_s,
            "chaos_completion_p99_s": self.chaos_completion_p99_s,
            "shed_fraction": self.shed_fraction,
            "degraded_fraction": self.degraded_fraction,
            "expired": self.expired,
            "deferred": self.deferred,
            "resumed": self.resumed,
            "max_queue_depth": self.max_queue_depth,
            "max_wait_s": self.max_wait_s,
            "fallbacks": self.fallbacks,
            "fault_events": self.fault_events,
            "hedged": self.hedged,
            "hedge_wins": self.hedge_wins,
            "hedge_extra_fraction": self.hedge_extra_fraction,
            "windows": [
                {
                    "window": w.window,
                    "kind": w.kind,
                    "start_s": w.start_s,
                    "stop_s": w.stop_s,
                    "ttd_s": w.ttd_s,
                    "ttr_s": w.ttr_s,
                }
                for w in self.windows
            ],
            "tenants": [
                {
                    "tenant": t.tenant,
                    "launches": t.launches,
                    "latency_p50_s": t.latency_p50_s,
                    "latency_p95_s": t.latency_p95_s,
                    "latency_p99_s": t.latency_p99_s,
                }
                for t in self.tenants
            ],
            "fairness_p99": (
                self.fairness_p99 if math.isfinite(self.fairness_p99) else None
            ),
            "service": self.service,
        }


def _is_clean_gpu(record) -> bool:
    if record.fault_events or record.fallback is not None:
        return False
    return record.target == "gpu"


def _fault_window_latencies(
    run: ReplayRun, window: ChaosWindow
) -> tuple[float | None, float | None]:
    ttd = None
    ttr = None
    for o in run.outcomes:
        if o.record is None or o.start_s is None:
            continue
        if ttd is None and window.start_s <= o.start_s < window.stop_s:
            r = o.record
            if r.fault_events or r.fallback is not None:
                ttd = o.start_s - window.start_s
        if ttr is None and o.start_s >= window.stop_s and _is_clean_gpu(o.record):
            ttr = o.start_s - window.stop_s
        if ttd is not None and ttr is not None:
            break
    return ttd, ttr


def _drift_window_latencies(
    run: ReplayRun, window: ChaosWindow
) -> tuple[float | None, float | None]:
    sentinel = run.sentinel
    if sentinel is None:
        return None, None
    ttd = None
    ttr = None
    for t, _device, _region, _before, after in sentinel.transitions:
        if (
            ttd is None
            and after is DriftState.DRIFTED
            and window.start_s <= t
        ):
            ttd = t - window.start_s
        if (
            ttr is None
            and after is DriftState.CALIBRATED
            and t >= window.stop_s
        ):
            ttr = t - window.stop_s
        if ttd is not None and ttr is not None:
            break
    return ttd, ttr


def score_run(run: ReplayRun, *, recovery_margin_s: float = 0.0) -> ReplayScore:
    """Reduce one run to its gateable numbers.

    ``recovery_margin_s`` extends every chaos window when carving out
    the steady-state accuracy view: launches started inside
    ``[start, stop + margin)`` are excluded, so transient post-window
    healing (breaker half-open probes, health-penalty decay, sentinel
    re-promotion) does not count against the steady state it is busy
    restoring.
    """
    windows = run.config.chaos.windows

    def in_any_window(start_s: float) -> bool:
        return any(
            w.start_s <= start_s < w.stop_s + recovery_margin_s for w in windows
        )

    # one pass over the outcomes, reading each launch's verdict once
    launches = correct = steady = steady_correct = 0
    overhead = QuantileSketch()
    overhead_zero = 0
    fallbacks = 0
    fault_events = 0
    hedged = 0
    hedge_wins = 0
    hedge_extra_s = 0.0
    completion = QuantileSketch()
    chaos_completion = QuantileSketch()
    tenant_sketches: dict[str, QuantileSketch] = {}
    service_total_s = 0.0
    expired = 0
    for o in run.outcomes:
        if o.outcome == "expired":
            expired += 1
        record = o.record
        if record is None:
            continue
        in_window = in_any_window(o.start_s or 0.0)
        # degraded *and* expired requests never made a model decision, so
        # they are excluded from the accuracy/overhead views (but still
        # count toward the completion-latency tails every client feels)
        if o.outcome not in ("degraded", "expired"):
            launches += 1
            hit = record.decision_correct
            if hit:
                correct += 1
            if not in_window:
                steady += 1
                if hit:
                    steady_correct += 1
            # zero-overhead launches (no retries, no deadline burn) would
            # collapse the sketch's low buckets and pin p50/p99 to 0.0;
            # they are counted apart so the tails reflect real dispatch work
            if record.overhead_seconds != 0.0:
                overhead.observe(record.overhead_seconds)
            else:
                overhead_zero += 1
            if record.fallback is not None:
                fallbacks += 1
            fault_events += len(record.fault_events)
            h = record.hedge
            if h is not None:
                hedged += 1
                if h.winner == "backup":
                    hedge_wins += 1
                hedge_extra_s += h.extra_work_s
        if o.start_s is None:
            continue
        # per-device lanes record the pipeline finish (D2H done); the
        # serial shape leaves it None, so its latency is start + E
        finish = (
            o.finish_s
            if o.finish_s is not None
            else o.start_s + record.executed_seconds
        )
        latency = finish - o.arrival_s
        completion.observe(latency)
        if in_window:
            chaos_completion.observe(latency)
        # the record carries the issuing request's tenant
        label = record.tenant or "default"
        sketch = tenant_sketches.get(label)
        if sketch is None:
            sketch = tenant_sketches[label] = QuantileSketch()
        sketch.observe(latency)
        service_total_s += record.executed_seconds

    scored_windows = []
    for w in windows:
        if w.kind == "hw-drift":
            ttd, ttr = _drift_window_latencies(run, w)
        else:
            ttd, ttr = _fault_window_latencies(run, w)
        scored_windows.append(
            WindowScore(
                window=w.name,
                kind=w.kind,
                start_s=w.start_s,
                stop_s=w.stop_s,
                ttd_s=ttd,
                ttr_s=ttr,
            )
        )

    requests = len(run.requests)
    q = run.queue

    def tail(sketch: QuantileSketch, quantile: float) -> float:
        # an empty sketch (e.g. every launch memo-fast) reads as 0.0 so
        # downstream isfinite() gates stay meaningful
        return sketch.quantile(quantile) if sketch.count else 0.0

    tenant_scores = tuple(
        TenantScore(
            tenant=label,
            launches=sketch.count,
            latency_p50_s=tail(sketch, 0.50),
            latency_p95_s=tail(sketch, 0.95),
            latency_p99_s=tail(sketch, 0.99),
        )
        for label, sketch in sorted(tenant_sketches.items())
    )
    fairness = 1.0
    if len(tenant_scores) >= 2:
        p99s = [t.latency_p99_s for t in tenant_scores]
        hi, lo = max(p99s), min(p99s)
        if lo > 0.0:
            fairness = hi / lo
        elif hi > 0.0:
            fairness = math.inf

    return ReplayScore(
        launches=launches,
        requests=requests,
        horizon_s=run.horizon_s,
        overall_accuracy=(correct / launches) if launches else math.nan,
        steady_accuracy=(steady_correct / steady) if steady else math.nan,
        steady_launches=steady,
        overhead_p50_s=tail(overhead, 0.50),
        overhead_p99_s=tail(overhead, 0.99),
        overhead_zero=overhead_zero,
        overhead_nonfinite=overhead.nonfinite,
        completion_p50_s=tail(completion, 0.50),
        completion_p99_s=tail(completion, 0.99),
        chaos_completion_p50_s=tail(chaos_completion, 0.50),
        chaos_completion_p99_s=tail(chaos_completion, 0.99),
        shed_fraction=(q.shed / requests) if requests else 0.0,
        degraded_fraction=(q.degraded / requests) if requests else 0.0,
        expired=expired,
        deferred=q.deferred,
        resumed=q.resumed,
        max_queue_depth=q.max_depth,
        max_wait_s=q.max_wait_s,
        fallbacks=fallbacks,
        fault_events=fault_events,
        hedged=hedged,
        hedge_wins=hedge_wins,
        hedge_extra_fraction=(
            (hedge_extra_s / service_total_s) if service_total_s > 0.0 else 0.0
        ),
        windows=tuple(scored_windows),
        tenants=tenant_scores,
        fairness_p99=fairness,
        service=q.snapshot() if run.service.overlap else None,
    )
