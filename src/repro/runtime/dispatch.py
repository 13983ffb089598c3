"""The unified dispatch core both offloading runtimes parameterize.

Both :class:`~repro.runtime.OffloadingRuntime` (host + one accelerator)
and :class:`~repro.runtime.MultiDeviceRuntime` (host + N accelerators)
run the same pipeline per launch::

    predict -> lint-gate -> select -> admit -> resilient-launch
            -> record / drift / metrics

Before this module each runtime carried its own copy of every stage, and
every robustness subsystem (faults, lint, drift, obs, replay) had to be
wired twice.  :class:`DispatchCore` owns the shared stages; the runtimes
keep only their genuinely different selection logic (a binary policy
choice vs. an N-way health-corrected argmin).  The core reads its
collaborators (``injector``, ``lint_gate``, ``sentinel``, ``watchdog``,
``metrics``, ``memo``, ``time_dilation``, ``bulkheads``, ``hedge``)
*dynamically* off the owning runtime — the replay engine assigns the
injector and the chaos dilation hook after runtime construction, so the
core must never snapshot them.

Three robustness mechanisms the duplication previously blocked live
here (docs/ROBUSTNESS.md):

* :class:`Budget` — a per-request end-to-end deadline on the simulated
  clock.  Threaded through retry backoff
  (:func:`~repro.faults.dispatch_with_retries`), watchdog deadlines
  (the tighter of watchdog and remaining budget kills the launch) and
  the replay engine's admission wait, so queueing + retries can never
  spend more than the request has left.  Exhaustion is a typed
  :class:`~repro.faults.BudgetExhausted` feeding the health/breaker
  machinery.
* :class:`HedgePolicy` — speculative host backups.  When predictor
  confidence is low (drift-flagged stream, circuit half-open) or the
  remaining budget is tight, a host backup starts after a
  quantile-derived delay; the first finisher on the simulated clock
  wins, the loser is cancelled, and the duplicated work is attributed
  honestly (:class:`HedgeOutcome` provenance on the record, metrics).
* :class:`Bulkhead` — bounded scheduled-work slots per device, so one
  browned-out card's ballooning service times cannot monopolize
  dispatch: saturated devices are skipped pre-dispatch
  (:data:`FALLBACK_BULKHEAD`) and the work reroutes.

All three default **off** (``None`` on the runtime); disabled, every
record is bit-identical to the pre-core runtimes — the differential
suite in ``tests/test_dispatch.py`` pins this.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from ..faults import (
    BudgetExhausted,
    DeadlineExceeded,
    FaultEvent,
    dispatch_with_retries,
    region_footprint_bytes,
)
from ..faults.health import BreakerState
from ..faults.resilient import FALLBACK_BREAKER, FALLBACK_BUDGET, FALLBACK_DEADLINE, FALLBACK_HEALTH
from ..obs import QuantileSketch

__all__ = [
    "FALLBACK_BULKHEAD",
    "FALLBACK_HEDGE",
    "Budget",
    "Bulkhead",
    "HedgeOutcome",
    "HedgePolicy",
    "DispatchCore",
]

#: A device whose bulkhead slots were all booked rerouted this launch.
FALLBACK_BULKHEAD = "bulkhead-saturated"
#: The speculative host backup finished before the accelerator primary.
FALLBACK_HEDGE = "hedge-backup-won"


@dataclass
class Budget:
    """A per-request end-to-end deadline budget on the simulated clock.

    ``total_s`` is all the simulated time this request may spend on
    *avoidable* waiting: admission-queue wait, retry backoff and
    watchdog/deadline burn are charged; productive device service time
    is not (the request has to run *somewhere*).  ``remaining()`` never
    goes negative — ``spent_s`` keeps the honest total (it may exceed
    ``total_s`` by the final unavoidable burn) while the floor is
    clamped, a property the budget property tests pin.
    """

    total_s: float
    spent_s: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.total_s) and self.total_s > 0.0):
            raise ValueError(f"budget total_s must be finite and > 0, got {self.total_s!r}")
        if self.spent_s < 0.0:
            raise ValueError("spent_s must be >= 0")

    def remaining(self) -> float:
        return max(self.total_s - self.spent_s, 0.0)

    @property
    def exhausted(self) -> bool:
        return self.spent_s >= self.total_s

    def charge(self, seconds: float) -> float:
        """Spend ``seconds``; return what is left.  Refunds are a bug."""
        if not (math.isfinite(seconds) and seconds >= 0.0):
            raise ValueError(f"cannot charge {seconds!r}s against a budget")
        self.spent_s += seconds
        return self.remaining()


class Bulkhead:
    """Bounded scheduled-but-unfinished work slots per device.

    The replay engine books every served launch as ``(device, finish
    time)``; a device whose unfinished bookings at the current simulated
    time have reached ``limit`` refuses new dispatches, which the core
    turns into a :data:`FALLBACK_BULKHEAD` reroute.  Bookings may finish
    **out of order** — the offload service schedules several servers and
    overlapped transfer phases per device, so a later booking can finish
    before an earlier one — and :meth:`pending` drains every finished
    booking, not just a sorted prefix (a stale early entry behind a late
    one would otherwise read as phantom load and pin the bulkhead
    saturated forever).  The point is isolation:
    a brownout that balloons one device's service times saturates *its*
    slots only, and traffic keeps flowing through the other backend
    instead of queueing behind the sick one.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"bulkhead limit must be >= 1, got {limit}")
        self.limit = limit
        self._pending: dict[str, deque[float]] = {}
        self.max_pending: dict[str, int] = {}
        self.rejections: dict[str, int] = {}

    def pending(self, device_name: str, now: float) -> int:
        """Bookings for ``device_name`` still unfinished at ``now``."""
        q = self._pending.get(device_name)
        if q is None:
            return 0
        while q and q[0] <= now:
            q.popleft()
        # multi-server bookings are not sorted: sweep out any finished
        # entry a still-running earlier booking is hiding behind
        if q and any(t <= now for t in q):
            live = [t for t in q if t > now]
            q.clear()
            q.extend(live)
        return len(q)

    def allows(self, device_name: str, now: float) -> bool:
        return self.pending(device_name, now) < self.limit

    def reject(self, device_name: str) -> None:
        """Account one saturated-reroute (called by the core)."""
        self.rejections[device_name] = self.rejections.get(device_name, 0) + 1

    def book(self, device_name: str, finish_s: float) -> None:
        q = self._pending.setdefault(device_name, deque())
        q.append(finish_s)
        if len(q) > self.max_pending.get(device_name, 0):
            self.max_pending[device_name] = len(q)

    def snapshot(self) -> dict:
        """Deterministic accounting dump for reports and gates."""
        return {
            "limit": self.limit,
            "max_pending": dict(sorted(self.max_pending.items())),
            "rejections": dict(sorted(self.rejections.items())),
        }


@dataclass(frozen=True)
class HedgeOutcome:
    """Provenance of one hedged launch (attached only when the backup ran).

    ``extra_work_s`` is the *duplicated* simulated compute hedging
    burned versus the unhedged flow: backup seconds spent while the
    primary was still alive.  A backup that merely started earlier than
    the serial fallback would have (primary already dead) duplicates
    nothing, so its extra work is zero — that case is pure latency win.
    """

    trigger: str  # "drift" | "half-open" | "low-budget" | "slow"
    delay_s: float  # backup start offset after dispatch began
    winner: str  # "primary" | "backup"
    completion_s: float  # end-to-end seconds of the winning path
    extra_work_s: float  # duplicated compute burned by the loser


@dataclass
class HedgePolicy:
    """When and how late to start a speculative host backup.

    The delay is the ``quantile`` of the *observed* accelerator seconds
    for this exact (device, region, env) case — the classic "hedge past
    the p95" rule, learned online from the same deterministic stream the
    records see, so seeded replays hedge identically.  No delay (and no
    hedge) until a case has ``min_samples`` observations.

    Triggers (any one arms the hedge for a launch):

    * ``on_drift`` — the drift sentinel flagged the stream, i.e. the
      prediction the selector just used is known-miscalibrated;
    * ``on_half_open`` — the device's breaker is probing (the previous
      launches failed; this one is a gamble);
    * a :class:`Budget` whose remaining time is under
      ``low_budget_factor`` × the predicted accelerator seconds — too
      poor to absorb another retry loop;
    * ``on_slow`` — arm *every* launch with a ready sketch (the classic
      tail-at-scale rule).  This stays cheap because an armed hedge is a
      no-op unless the primary actually outlives the delay: a launch
      finishing under its own p95 resolves to None and its record is
      byte-identical to an unhedged one, so only genuinely slow
      launches (chaos dilation, retry storms) ever pay for a backup.
    """

    quantile: float = 0.95
    min_samples: int = 8
    low_budget_factor: float = 2.0
    on_drift: bool = True
    on_half_open: bool = True
    on_slow: bool = False
    _sketches: dict[tuple[str, str], QuantileSketch] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self):
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.low_budget_factor <= 0.0:
            raise ValueError("low_budget_factor must be positive")

    def observe(self, device_name: str, case_key: str, seconds: float) -> None:
        key = (device_name, case_key)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = self._sketches[key] = QuantileSketch()
        sketch.observe(seconds)

    def delay(self, device_name: str, case_key: str) -> float | None:
        """Quantile-derived backup delay, or None while under-sampled."""
        sketch = self._sketches.get((device_name, case_key))
        if sketch is None or sketch.count < self.min_samples:
            return None
        return sketch.quantile(self.quantile)

    def trigger(
        self,
        *,
        drift_flagged: bool,
        half_open: bool,
        budget: Budget | None,
        predicted_gpu_s: float | None,
    ) -> str | None:
        """Why this launch should hedge, or None to run it straight."""
        if self.on_drift and drift_flagged:
            return "drift"
        if self.on_half_open and half_open:
            return "half-open"
        if (
            budget is not None
            and predicted_gpu_s is not None
            and math.isfinite(predicted_gpu_s)
            and predicted_gpu_s > 0.0
            and budget.remaining() < self.low_budget_factor * predicted_gpu_s
        ):
            return "low-budget"
        if self.on_slow:
            return "slow"
        return None


class DispatchCore:
    """The shared per-launch pipeline stages, bound to one runtime.

    Holds only a reference to its owner and reads the optional
    collaborators off it at call time (the replay engine attaches the
    injector and chaos dilation *after* construction).  Stateless apart
    from the owner reference — all accounting lives on the runtime, the
    health objects and the policy objects, exactly where it lived before
    the extraction.
    """

    def __init__(self, owner):
        self.owner = owner

    # -- launch inputs ------------------------------------------------------
    def bound(self, attrs, env: Mapping[str, int]):
        """Memo-aware runtime binding of a region's attributes."""
        memo = self.owner.memo
        return memo.bound(attrs, env) if memo is not None else attrs.bind(env)

    def footprint(self, attrs, env: Mapping[str, int]) -> int:
        memo = self.owner.memo
        if memo is not None:
            return memo.footprint(attrs, env, region_footprint_bytes)
        return region_footprint_bytes(attrs.region, env)

    def measure(self, device, attrs, env: Mapping[str, int]) -> float:
        """One device's simulated seconds, memoized and dilation-scaled."""
        owner = self.owner
        if owner.memo is not None:
            seconds = owner.memo.execution(device, attrs, env).seconds
        else:
            seconds = device.execute(attrs.region, env).seconds
        if owner.time_dilation is not None:
            seconds *= owner.time_dilation(device.kind)
        return seconds

    def sentinel_key(self, region_name: str, env: Mapping[str, int]) -> str:
        """The drift-stream key for one launch (see sentinel_stream_by_env)."""
        if not self.owner.sentinel_stream_by_env:
            return region_name
        sizes = ",".join(f"{k}={env[k]}" for k in sorted(env))
        return f"{region_name}@{sizes}"

    @staticmethod
    def case_key(region_name: str, env: Mapping[str, int]) -> str:
        """The hedge-sketch key: always per (region, env), never pooled."""
        sizes = ",".join(f"{k}={env[k]}" for k in sorted(env))
        return f"{region_name}@{sizes}"

    def lint_decision(self, region):
        gate = self.owner.lint_gate
        return gate.decide(region) if gate is not None else None

    @staticmethod
    def transfer_provenance(bound) -> str | None:
        """Record a transfer source only when it deviates from the default."""
        mode = bound.transfer_mode
        return None if mode == "declared" else mode

    # -- admission ----------------------------------------------------------
    def bulkhead_blocks(self, device_name: str) -> bool:
        """Is this device's bulkhead saturated right now?  Counts rejects."""
        bulkheads = getattr(self.owner, "bulkheads", None)
        if bulkheads is None:
            return False
        if bulkheads.allows(device_name, self.owner.clock.now):
            return False
        bulkheads.reject(device_name)
        return True

    def pre_dispatch_reroute(
        self, health, prediction, bulkhead_key: str
    ) -> tuple[str, str | None]:
        """Health feedback: skip an open-breaker or saturated device,
        penalize a flaky one (the two-device runtime's gate)."""
        if not health.breaker.allows():
            return "cpu", FALLBACK_BREAKER
        if self.bulkhead_blocks(bulkhead_key):
            return "cpu", FALLBACK_BULKHEAD
        if prediction is not None:
            penalty = health.penalty()
            if (
                penalty > 1.0
                and prediction.gpu.seconds * penalty >= prediction.cpu.seconds
            ):
                return "cpu", FALLBACK_HEALTH
        return "gpu", None

    # -- resilient launch ---------------------------------------------------
    def attempt(
        self,
        *,
        health,
        device,
        attrs,
        env: Mapping[str, int],
        launch_index: int,
        budget: Budget | None = None,
    ):
        """One accelerator's bounded-retry dispatch under the fault plan."""
        owner = self.owner
        return dispatch_with_retries(
            injector=owner.injector,
            retry=owner.retry,
            clock=owner.clock,
            health=health,
            device_name=device.name,
            launch_index=launch_index,
            footprint_bytes=self.footprint(attrs, env),
            memory_bytes=int(device.gpu.mem_size_gib * 2**30),
            budget=budget,
        )

    # -- watchdog / budget kill ---------------------------------------------
    def kill_overrun(
        self,
        *,
        health,
        device_name: str,
        basis_seconds: float,
        observed_seconds: float,
        launch_index: int,
        attempt: int,
        budget: Budget | None = None,
        detail: str = "",
    ) -> tuple[FaultEvent, float, str] | None:
        """Kill a dispatch that overran its deadline; feed the breaker.

        The deadline is the watchdog's ``predicted × factor + slack``,
        tightened to the remaining budget when one is attached and
        poorer.  Returns ``(event, burned_seconds, fallback_label)`` —
        the caller adds the burn to its overhead — or None within
        bounds.  The burn is advanced on the clock and charged to the
        budget here, so every caller accounts it identically.
        """
        owner = self.owner
        deadline = owner.watchdog.deadline(basis_seconds)
        source = "watchdog"
        if budget is not None and budget.remaining() < deadline:
            deadline, source = budget.remaining(), "budget"
        if observed_seconds <= deadline:
            return None
        if source == "watchdog":
            err: BudgetExhausted | DeadlineExceeded = DeadlineExceeded(
                f"device time {observed_seconds:.3e}s exceeded watchdog "
                f"deadline {deadline:.3e}s{detail}",
                device_name=device_name,
                launch_index=launch_index,
                attempt=attempt,
                deadline_seconds=deadline,
                observed_seconds=observed_seconds,
            )
            fallback = FALLBACK_DEADLINE
        else:
            err = BudgetExhausted(
                f"device time {observed_seconds:.3e}s exceeded remaining "
                f"budget {deadline:.3e}s",
                device_name=device_name,
                launch_index=launch_index,
                attempt=attempt,
                budget_seconds=budget.total_s,
                remaining_seconds=deadline,
            )
            fallback = FALLBACK_BUDGET
        health.record_failure(err)
        event = FaultEvent(
            device_name=err.device_name,
            launch_index=err.launch_index,
            attempt=err.attempt,
            error_type=type(err).__name__,
            message=str(err),
        )
        # the deadline's worth of device time was burned before the kill
        owner.clock.advance(deadline)
        if budget is not None:
            budget.charge(deadline)
        return event, deadline, fallback

    # -- hedging -------------------------------------------------------------
    def hedge_plan(
        self,
        *,
        device_name: str,
        region_name: str,
        env: Mapping[str, int],
        drift_flagged: bool,
        half_open: bool,
        budget: Budget | None,
        predicted_gpu_s: float | None,
    ) -> tuple[str, float] | None:
        """Decide pre-dispatch whether to arm a host backup.

        Returns ``(trigger, delay_s)`` or None.  None whenever no hedge
        policy is attached, the trigger conditions are calm, or the
        case's accelerator-seconds sketch is still under-sampled — the
        no-plan path touches nothing, keeping records bit-identical.
        """
        policy = getattr(self.owner, "hedge", None)
        if policy is None:
            return None
        trigger = policy.trigger(
            drift_flagged=drift_flagged,
            half_open=half_open,
            budget=budget,
            predicted_gpu_s=predicted_gpu_s,
        )
        if trigger is None:
            return None
        delay = policy.delay(device_name, self.case_key(region_name, env))
        if delay is None or not math.isfinite(delay):
            return None
        return trigger, delay

    @staticmethod
    def hedge_resolve(
        plan: tuple[str, float] | None,
        *,
        primary_ok: bool,
        primary_seconds: float,
        backup_seconds: float,
        overhead_seconds: float,
    ) -> HedgeOutcome | None:
        """Race the armed backup against the primary on the simulated clock.

        All times are offsets from dispatch begin.  A successful primary
        finishes at ``overhead + primary_seconds``; a failed one died at
        ``overhead`` (backoff burned before giving up).  The backup
        starts at ``delay`` and finishes at ``delay + backup_seconds``.
        First finisher wins; ties go to the primary (deterministic).
        Returns None when the backup never started — that launch is
        byte-identical to an unhedged one.
        """
        if plan is None:
            return None
        trigger, delay = plan
        if primary_ok:
            primary_finish = overhead_seconds + primary_seconds
            if delay >= primary_finish:
                return None  # primary won before the backup would start
            backup_finish = delay + backup_seconds
            if backup_finish < primary_finish:
                # cancel the primary: it burned until the backup finished
                return HedgeOutcome(
                    trigger=trigger,
                    delay_s=delay,
                    winner="backup",
                    completion_s=backup_finish,
                    extra_work_s=backup_seconds,
                )
            # primary won the race; the backup burned from delay until then
            return HedgeOutcome(
                trigger=trigger,
                delay_s=delay,
                winner="primary",
                completion_s=primary_finish,
                extra_work_s=primary_finish - delay,
            )
        # primary failed at `overhead`; the backup is the only finisher
        if delay >= overhead_seconds:
            return None  # the serial fallback starts no later anyway
        return HedgeOutcome(
            trigger=trigger,
            delay_s=delay,
            winner="backup",
            completion_s=delay + backup_seconds,
            extra_work_s=0.0,  # the fallback would run the backup regardless
        )

    def hedge_observe(
        self,
        device_name: str,
        region_name: str,
        env: Mapping[str, int],
        seconds: float,
    ) -> None:
        """Feed a case's accelerator seconds into the delay sketch."""
        policy = getattr(self.owner, "hedge", None)
        if policy is not None:
            policy.observe(device_name, self.case_key(region_name, env), seconds)

    @staticmethod
    def half_open(health) -> bool:
        return health.breaker.state is BreakerState.HALF_OPEN

    # -- sentinel -------------------------------------------------------------
    def observe_sentinel_pair(
        self,
        stream_key: str,
        prediction,
        cpu_seconds: float,
        gpu_seconds: float,
    ) -> None:
        """Feed both streams; count verdict transitions when metrics are on."""
        owner = self.owner
        sentinel, metrics = owner.sentinel, owner.metrics
        before = (
            {dev: sentinel.state(dev, stream_key) for dev in ("cpu", "gpu")}
            if metrics is not None
            else None
        )
        sentinel.observe("cpu", stream_key, prediction.cpu.seconds, cpu_seconds)
        sentinel.observe("gpu", stream_key, prediction.gpu.seconds, gpu_seconds)
        if metrics is not None:
            for dev in ("cpu", "gpu"):
                after = sentinel.state(dev, stream_key)
                if after is not before[dev]:
                    metrics.counter(
                        "drift_transitions_total", device=dev, to=after.value
                    ).inc()

    # -- metrics --------------------------------------------------------------
    def record_metrics(
        self,
        record,
        *,
        executed_device: str,
        retries_labels: Mapping[str, str],
        healths,
        pred_triples,
    ) -> None:
        """Fold one launch's outcome into the registry (observe-only).

        ``healths`` is an iterable of (device name, DeviceHealth);
        ``pred_triples`` of (device label, predicted s, observed s).
        Zero-overhead launches (no retries, no deadline burn — the memo
        fast path among them) are counted separately instead of
        collapsing the overhead sketch's lowest bucket, so the p50/p99
        tails reflect real dispatch work.
        """
        metrics = self.owner.metrics
        metrics.counter("launches_total", device=executed_device).inc()
        tenant = getattr(record, "tenant", None)
        if tenant is not None:
            metrics.counter("tenant_launches_total", tenant=tenant).inc()
        sketch = metrics.quantiles("dispatch_overhead_seconds")
        if record.overhead_seconds != 0.0:
            sketch.observe(record.overhead_seconds)
        else:
            metrics.counter("dispatch_overhead_zero_total").inc()
        if record.admission is not None:
            metrics.counter("admission_total", outcome=record.admission).inc()
        if record.fallback is not None:
            metrics.counter("fallbacks_total", reason=record.fallback).inc()
        if record.attempts > 1:
            metrics.counter("retries_total", **retries_labels).inc(
                record.attempts - 1
            )
        for ev in record.fault_events:
            metrics.counter("fault_events_total", type=ev.error_type).inc()
        for name, health in healths:
            metrics.gauge("breaker_open_transitions", device=name).set(
                health.breaker.transitions.count("open")
            )
        if record.lint is not None:
            metrics.counter("lint_findings_total", severity="error").inc(
                record.lint.errors
            )
            metrics.counter("lint_findings_total", severity="warning").inc(
                record.lint.warnings
            )
            if record.lint.blocked:
                metrics.counter("lint_blocked_total").inc()
        drift = record.drift
        if drift is not None:
            if isinstance(drift, tuple):  # multi-device (device, state) pairs
                for device, state in drift:
                    metrics.counter(
                        "drift_flagged_total", device=device, state=state
                    ).inc()
            else:
                metrics.counter(
                    "drift_decisions_total", mode=drift.mode
                ).inc()
        hedge = getattr(record, "hedge", None)
        if hedge is not None:
            metrics.counter(
                "hedged_launches_total",
                trigger=hedge.trigger,
                winner=hedge.winner,
            ).inc()
            metrics.quantiles("hedge_extra_work_seconds").observe(
                hedge.extra_work_s
            )
        for device, predicted, observed in pred_triples:
            if (
                predicted > 0.0
                and observed > 0.0
                and math.isfinite(predicted)
                and math.isfinite(observed)
            ):
                metrics.histogram(
                    "prediction_abs_log_error", device=device
                ).observe(abs(math.log10(predicted / observed)))
        metrics.gauge("sim_clock_seconds").set(self.owner.clock.now)
