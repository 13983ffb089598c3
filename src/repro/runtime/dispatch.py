"""The dispatch mechanisms :class:`~repro.runtime.OffloadingRuntime` runs
per launch, beside its one launch body (docs/ROBUSTNESS.md):

* :class:`Budget` — a per-request end-to-end deadline on the simulated
  clock.  Threaded through retry backoff
  (:func:`~repro.faults.dispatch_with_retries`), watchdog deadlines
  (the tighter of watchdog and remaining budget kills the launch) and
  the replay engine's admission wait, so queueing + retries can never
  spend more than the request has left.  Exhaustion is a typed
  :class:`~repro.faults.BudgetExhausted` feeding the health/breaker
  machinery.
* :class:`HedgePolicy` — speculative host backups.  Once a case's
  quantile-derived delay is known, a host backup starts after it; the
  first finisher on the simulated clock wins (:func:`hedge_resolve`),
  the loser is cancelled, and the duplicated work is attributed
  honestly (:class:`HedgeOutcome` provenance on the record, metrics).

Both default **off** (``None``); disabled, every record is
bit-identical to a runtime without them — the differential suite in
``tests/test_dispatch.py`` pins this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from ..obs import QuantileSketch

__all__ = [
    "FALLBACK_HEDGE",
    "Budget",
    "HedgeOutcome",
    "HedgePolicy",
    "case_key",
    "hedge_resolve",
]

#: The speculative host backup finished before the accelerator primary.
FALLBACK_HEDGE = "hedge-backup-won"
#: The backup delay is this quantile of the case's observed accelerator
#: seconds ("hedge past the p95").
HEDGE_QUANTILE = 0.95
#: Observations a case needs before it has a delay, and so a hedge.
HEDGE_MIN_SAMPLES = 8
#: A budget with less than this many predicted accelerator runtimes
#: left is too poor to absorb another retry loop.
LOW_BUDGET_FACTOR = 2.0


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

    The delay is the :data:`HEDGE_QUANTILE` of the *observed*
    accelerator seconds for this exact (device, region, env) case — the
    classic "hedge past the p95" rule, learned online from the same
    deterministic stream the records see, so seeded replays hedge
    identically.  No delay (and no hedge) until a case has
    :data:`HEDGE_MIN_SAMPLES` observations.

    Every launch with a ready delay arms a backup (the classic
    tail-at-scale rule).  This stays cheap because an armed hedge is a
    no-op unless the primary actually outlives the delay: a launch
    finishing under its own p95 resolves to None and its record is
    byte-identical to an unhedged one, so only genuinely slow launches
    (chaos dilation, retry storms) ever pay for a backup.  The trigger
    records why the launch hedged, first match wins:

    * ``drift`` — the drift sentinel flagged the stream, i.e. the
      prediction the selector just used is known-miscalibrated;
    * ``half-open`` — the device's breaker is probing (the previous
      launches failed; this one is a gamble);
    * ``low-budget`` — a :class:`Budget` whose remaining time is under
      :data:`LOW_BUDGET_FACTOR` × the predicted accelerator seconds;
    * ``slow`` — none of the above.
    """

    _sketches: dict[tuple[str, str], QuantileSketch] = field(
        default_factory=dict, init=False, repr=False
    )

    def observe(self, device_name: str, case_key: str, seconds: float) -> None:
        key = (device_name, case_key)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = self._sketches[key] = QuantileSketch()
        sketch.observe(seconds)

    def delay(self, device_name: str, case_key: str) -> float | None:
        """Quantile-derived backup delay, or None while under-sampled."""
        sketch = self._sketches.get((device_name, case_key))
        if sketch is None or sketch.count < HEDGE_MIN_SAMPLES:
            return None
        return sketch.quantile(HEDGE_QUANTILE)

    @staticmethod
    def trigger(
        *,
        drift_flagged: bool,
        half_open: bool,
        budget: Budget | None,
        predicted_gpu_s: float | None,
    ) -> str:
        """Why this launch hedges."""
        if drift_flagged:
            return "drift"
        if half_open:
            return "half-open"
        if (
            budget is not None
            and predicted_gpu_s is not None
            and math.isfinite(predicted_gpu_s)
            and predicted_gpu_s > 0.0
            and budget.remaining() < LOW_BUDGET_FACTOR * predicted_gpu_s
        ):
            return "low-budget"
        return "slow"

    def plan(
        self,
        device_name: str,
        case_key: str,
        *,
        drift_flagged: bool,
        half_open: bool,
        budget: Budget | None,
        predicted_gpu_s: float | None,
    ) -> tuple[str, float] | None:
        """Decide pre-dispatch whether to arm a host backup.

        Returns ``(trigger, delay_s)``, or None while the case's
        accelerator-seconds sketch is under-sampled or its delay is not
        finite — the no-plan path touches nothing, keeping records
        bit-identical.
        """
        delay = self.delay(device_name, case_key)
        if delay is None or not math.isfinite(delay):
            return None
        trigger = self.trigger(
            drift_flagged=drift_flagged,
            half_open=half_open,
            budget=budget,
            predicted_gpu_s=predicted_gpu_s,
        )
        return trigger, delay


def case_key(region_name: str, env: Mapping[str, int]) -> str:
    """The per-(region, env) key of drift streams and hedge sketches."""
    sizes = ",".join(f"{k}={env[k]}" for k in sorted(env))
    return f"{region_name}@{sizes}"


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
