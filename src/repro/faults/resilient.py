"""The retry/fallback core the runtime dispatches each accelerator through.

``dispatch_with_retries`` runs the attempt loop for one accelerator
launch: ask the injector whether the attempt faults, update the device's
health and breaker, back off on the simulated clock, and report how the
launch ended.  The caller decides what "fall back" means (the next
device in its dispatch chain: the next-best accelerator, the host last).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExhausted, DeviceError
from .health import DeviceHealth
from .injector import FaultEvent, FaultInjector, LaunchContext
from .retry import MAX_ATTEMPTS, SimulatedClock, backoff_delay

__all__ = ["DispatchResult", "dispatch_with_retries"]

#: Fallback-provenance labels stamped into launch records.
FALLBACK_BREAKER = "breaker-open"
FALLBACK_HEALTH = "health-penalty"
FALLBACK_RETRIES = "retries-exhausted"
FALLBACK_FATAL = "non-retryable-fault"
FALLBACK_DEADLINE = "deadline-exceeded"
FALLBACK_BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class DispatchResult:
    """How one accelerator launch ended after the retry loop."""

    ok: bool
    attempts: int
    fault_events: tuple[FaultEvent, ...]
    overhead_seconds: float  # simulated backoff spent on failed attempts
    reason: str | None  # fallback provenance when not ok


def _event(err: DeviceError) -> FaultEvent:
    return FaultEvent(
        device_name=err.device_name,
        launch_index=err.launch_index,
        attempt=err.attempt,
        error_type=type(err).__name__,
        message=str(err),
    )


def dispatch_with_retries(
    *,
    injector: FaultInjector | None,
    clock: SimulatedClock,
    health: DeviceHealth,
    device_name: str,
    launch_index: int,
    footprint_bytes: int,
    memory_bytes: int | None,
    budget=None,
) -> DispatchResult:
    """Attempt one accelerator launch under the fault plan.

    Returns a successful single-attempt result immediately when no
    injector is configured (the fault-free fast path — zero overhead, so
    records stay bit-identical to a runtime without fault tolerance).

    ``budget`` is an optional :class:`~repro.runtime.Budget`: a backoff
    delay that would overdraw the remaining budget is never slept —
    the loop stops with a typed :class:`BudgetExhausted` event (fed to
    the device's health, so chronic budget-eaters trip the breaker) and
    the :data:`FALLBACK_BUDGET` reason.  ``budget=None`` (the default)
    reproduces the historical loop exactly.
    """
    if injector is None or not injector.enabled:
        health.record_success()
        return DispatchResult(True, 1, (), 0.0, None)

    events: list[FaultEvent] = []
    overhead = 0.0
    for attempt in range(1, MAX_ATTEMPTS + 1):
        err = injector.check(
            LaunchContext(
                device_name=device_name,
                kind="gpu",
                launch_index=launch_index,
                attempt=attempt,
                footprint_bytes=footprint_bytes,
                memory_bytes=memory_bytes,
            )
        )
        if err is None:
            health.record_success()
            return DispatchResult(True, attempt, tuple(events), overhead, None)
        events.append(_event(err))
        health.record_failure(err)
        if not err.retryable:
            return DispatchResult(
                False, attempt, tuple(events), overhead, FALLBACK_FATAL
            )
        if not health.breaker.allows():
            # The breaker tripped mid-launch (threshold reached, or a
            # half-open probe failed): stop burning the retry budget.
            return DispatchResult(
                False, attempt, tuple(events), overhead, FALLBACK_BREAKER
            )
        if attempt == MAX_ATTEMPTS:
            return DispatchResult(
                False, attempt, tuple(events), overhead, FALLBACK_RETRIES
            )
        delay = backoff_delay(attempt)
        if budget is not None:
            remaining = budget.remaining()
            if delay > remaining:
                exhausted = BudgetExhausted(
                    f"retry backoff {delay:.3e}s exceeds remaining budget "
                    f"{remaining:.3e}s",
                    device_name=device_name,
                    launch_index=launch_index,
                    attempt=attempt,
                    budget_seconds=budget.total_s,
                    remaining_seconds=remaining,
                )
                events.append(_event(exhausted))
                health.record_failure(exhausted)
                return DispatchResult(
                    False, attempt, tuple(events), overhead, FALLBACK_BUDGET
                )
            budget.charge(delay)
        overhead += delay
        clock.advance(delay)
    raise AssertionError("unreachable")  # pragma: no cover
