"""Typed device-fault taxonomy raised by the (simulated) offload path.

The host fallback is assumed always safe — only accelerator dispatches can
raise a :class:`DeviceError`.  Each subclass carries a ``retryable`` class
flag: transient faults (a flaky DMA, an ECC hiccup) are worth retrying
with backoff, while a device-memory exhaustion is deterministic for a
given region footprint and re-attempting it would only waste the retry
budget.
"""

from __future__ import annotations

__all__ = [
    "DeviceError",
    "DeviceMemoryError",
    "TransferError",
    "TransientDeviceError",
    "DeadlineExceeded",
    "BudgetExhausted",
]


class DeviceError(RuntimeError):
    """Base class of all accelerator-side launch failures."""

    #: Whether a bounded-backoff retry on the same device is sensible.
    retryable: bool = True

    def __init__(
        self,
        message: str,
        *,
        device_name: str = "?",
        launch_index: int = -1,
        attempt: int = 1,
    ):
        super().__init__(message)
        self.device_name = device_name
        self.launch_index = launch_index
        self.attempt = attempt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({str(self)!r}, device={self.device_name!r}, "
            f"launch={self.launch_index}, attempt={self.attempt})"
        )


class DeviceMemoryError(DeviceError):
    """Device memory exhausted (the region footprint does not fit)."""

    retryable = False


class TransferError(DeviceError):
    """A host<->device DMA failed mid-flight."""

    retryable = True


class TransientDeviceError(DeviceError):
    """A generic recoverable device hiccup (ECC retry, driver reset...)."""

    retryable = True


class DeadlineExceeded(DeviceError):
    """The dispatch overran its watchdog deadline and was killed.

    The runtime itself raises it when the observed device time exceeds
    the deadline derived from the selector's own prediction
    (``predicted * factor + slack`` — see :class:`repro.drift.Watchdog`).
    Not retryable: the simulated duration is deterministic for a given
    binding, so a retry would only burn another deadline before the same
    overrun.
    """

    retryable = False

    def __init__(
        self,
        message: str,
        *,
        device_name: str = "?",
        launch_index: int = -1,
        attempt: int = 1,
        deadline_seconds: float = float("inf"),
        observed_seconds: float = float("nan"),
    ):
        super().__init__(
            message,
            device_name=device_name,
            launch_index=launch_index,
            attempt=attempt,
        )
        self.deadline_seconds = deadline_seconds
        self.observed_seconds = observed_seconds


class BudgetExhausted(DeviceError):
    """The request's end-to-end deadline budget ran out mid-dispatch.

    Raised (as an event) by the budget-aware retry loop when the next
    backoff delay would overdraw the request's remaining
    :class:`~repro.runtime.Budget`, or by the watchdog path when the
    remaining budget is a tighter bound than the watchdog deadline and
    the observed device time overran it.  Not retryable: the budget only
    shrinks.  Like :class:`DeadlineExceeded` it feeds
    :class:`~repro.faults.DeviceHealth` — a device that keeps eating
    budgets looks flaky to the breaker even when its faults are slow
    successes.
    """

    retryable = False

    def __init__(
        self,
        message: str,
        *,
        device_name: str = "?",
        launch_index: int = -1,
        attempt: int = 1,
        budget_seconds: float = float("inf"),
        remaining_seconds: float = 0.0,
    ):
        super().__init__(
            message,
            device_name=device_name,
            launch_index=launch_index,
            attempt=attempt,
        )
        self.budget_seconds = budget_seconds
        self.remaining_seconds = remaining_seconds
