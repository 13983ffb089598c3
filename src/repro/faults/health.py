"""Per-device health: failure statistics and a circuit breaker.

The breaker implements the classic three-state machine, with the cooldown
measured in *launches* (the runtime's natural time base) rather than wall
seconds::

          N consecutive failures
    CLOSED ----------------------> OPEN
      ^                              | cooldown launches elapse
      | probe succeeds               v
      +--------------------------- HALF_OPEN
                                     | probe fails
                                     +---------> OPEN (cooldown restarts)

:class:`DeviceHealth` wraps the breaker with an exponentially weighted
failure rate whose ``penalty()`` multiplier the runtimes apply to the
analytical GPU prediction — a device that keeps faulting looks slower and
slower to the selector until the models route around it even before the
breaker trips.

When wired to the runtime's :class:`~repro.faults.SimulatedClock` with a
``decay_halflife_s``, the failure rate also decays over *simulated* time:
a device that has been healthy for a long simulated interval sheds its
penalty instead of carrying it forever.  Without a clock (the default)
the historical launch-count-only behaviour is preserved exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import DeviceError
from .retry import SimulatedClock

__all__ = ["BreakerState", "CircuitBreaker", "DeviceHealth"]

#: Consecutive failures that open a breaker.
FAILURE_THRESHOLD = 3
#: Launches an open breaker waits before its half-open probe.
COOLDOWN_LAUNCHES = 5
#: Weight of the newest outcome in a device's failure rate.
FAILURE_EWMA_ALPHA = 0.25
#: Prediction multiplier per unit failure rate.
PENALTY_WEIGHT = 4.0


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Open after :data:`FAILURE_THRESHOLD` consecutive failures; half-open
    probe after :data:`COOLDOWN_LAUNCHES` launches."""

    state: BreakerState = field(default=BreakerState.CLOSED, init=False)
    consecutive_failures: int = field(default=0, init=False)
    _cooldown_left: int = field(default=0, init=False)
    #: state-transition log, (launch tick not tracked here): new state names
    transitions: list[str] = field(default_factory=list)
    #: times the breaker has opened (the "open" entries of ``transitions``)
    opens: int = 0

    def _move(self, state: BreakerState) -> None:
        if state is not self.state:
            self.state = state
            self.transitions.append(state.value)
            if state is BreakerState.OPEN:
                self.opens += 1

    def on_launch(self) -> None:
        """Advance the cooldown clock; call once per runtime launch."""
        if self.state is BreakerState.OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self._move(BreakerState.HALF_OPEN)

    def allows(self) -> bool:
        """May the runtime dispatch to this device right now?"""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._move(BreakerState.CLOSED)

    def record_failure(self) -> None:
        # only a success resets the count, and a success closes the
        # breaker: a half-open breaker's failed probe is past the
        # threshold too, so this one test reopens it
        self.consecutive_failures += 1
        if self.consecutive_failures >= FAILURE_THRESHOLD:
            self._cooldown_left = COOLDOWN_LAUNCHES
            self._move(BreakerState.OPEN)


@dataclass
class DeviceHealth:
    """Failure bookkeeping for one accelerator, feeding the selector."""

    device_name: str
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    clock: SimulatedClock | None = None  # simulated time base for decay
    decay_halflife_s: float | None = None  # None = no time-based decay
    successes: int = 0
    failures: int = 0
    failure_ewma: float = 0.0
    fault_counts: dict[str, int] = field(default_factory=dict)
    _last_decay_now: float | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.decay_halflife_s is not None and self.decay_halflife_s <= 0:
            raise ValueError("decay_halflife_s must be positive")

    def _decay(self) -> None:
        """Shed failure weight for the simulated time elapsed since last look."""
        if self.clock is None or self.decay_halflife_s is None:
            return
        now = self.clock.now
        if self._last_decay_now is None:
            self._last_decay_now = now
            return
        elapsed = now - self._last_decay_now
        if elapsed < 0:
            raise ValueError(
                f"simulated clock moved backwards ({self._last_decay_now:g}s "
                f"-> {now:g}s); DeviceHealth decay needs a monotonic clock"
            )
        if elapsed > 0:
            self.failure_ewma *= 0.5 ** (elapsed / self.decay_halflife_s)
            self._last_decay_now = now

    def record_success(self) -> None:
        self._decay()
        self.successes += 1
        self.failure_ewma *= 1.0 - FAILURE_EWMA_ALPHA
        self.breaker.record_success()

    def record_failure(self, error: DeviceError) -> None:
        self._decay()
        self.failures += 1
        self.failure_ewma += FAILURE_EWMA_ALPHA * (1.0 - self.failure_ewma)
        name = type(error).__name__
        self.fault_counts[name] = self.fault_counts.get(name, 0) + 1
        self.breaker.record_failure()

    def penalty(self) -> float:
        """Multiplier applied to the device's predicted seconds (>= 1).

        Exactly 1.0 while the device has never failed, so a fault-free run
        makes bit-identical decisions to a runtime without health tracking.
        Time-based decay (when configured) is applied lazily here, so a
        long-healthy device reads a shrunken penalty.
        """
        self._decay()
        return 1.0 + PENALTY_WEIGHT * self.failure_ewma

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceHealth({self.device_name!r}, {self.breaker.state.value}, "
            f"{self.successes} ok / {self.failures} failed, "
            f"penalty={self.penalty():.2f})"
        )
