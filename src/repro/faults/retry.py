"""Retry budgeting on a simulated clock.

No real sleeps anywhere: backoff delays are *accounted* (added to the
launch's overhead and to the runtime's :class:`SimulatedClock`) the same
way every other second in this repository is simulated rather than
elapsed.
"""

from __future__ import annotations

__all__ = ["MAX_ATTEMPTS", "SimulatedClock", "backoff_delay"]


class SimulatedClock:
    """A monotonically advancing virtual time base (seconds)."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("time cannot flow backwards")
        self.now += seconds
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedClock(now={self.now:g})"


#: Dispatch tries per accelerator launch, the first included.
MAX_ATTEMPTS = 3


def backoff_delay(attempt: int) -> float:
    """Simulated wait after failed attempt ``attempt`` (1-based).

    Exponential from 1 ms, doubling per attempt: 1 ms after the first
    failure and 2 ms after the second, the last one :data:`MAX_ATTEMPTS`
    leaves room for.
    """
    if attempt < 1:
        raise ValueError("attempt numbers are 1-based")
    return 1e-3 * 2.0 ** (attempt - 1)
