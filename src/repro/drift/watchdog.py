"""Watchdog deadlines derived from the selector's own prediction.

A hung device is only caught by the fault injector today; a real runtime
must catch it from *behaviour*.  The watchdog turns the analytical
prediction into a per-launch deadline::

    deadline = predicted_seconds * DEADLINE_FACTOR + DEADLINE_SLACK_S

A dispatch whose (simulated) device time exceeds its deadline is killed
at the deadline and surfaces as a typed
:class:`~repro.faults.DeadlineExceeded` — a :class:`~repro.faults.DeviceError`
that feeds the existing :class:`~repro.faults.DeviceHealth` /
:class:`~repro.faults.CircuitBreaker` machinery, so repeated hangs open
the breaker exactly like injected faults do.

With no prediction available (the always-* policies) no deadline can be
derived and the watchdog stays silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Watchdog"]

#: Headroom for honest model error: the reproduction's models are off by
#: a few x on unfriendly kernels (see docs/MODELS.md).
DEADLINE_FACTOR = 8.0
#: Keeps microsecond-scale predictions from producing unsatisfiable
#: deadlines.
DEADLINE_SLACK_S = 1e-4


@dataclass(frozen=True)
class Watchdog:
    """Deadline policy: ``predicted * DEADLINE_FACTOR + DEADLINE_SLACK_S``."""

    def deadline(self, predicted_seconds: float) -> float:
        """Deadline for one launch; inf when no usable prediction exists."""
        if not math.isfinite(predicted_seconds) or predicted_seconds <= 0.0:
            return math.inf
        return predicted_seconds * DEADLINE_FACTOR + DEADLINE_SLACK_S

    def exceeded(self, predicted_seconds: float, observed_seconds: float) -> bool:
        return observed_seconds > self.deadline(predicted_seconds)
