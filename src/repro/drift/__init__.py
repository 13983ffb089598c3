"""Drift sentinel: the predict→observe→correct loop (docs/ROBUSTNESS.md).

Three pieces the runtimes compose, all off by default (a runtime without
a sentinel or watchdog is bit-identical to one that predates this
package):

* :class:`DriftSentinel` — per-(device, region) EWMA + CUSUM statistics
  over ``predicted vs. observed`` seconds, with three-state verdicts
  (CALIBRATED / SUSPECT / DRIFTED);
* :class:`Watchdog` — per-launch deadlines derived from the selector's
  own prediction; an overrun becomes a typed
  :class:`~repro.faults.DeadlineExceeded` feeding the device-health and
  circuit-breaker machinery;
* :class:`SelfHealingSelector` — graceful degradation of the
  model-guided host-or-accelerator pick under drift, at any accelerator
  count: learned multiplicative corrections with break-even hysteresis,
  measured-history fallback, re-promotion to the pure model on recovery,
  and an optional calibration re-fit hook.
"""

from .healing import (
    DriftDecision,
    SelfHealingSelector,
    attach_refit_hook,
    observed_calibration,
)
from .sentinel import (
    Cusum,
    DriftSentinel,
    DriftState,
    Ewma,
    StreamStats,
)
from .watchdog import Watchdog

__all__ = [
    "Cusum",
    "DriftDecision",
    "DriftSentinel",
    "DriftState",
    "Ewma",
    "SelfHealingSelector",
    "StreamStats",
    "Watchdog",
    "attach_refit_hook",
    "observed_calibration",
]
