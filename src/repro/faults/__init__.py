"""Fault tolerance for the offloading runtime (see docs/ROBUSTNESS.md).

The paper's decision framework assumes every offload attempt succeeds; a
traffic-serving selector must survive GPU OOM, transfer faults and kernel
hangs while still making good decisions.  This package supplies the three
pieces the runtimes compose:

* a typed :class:`DeviceError` taxonomy raised under injectable,
  seeded fault plans (:class:`FaultInjector`);
* bounded retry with exponential backoff on a :class:`SimulatedClock`;
* per-device :class:`DeviceHealth` with a launch-cooldown
  :class:`CircuitBreaker`, whose penalty feeds back into the selector.
"""

from .errors import (
    BudgetExhausted,
    DeadlineExceeded,
    DeviceError,
    DeviceMemoryError,
    TransferError,
    TransientDeviceError,
)
from .health import BreakerState, CircuitBreaker, DeviceHealth
from .injector import (
    FAULT_SCENARIOS,
    DeadDevice,
    FaultEvent,
    FaultInjector,
    FaultTrigger,
    FootprintOOM,
    LaunchContext,
    ProbabilisticFault,
    ScheduledFault,
    region_footprint_bytes,
    scenario_by_name,
)
from .resilient import DispatchResult, dispatch_with_retries
from .retry import MAX_ATTEMPTS, SimulatedClock, backoff_delay

__all__ = [
    "BudgetExhausted",
    "DeadlineExceeded",
    "DeviceError",
    "DeviceMemoryError",
    "TransferError",
    "TransientDeviceError",
    "BreakerState",
    "CircuitBreaker",
    "DeviceHealth",
    "FAULT_SCENARIOS",
    "DeadDevice",
    "FaultEvent",
    "FaultInjector",
    "FaultTrigger",
    "FootprintOOM",
    "LaunchContext",
    "ProbabilisticFault",
    "ScheduledFault",
    "region_footprint_bytes",
    "scenario_by_name",
    "DispatchResult",
    "dispatch_with_retries",
    "MAX_ATTEMPTS",
    "SimulatedClock",
    "backoff_delay",
]
