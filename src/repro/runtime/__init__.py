"""OpenMP-style offloading runtime with target selection (Figure 2).

Fault-tolerant dispatch (retry, fallback, circuit breaking) lives in
:mod:`repro.faults` and drift detection / self-healing in
:mod:`repro.drift`; the commonly-paired pieces are re-exported here so
``from repro.runtime import OffloadingRuntime, DriftSentinel, Watchdog``
reads naturally.
"""

from ..drift import DriftSentinel, Watchdog
from ..faults import (
    DeviceHealth,
    FaultInjector,
    scenario_by_name,
)
from .device import AcceleratorDevice, Device, ExecutionRecord, HostDevice
from .dispatch import (
    FALLBACK_HEDGE,
    Budget,
    HedgeOutcome,
    HedgePolicy,
)
from .policies import (
    AlwaysCPU,
    AlwaysGPU,
    ModelGuided,
    Oracle,
    Policy,
    policy_by_name,
)
from .framework import (
    ADMISSION_DEGRADED,
    DeviceOutcome,
    LaunchRecord,
    OffloadingRuntime,
)
from .memo import ExecutionMemo

__all__ = [
    "ADMISSION_DEGRADED",
    "FALLBACK_HEDGE",
    "Budget",
    "HedgeOutcome",
    "HedgePolicy",
    "ExecutionMemo",
    "DeviceOutcome",
    "AcceleratorDevice",
    "Device",
    "ExecutionRecord",
    "HostDevice",
    "AlwaysCPU",
    "AlwaysGPU",
    "ModelGuided",
    "Oracle",
    "Policy",
    "policy_by_name",
    "LaunchRecord",
    "OffloadingRuntime",
    "DeviceHealth",
    "DriftSentinel",
    "FaultInjector",
    "Watchdog",
    "scenario_by_name",
]
