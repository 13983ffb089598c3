"""Traffic-scale scenario replay: seeded workload generation, chaos
schedules, bounded admission control, and recovery scoring.

The experiments sweep the paper's kernel grid uniformly; this package
asks the production question instead — what does the selector do under
six hours of *traffic*?  A seeded :class:`WorkloadConfig` generates a
Zipf-popularity, bursty-arrival, mixed-size request trace on the
simulated clock; a :class:`ChaosSchedule` opens fault storms, device
brownouts, link degradation and genuine mid-stream hardware drift over
simulated-time windows; the :class:`OffloadService` admission path
bounds the dispatch backlog per lane with reject / degrade-to-host /
defer overload policies (a single-server FIFO lane by default); and
:func:`score_run` reduces the whole run to steady-state selection
accuracy, dispatch-overhead tails, time-to-detect / time-to-recover per
window, and shed/degraded fractions.  See docs/ROBUSTNESS.md.
"""

from .chaos import CHAOS_KINDS, ChaosSchedule, ChaosWindow
from .engine import (
    MemoizedPolicy,
    ReplayConfig,
    ReplayEngine,
    ReplayRun,
)
from .score import ReplayScore, TenantScore, WindowScore, score_run
from .service import (
    ADMISSION_POLICIES,
    AdmissionConfig,
    DeviceLane,
    LANE_SHAPES,
    OffloadService,
    ReplayOutcome,
    ServiceStats,
)
from .workload import (
    CaseSpec,
    LaunchRequest,
    WorkloadConfig,
    build_catalog,
    generate_requests,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionConfig",
    "CHAOS_KINDS",
    "CaseSpec",
    "ChaosSchedule",
    "ChaosWindow",
    "DeviceLane",
    "LANE_SHAPES",
    "LaunchRequest",
    "MemoizedPolicy",
    "OffloadService",
    "ReplayConfig",
    "ReplayEngine",
    "ReplayOutcome",
    "ReplayRun",
    "ReplayScore",
    "ServiceStats",
    "TenantScore",
    "WindowScore",
    "WorkloadConfig",
    "build_catalog",
    "generate_requests",
    "score_run",
]
