"""The traffic replay engine: trace in, scored run out.

``ReplayEngine`` marries the pieces: a generated request trace
(:mod:`.workload`), a chaos schedule compiled onto the runtime's
simulated clock (:mod:`.chaos`), the offloading runtime over the
platform's host and every accelerator, and the one admission path,
:class:`~.service.OffloadService`.  The service runs
the serial preset (a single-server FIFO) unless ``ReplayConfig.service``
asks for per-device lanes.  Per request it

1. re-admits any parked (deferred) requests the lane has drained
   enough to take back,
2. asks the bounded lane for a verdict — ``admit`` queues the request
   for the full predict→dispatch path, ``degrade`` runs the host-only
   ``force_target="cpu"`` path at the arrival time, ``shed`` drops the
   request, ``defer`` parks it —
3. at each launch's start, advances the runtime's clock (chaos windows
   and drift-transition timestamps live on this clock), launches
   through :meth:`ReplayEngine._launch`, and books the service time back
   into the lane.

Two throughput levers make 10⁵-launch traces practical without touching
a single recorded value: an :class:`~repro.runtime.ExecutionMemo` caches
the deterministic per-(region, env) simulated times / bindings /
footprints inside the runtime, and :class:`MemoizedPolicy` caches the
policy's (target, prediction) per cached binding.  Both return the
*identical* objects a cold call would compute, so a memoized replay is
bit-identical to an unmemoized one — the differential tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import ProgramAttributeDatabase
from ..drift import DriftSentinel, Watchdog
from ..machines import Platform
from ..obs import MetricsRegistry, families
from ..runtime import (
    ExecutionMemo,
    HedgePolicy,
    LaunchRecord,
    ModelGuided,
    OffloadingRuntime,
)
from .chaos import ChaosSchedule
from .service import AdmissionConfig, OffloadService, ReplayOutcome, ServiceStats
from .workload import CaseSpec, LaunchRequest, WorkloadConfig, build_catalog, generate_requests

__all__ = [
    "MemoizedPolicy",
    "ReplayConfig",
    "ReplayRun",
    "ReplayEngine",
]


class MemoizedPolicy:
    """Cache a deterministic policy's decisions per (binding, sim times).

    The wrapped policy's ``choose`` is a pure function of the bound
    attributes, the platform, the team size and the simulated seconds it
    is offered, so its result can be replayed from a dict.  Keys use the
    *identity* of the bound-attributes object — the
    :class:`~repro.runtime.ExecutionMemo` hands the runtime the same
    object per (region, env), and the cache holds a strong reference to
    it, so an id can never be recycled under us.  Cache hits return the
    identical (target, prediction) objects, keeping records bit-identical
    to an unmemoized run.
    """

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else ModelGuided()
        self.name = self.inner.name
        self._cache: dict = {}
        self.hits = 0
        self.misses = 0

    def choose(self, bound, platform, *, num_threads, sim_cpu_seconds, sim_gpu_seconds):
        key = (
            id(bound),
            platform.name,
            num_threads,
            sim_cpu_seconds,
            sim_gpu_seconds,
        )
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit[1]
        result = self.inner.choose(
            bound,
            platform,
            num_threads=num_threads,
            sim_cpu_seconds=sim_cpu_seconds,
            sim_gpu_seconds=sim_gpu_seconds,
        )
        # the bound reference pins the id for the cache's lifetime
        self._cache[key] = (bound, result)
        self.misses += 1
        return result


@dataclass(frozen=True)
class ReplayConfig:
    """One replay scenario, fully specified."""

    platform: Platform
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    chaos: ChaosSchedule = field(default_factory=ChaosSchedule)
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: per-request end-to-end deadline budget (simulated seconds); queue
    #: wait, retry backoff and watchdog burn are charged against it.  A
    #: request whose budget drains while queueing runs the host-only
    #: degraded path instead ("expired").  None = off (bit-identical).
    budget_s: float | None = None
    #: arm speculative host backups (a HedgePolicy on the runtime)
    hedge: bool = False
    #: the lane shape the admission path runs (``LANE_SHAPES``):
    #: per-device lanes with batching and phase overlap when True, the
    #: serial preset — one single-server FIFO lane — when False.
    #: Per-device lanes model one accelerator lane, so a
    #: multi-accelerator platform runs serial only.
    service: bool = False


@dataclass
class ReplayRun:
    """Everything one engine run produced (input to the scorer)."""

    config: ReplayConfig
    requests: list[LaunchRequest]
    outcomes: list[ReplayOutcome]
    metrics: MetricsRegistry
    runtime: OffloadingRuntime
    horizon_s: float  # last service finish (or last arrival if none)
    service: OffloadService  # the lanes the trace ran through

    @property
    def queue(self) -> ServiceStats:
        """Queue accounting aggregated across the service's lanes."""
        return self.service.stats

    @property
    def records(self) -> list[LaunchRecord]:
        return [o.record for o in self.outcomes if o.record is not None]

    @property
    def sentinel(self) -> DriftSentinel | None:
        return self.runtime.sentinel

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.outcome] = counts.get(o.outcome, 0) + 1
        return dict(sorted(counts.items()))


class ReplayEngine:
    """Drive one runtime through one trace under one chaos schedule."""

    def __init__(
        self,
        config: ReplayConfig,
        *,
        policy=None,
        memo: ExecutionMemo | None = None,
        db: ProgramAttributeDatabase | None = None,
    ):
        self.config = config
        self.memo = memo if memo is not None else ExecutionMemo()
        self.policy = policy if policy is not None else MemoizedPolicy()
        self._db = db
        #: id(case) -> (case, env dict); the entry holds the case, so an
        #: id can never be recycled under us
        self._envs: dict[int, tuple[CaseSpec, dict[str, int]]] = {}
        self.runtime = self._build_runtime()

    def _build_runtime(self) -> OffloadingRuntime:
        cfg = self.config
        runtime = OffloadingRuntime(
            platform=cfg.platform,
            policy=self.policy,
            db=self._db if self._db is not None else ProgramAttributeDatabase(),
            sentinel=DriftSentinel(),
            watchdog=Watchdog(),
            metrics=MetricsRegistry(),
            memo=self.memo,
            # simulated-time half-life of the accelerator health penalty:
            # decay lets a post-storm runtime forgive the card instead of
            # pinning borderline kernels to the host forever
            health_decay_halflife_s=5.0,
        )
        # chaos compiles onto the runtime's own clock
        runtime.injector = cfg.chaos.build_injector(runtime.clock)
        runtime.time_dilation = cfg.chaos.build_dilation(runtime.clock)
        if cfg.hedge:
            # classic tail-at-scale arming: every sketch-ready launch
            # hedges, but only primaries that outlive the p95 delay pay
            runtime.hedge = HedgePolicy()
        return runtime

    # -- driving ------------------------------------------------------------
    def _advance_to(self, t: float) -> None:
        clock = self.runtime.clock
        if t > clock.now:
            clock.advance(t - clock.now)

    def _env(self, case: CaseSpec) -> dict[str, int]:
        """``case.env_dict()``, built once per case (looked up by identity)."""
        hit = self._envs.get(id(case))
        if hit is None:
            hit = self._envs[id(case)] = (case, case.env_dict())
        return hit[1]

    def _launch(self, request: LaunchRequest, *, force_target=None, budget=None):
        return self.runtime.launch(
            request.case.region_name,
            self._env(request.case),
            force_target=force_target,
            budget=budget,
            tenant=request.tenant,
        )

    def run(self, requests: list[LaunchRequest] | None = None) -> ReplayRun:
        cfg = self.config
        cases, regions = build_catalog(cfg.workload.sizes)
        for region in regions.values():
            if region.name not in self.runtime.db:
                self.runtime.compile_region(region)
        if requests is None:
            requests = generate_requests(cfg.workload, cases)
        if cfg.service and len(cfg.platform.accelerators) > 1:
            raise ValueError(
                "per-device lanes model one accelerator; run "
                f"{cfg.platform.name!r} on the serial preset (service=False)"
            )
        service = OffloadService(self)
        outcomes, horizon = service.run(requests)
        metrics = self.runtime.metrics
        fams = families(metrics)
        self._advance_to(horizon)
        fams["replay_queue_max_depth"].labels().set(service.stats.max_depth)
        fams["replay_horizon_seconds"].labels().set(horizon)
        for name, lane in service.lanes.items():
            fams["service_lane_max_depth"].labels(name).set(lane.max_depth)
        return ReplayRun(
            config=cfg,
            requests=requests,
            outcomes=outcomes,
            metrics=metrics,
            runtime=self.runtime,
            horizon_s=horizon,
            service=service,
        )
