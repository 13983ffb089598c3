"""The offloading decision runtime (Figure 2, end to end).

``OffloadingRuntime`` owns the Program Attribute Database and the platform:
the host plus every slot in ``platform.accelerators``.  Section II.A lets
the host "schedule kernel execution either on the host itself or any of
the available accelerators", so a host with one GPU is the N = 1 case of
one decision, not a separate runtime.  ``compile_region`` is the
compile-time half: outline, analyse, store attributes.  ``launch`` is the
runtime half, one body at every N: bind runtime values, measure every
device, select, run the dispatch chain, then the watchdog and the hedge,
observe, and record everything the experiments need (every device is
simulated so policies can be scored against the oracle without
re-running).

Selection is one rule at every N, and at N = 1 each step is trivial:

1. **Rank the accelerators.**  The policy predicts once per single-slot
   platform view (named ``host+gpu``; at N = 1 the view is the platform
   itself).  Accelerators with a closed breaker come before those with
   an open one; within each group the drift-corrected, health-penalized
   prediction orders them.
2. **Pick the request.**  The policy's host-or-accelerator pick on the
   first-ranked slot's view is the request.  With a sentinel attached,
   the :class:`~repro.drift.SelfHealingSelector` heals it while any
   drift stream is flagged, comparing the host's stream with that
   slot's (``record.drift``).
3. **Dispatch along the chain**: the request, the other accelerators in
   rank order, the host.  Open breakers and the health gate (a card
   whose penalized prediction is no better than the host's,
   ``FALLBACK_HEALTH``) move the launch down the chain.

Each device gets one label, decided at construction: its kind
(``cpu``/``gpu``) at N = 1 and its name at N > 1.  The label names the
drift stream and the ``device`` metric label, and the record carries it as ``requested_target`` and ``device``; ``target`` is
always the kind of the device that ran the launch.  At N > 1 the record
also lists every candidate device (``record.candidates``).

Dispatch is resilient (docs/ROBUSTNESS.md): an optional
:class:`~repro.faults.FaultInjector` makes accelerator attempts fail, and
the runtime answers with bounded retry + exponential backoff (on a
simulated clock), automatic fallback down the chain, a per-device circuit
breaker and a :class:`~repro.faults.DeviceHealth` penalty that steers
selection away from a flaky card.  It is *drift-aware*: an optional
:class:`~repro.drift.DriftSentinel` tracks predicted-vs-observed seconds
per (device, region, sizes) stream and a :class:`~repro.drift.Watchdog`
turns the executed device's prediction into a deadline (an overrun
becomes a typed :class:`~repro.faults.DeadlineExceeded` feeding the
health/breaker machinery).  Budgets and hedged host backups live in
:mod:`.dispatch`.  It is *observable* (docs/OBSERVABILITY.md): an
optional :class:`~repro.obs.Tracer` records nested ``launch`` →
``predict`` → ``dispatch`` spans and an optional
:class:`~repro.obs.MetricsRegistry` counts launches, retries, fallbacks,
drift verdicts and prediction error.  Every collaborator defaults off,
and idle (no injector, CALIBRATED streams, no tracer) it leaves every
``LaunchRecord`` bit-identical.

Whether a region is safe to offload at all (races, undeclared
reductions, under-mapped arrays) is a compile-time question:
:func:`~repro.lint.lint_region` and ``repro-paper lint`` answer it
(docs/LINT.md), and the runtime takes its regions as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..analysis import ProgramAttributeDatabase, RegionAttributes
from ..drift import DriftDecision, DriftSentinel, SelfHealingSelector, Watchdog
from ..drift.watchdog import DEADLINE_FACTOR, DEADLINE_SLACK_S
from ..faults import (
    BudgetExhausted,
    DeadlineExceeded,
    DeviceHealth,
    FaultEvent,
    FaultInjector,
    SimulatedClock,
    dispatch_with_retries,
    region_footprint_bytes,
)
from ..faults.health import BreakerState
from ..faults.resilient import (
    FALLBACK_BREAKER,
    FALLBACK_BUDGET,
    FALLBACK_DEADLINE,
    FALLBACK_HEALTH,
)
from ..ir import Region
from ..machines import Platform
from ..models import SelectionPrediction
from ..obs import (
    NULL_TRACER,
    Counter,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    families,
)
from .device import AcceleratorDevice, HostDevice
from .dispatch import (
    FALLBACK_HEDGE,
    Budget,
    HedgeOutcome,
    HedgePolicy,
    case_key,
    hedge_resolve,
)
from .memo import ExecutionMemo
from .policies import ModelGuided, Policy

__all__ = ["ADMISSION_DEGRADED", "DeviceOutcome", "LaunchRecord", "OffloadingRuntime"]

#: Admission provenance stamped on launches degraded to the host by an
#: admission controller (``launch(..., force_target="cpu")``).
ADMISSION_DEGRADED = "degraded-to-host"


@dataclass(frozen=True)
class DeviceOutcome:
    """Prediction + measurement for one candidate device (N > 1 records)."""

    device_name: str
    kind: str  # "cpu" | "gpu"
    predicted_seconds: float
    measured_seconds: float


@dataclass(frozen=True)
class LaunchRecord:
    """Everything observed for one target-region launch.

    The fields after ``executed_seconds`` are provenance: how the launch
    reached the device that ran it (``requested_target`` through
    ``overhead_seconds``) and what each optional collaborator did to it
    (``drift``, ``admission``, ``transfers``, ``hedge``, ``tenant``).
    Their defaults describe an untroubled launch, so an idle collaborator
    leaves the record as a runtime without it would build it.
    ``candidates`` is filled at N > 1 only: at N = 1 ``prediction``,
    ``cpu_seconds`` and ``gpu_seconds`` already hold both candidates.
    """

    region_name: str
    target: str  # kind ("cpu" | "gpu") of the device that ran the launch
    policy_name: str
    #: the policy's, on the first-ranked accelerator's view (None = no model)
    prediction: SelectionPrediction | None
    cpu_seconds: float  # measured (simulated) host time
    gpu_seconds: float  # measured device time incl. transfers (fastest at N > 1)
    executed_seconds: float  # time of the chosen target (incl. retry backoff)
    requested_target: str | None = None  # label of the pick before rerouting
    attempts: int = 0  # accelerator dispatch attempts (0 = never tried)
    fault_events: tuple[FaultEvent, ...] = ()
    fallback: str | None = None  # why the launch left the requested target
    overhead_seconds: float = 0.0  # simulated retry backoff
    drift: DriftDecision | None = None  # healing verdict (None = all calibrated)
    admission: str | None = None  # admission-control provenance (None = full path)
    transfers: str | None = None  # transfer sizing source (None = declared map)
    hedge: HedgeOutcome | None = None  # hedged-launch provenance (None = no backup)
    tenant: str | None = None  # issuing tenant (None = anonymous/single-tenant)
    # The fields below stay out of repr, so an N = 1 record prints (and
    # hashes, in the serial-replay golden) exactly as before they existed.
    #: label of the device that ran the launch (== target at N = 1)
    device: str | None = field(default=None, repr=False)
    #: N > 1: every candidate device, host first (empty at N = 1)
    candidates: tuple[DeviceOutcome, ...] = field(default=(), repr=False)

    @property
    def true_speedup(self) -> float:
        """Actual GPU-offloading speedup (host / device).

        NaN when the device time is zero or non-finite (a failed launch
        measures no useful device time) so experiment tables degrade to
        "nan" instead of raising ZeroDivisionError or propagating inf.
        """
        if self.gpu_seconds <= 0.0 or not (
            math.isfinite(self.gpu_seconds) and math.isfinite(self.cpu_seconds)
        ):
            return math.nan
        return self.cpu_seconds / self.gpu_seconds

    @property
    def predicted_speedup(self) -> float | None:
        if self.prediction is None:
            return None
        cpu, gpu = self.prediction.cpu.seconds, self.prediction.gpu.seconds
        if gpu <= 0.0 or not (math.isfinite(gpu) and math.isfinite(cpu)):
            return math.nan
        return cpu / gpu

    @property
    def oracle_target(self) -> str:
        """Label of the device that measured fastest."""
        if self.candidates:
            return min(self.candidates, key=lambda o: o.measured_seconds).device_name
        return "gpu" if self.gpu_seconds < self.cpu_seconds else "cpu"

    @property
    def decision_correct(self) -> bool:
        """Did the launch run on the device that measured fastest?"""
        return self.device == self.oracle_target

    @property
    def oracle_seconds(self) -> float:
        return min(self.cpu_seconds, self.gpu_seconds)

    @property
    def fell_back(self) -> bool:
        """Did resilience reroute this launch off the requested target?"""
        return self.fallback is not None


@dataclass
class OffloadingRuntime:
    """Compile-time + run-time halves of the decision framework."""

    platform: Platform
    policy: Policy = field(default_factory=ModelGuided)
    num_threads: int | None = None  # host team size (None = all hw threads)
    db: ProgramAttributeDatabase = field(default_factory=ProgramAttributeDatabase)
    injector: FaultInjector | None = None
    sentinel: DriftSentinel | None = None
    watchdog: Watchdog | None = None
    health_decay_halflife_s: float | None = None  # simulated-time penalty decay
    tracer: Tracer | NullTracer = NULL_TRACER  # off by default (records nothing)
    #: optional registry; the runtime binds its metric families to it at
    #: construction and emits only through them
    metrics: MetricsRegistry | None = None
    #: optional per-(region, env) cache of the deterministic launch inputs
    #: (simulated times, bindings, footprints); same values, so records
    #: stay bit-identical — the replay engine's 10⁵-launch fast path
    memo: ExecutionMemo | None = None
    #: optional per-launch time dilation: called with the device kind
    #: ("cpu"/"gpu"), returns a multiplier for that device's simulated
    #: seconds this launch.  The chaos hook for mid-stream hardware drift;
    #: None (the default) leaves every launch untouched.
    time_dilation: Callable[[str], float] | None = None
    #: optional speculative host-backup policy (docs/ROBUSTNESS.md);
    #: None = off, and every record stays bit-identical.
    hedge: HedgePolicy | None = None

    def __post_init__(self):
        slots = self.platform.accelerators
        if not slots:
            raise ValueError(f"platform {self.platform.name!r} has no accelerator")
        self._host = HostDevice(self.platform.host, num_threads=self.num_threads)
        self._accels = [AcceleratorDevice(slot.gpu, slot.bus) for slot in slots]
        self._single = len(slots) == 1
        #: the dispatch candidates: the host first, then every slot
        self._devices = (self._host, *self._accels)
        #: one label per device: its kind at N = 1, its name at N > 1
        self._labels = tuple(
            dev.kind if self._single else dev.name for dev in self._devices
        )
        #: the platform the policy predicts each accelerator on: the
        #: platform itself at N = 1, else one single-slot view per slot
        self._views = (
            [self.platform]
            if self._single
            else [
                Platform(
                    name=f"{self.platform.host.name}+{slot.gpu.name}",
                    host=self.platform.host,
                    accelerators=(slot,),
                )
                for slot in slots
            ]
        )
        self.clock = SimulatedClock()
        if self.tracer.enabled and self.tracer.clock is None:
            self.tracer.clock = self.clock  # span timestamps follow this runtime
        if self.sentinel is not None and self.sentinel.clock is None:
            self.sentinel.clock = self.clock  # drift transitions get timestamps
        #: one DeviceHealth per accelerator, in slot order
        self.health = tuple(
            DeviceHealth(
                dev.name,
                clock=self.clock,
                decay_halflife_s=self.health_decay_halflife_s,
            )
            for dev in self._accels
        )
        # per-accelerator dispatch ordinal for the injector
        self._accel_launches = [0] * len(self._accels)
        #: the accelerators' device indices, in slot order
        self._slots = range(1, len(self._devices))
        self._healer = (
            SelfHealingSelector(self.sentinel, self._labels)
            if self.sentinel is not None
            else None
        )
        self._families = families(self.metrics) if self.metrics is not None else None
        # handles of the instruments every launch emits through, each
        # bound on its first emission (see _record_metrics)
        self._launch_counters: dict[str, Counter] = {}
        self._error_hists: list[Histogram | None] = [None] * len(self._devices)
        self._every_launch: tuple | None = None
        self._zero_overhead: Counter | None = None

    # -- compile time -------------------------------------------------------
    def compile_region(self, region: Region) -> RegionAttributes:
        """Outline + analyse a region into the attribute database."""
        with self.tracer.activate():
            return self.db.compile_region(region)

    # -- run time -------------------------------------------------------------
    def launch(
        self,
        region_name: str,
        env: Mapping[str, int],
        *,
        force_target: str | None = None,
        budget: Budget | None = None,
        tenant: str | None = None,
    ) -> LaunchRecord:
        """Reach a target region with runtime values and dispatch it.

        ``force_target="cpu"`` is the admission controller's degrade hook:
        the launch runs on the host immediately, skipping prediction and
        accelerator dispatch entirely (that cost is exactly what overload
        shedding exists to avoid); the record carries
        ``admission=ADMISSION_DEGRADED``.  The default ``None`` takes the
        full path and leaves the record bit-identical to a runtime without
        admission control.

        ``budget`` is this request's remaining end-to-end deadline
        budget: retry backoff and watchdog burn are charged against it
        and can never overspend it (docs/ROBUSTNESS.md).  ``None`` (the
        default) dispatches unbudgeted, bit-identically.

        ``tenant`` stamps the issuing tenant onto the record (the
        offload service's provenance hook); ``None`` — the anonymous
        single-tenant default — leaves the record as an untenanted
        runtime would build it.
        """
        if force_target not in (None, "cpu"):
            raise ValueError(
                f"force_target must be None or 'cpu', got {force_target!r}"
            )
        run = self._launch if force_target is None else self._launch_degraded
        tracer = self.tracer
        if tracer.enabled:
            with tracer.activate(), tracer.span(
                "launch", region=region_name, policy=self.policy.name
            ) as span:
                record = run(region_name, env, budget, tenant)
                span.set("target", record.device)
                if record.fallback is not None:
                    span.set("fallback", record.fallback)
        else:
            # the tracer is off: no span, no activation, no span keywords
            record = run(region_name, env, budget, tenant)
        if self._families is not None:
            self._record_metrics(record)
        return record

    def _measure(self, device, attrs, env: Mapping[str, int], key: str) -> float:
        """One device's simulated seconds, memoized and dilation-scaled."""
        if self.memo is not None:
            seconds = self.memo.execution(device, attrs, env, key).seconds
        else:
            seconds = device.execute(attrs, env).seconds
        if self.time_dilation is not None:
            seconds *= self.time_dilation(device.kind)
        return seconds

    def _launch_degraded(
        self,
        region_name: str,
        env: Mapping[str, int],
        budget: Budget | None,
        tenant: str | None,
    ) -> LaunchRecord:
        """The admission-degraded path: straight to the host, no models.

        ``budget`` goes unused: the host path retries nothing and arms no
        deadline, so there is nothing to charge.
        """
        attrs = self.db.lookup(region_name)
        memo = self.memo
        key = memo.key(region_name, env) if memo is not None else case_key(region_name, env)
        measured = [self._measure(dev, attrs, env, key) for dev in self._devices]
        host = self._labels[0]
        return LaunchRecord(
            region_name=region_name,
            target="cpu",
            policy_name=self.policy.name,
            prediction=None,
            cpu_seconds=measured[0],
            gpu_seconds=min(measured[1:]),
            executed_seconds=measured[0],
            requested_target=host,
            admission=ADMISSION_DEGRADED,
            tenant=tenant,
            device=host,
            # every device was measured; none was predicted
            candidates=self._candidates((math.nan,) * len(measured), measured),
        )

    def _launch(
        self,
        region_name: str,
        env: Mapping[str, int],
        budget: Budget | None,
        tenant: str | None,
    ) -> LaunchRecord:
        """The full path: bind, measure, select, dispatch, observe, record.

        With the tracer on, selection runs inside a ``predict`` span and
        the dispatch chain inside a ``dispatch`` span; off, the same
        bodies run bare.
        """
        attrs = self.db.lookup(region_name)
        # one key per (region, dataset sizes): the memo's entries, the
        # drift streams and the hedge sketches; the memo keeps it per case
        memo = self.memo
        if memo is not None:
            key = memo.key(region_name, env)
            bound = memo.bound(attrs, env, key)
        else:
            key = case_key(region_name, env)
            bound = attrs.bind(env)
        devices, labels = self._devices, self._labels
        measured = [self._measure(dev, attrs, env, key) for dev in devices]
        for health in self.health:
            health.breaker.on_launch()

        tracer = self.tracer
        # order: device indices, the request first and the host (0) last
        if tracer.enabled:
            with tracer.span(
                "predict", region=region_name, policy=self.policy.name
            ) as pspan:
                order, predicted, prediction, decision = self._select(
                    bound, measured, key
                )
                pspan.set("requested", labels[order[0]])
                if prediction is not None:
                    pspan.set("pred_cpu_s", prediction.cpu.seconds)
                    pspan.set("pred_gpu_s", prediction.gpu.seconds)
                if decision is not None:
                    pspan.set("drift_mode", decision.mode)
                    pspan.set("drift_cpu_state", decision.cpu_state)
                    pspan.set("drift_gpu_state", decision.gpu_state)
        else:
            order, predicted, prediction, decision = self._select(
                bound, measured, key
            )
        requested = order[0]

        chain = (attrs, env, key, measured, order, predicted, decision, budget)
        if tracer.enabled:
            with tracer.span(
                "dispatch", region=region_name, requested=labels[requested]
            ) as dspan:
                outcome = self._dispatch(*chain)
                executed, attempts, events, overhead, reason, hedge = outcome
                dspan.set("target", labels[executed])
                dspan.set("attempts", attempts)
                if reason is not None:
                    dspan.set("fallback", reason)
                if overhead:
                    dspan.set("overhead_s", overhead)
                if hedge is not None:
                    dspan.set("hedge_winner", hedge.winner)
                for ev in events:
                    dspan.event(
                        "fault",
                        device=ev.device_name,
                        type=ev.error_type,
                        attempt=ev.attempt,
                    )
        else:
            outcome = self._dispatch(*chain)
        executed, attempts, events, overhead, reason, hedge = outcome

        if self.hedge is not None:
            for dev, seconds in zip(self._accels, measured[1:]):
                self.hedge.observe(dev.name, key, seconds)
        if predicted is not None:
            self._observe(key, predicted, measured)
        transfers = bound.transfer_mode
        return LaunchRecord(
            region_name=region_name,
            target=devices[executed].kind,
            policy_name=self.policy.name,
            prediction=prediction,
            cpu_seconds=measured[0],
            gpu_seconds=min(measured[1:]),
            executed_seconds=(
                hedge.completion_s
                if hedge is not None
                else measured[executed] + overhead
            ),
            requested_target=labels[requested],
            attempts=attempts,
            fault_events=events,
            fallback=reason,
            overhead_seconds=overhead,
            drift=decision,
            transfers=None if transfers == "declared" else transfers,
            hedge=hedge,
            tenant=tenant,
            device=labels[executed],
            candidates=self._candidates(predicted, measured),
        )

    def _dispatch(
        self,
        attrs: RegionAttributes,
        env: Mapping[str, int],
        key: str,
        measured: list[float],
        order: tuple[int, ...],
        predicted: list[float] | None,
        decision: DriftDecision | None,
        budget: Budget | None,
    ):
        """Run the dispatch chain, the watchdog and the hedge.

        Returns ``(executed, attempts, events, overhead, reason, hedge)``:
        the index of the device that ran the launch, the accelerator
        attempts, the fault events, the simulated overhead, why the
        launch left the request (None = it did not) and the hedge
        outcome.
        """
        devices, memo = self._devices, self.memo
        requested = order[0]
        reason: str | None = None  # why the launch left the request
        plan = None
        if requested and self.hedge is not None:
            plan = self.hedge.plan(
                devices[requested].name,
                key,
                drift_flagged=decision is not None,
                half_open=self.health[requested - 1].breaker.state
                is BreakerState.HALF_OPEN,
                budget=budget,
                predicted_gpu_s=(
                    predicted[requested] if predicted is not None else None
                ),
            )

        # the dispatch chain: accelerators in order, the host (which
        # never faults) ends it
        attempts = 0
        events: tuple[FaultEvent, ...] = ()
        overhead = 0.0
        for executed in order:
            if not executed:
                break
            dev, health = devices[executed], self.health[executed - 1]
            if not health.breaker.allows():
                reason = FALLBACK_BREAKER
                continue
            if predicted is not None:
                # health gate: a penalized card loses to the host
                penalty = health.penalty()
                if (
                    penalty > 1.0
                    and predicted[executed] * penalty >= predicted[0]
                ):
                    reason = FALLBACK_HEALTH
                    continue
            index = self._accel_launches[executed - 1]
            self._accel_launches[executed - 1] = index + 1
            result = dispatch_with_retries(
                injector=self.injector,
                clock=self.clock,
                health=health,
                device_name=dev.name,
                launch_index=index,
                footprint_bytes=(
                    memo.footprint(attrs, env, key, region_footprint_bytes)
                    if memo is not None
                    else region_footprint_bytes(attrs.region, env)
                ),
                memory_bytes=int(dev.gpu.mem_size_gib * 2**30),
                budget=budget,
            )
            attempts += result.attempts
            if result.attempts > 1 and self._families is not None:
                self._families["retries_total"].labels(dev.name).inc(
                    result.attempts - 1
                )
            events += result.fault_events
            overhead += result.overhead_seconds
            if result.ok:
                break
            reason = result.reason

        if executed and self.watchdog is not None and predicted is not None:
            # the watchdog budgets from the executed device's own
            # (drift-corrected) prediction
            basis = predicted[executed]
            if self.sentinel is not None:
                basis *= self.sentinel.correction(self._labels[executed], key)
            killed = self._kill_overrun(
                self.health[executed - 1],
                basis,
                measured[executed],
                launch_index=self._accel_launches[executed - 1] - 1,
                attempt=max(attempts, 1),
                budget=budget,
            )
            if killed is not None:
                event, burned, reason = killed
                events += (event,)
                overhead += burned
                executed = 0

        # resolve the armed backup against what the chain produced: the
        # requested primary (ok) or the serial host fallback (primary
        # dead); a reroute onto another accelerator leaves it unresolved
        hedge: HedgeOutcome | None = None
        if plan is not None and executed in (requested, 0):
            hedge = hedge_resolve(
                plan,
                primary_ok=executed == requested,
                primary_seconds=measured[executed],
                backup_seconds=measured[0],
                overhead_seconds=overhead,
            )
            if hedge is not None and hedge.winner == "backup" and executed:
                executed, reason = 0, FALLBACK_HEDGE
        return executed, attempts, events, overhead, reason, hedge

    def _candidates(self, predicted, measured) -> tuple[DeviceOutcome, ...]:
        """Every device's outcome, host first; empty at N = 1."""
        if self._single:
            return ()
        return tuple(
            DeviceOutcome(dev.name, dev.kind, p, m)
            for dev, p, m in zip(self._devices, predicted, measured)
        )

    # -- selection ------------------------------------------------------------
    def _select(self, bound, measured, key):
        """Rank the accelerators and take the healed pick on the first.

        Returns the dispatch order (the request, the other accelerators in
        rank order, the host), every device's predicted seconds (None when
        the policy predicts nothing), the request's prediction and the
        drift verdict.
        """
        policy = self.policy
        choices = [
            policy.choose(
                bound,
                view,
                num_threads=self.num_threads,
                sim_cpu_seconds=measured[0],
                sim_gpu_seconds=seconds,
            )
            for view, seconds in zip(self._views, measured[1:])
        ]
        predicted = None
        if choices[0][1] is not None:
            # the host's prediction comes from the first slot's view
            predicted = [choices[0][1].cpu.seconds]
            predicted += [pred.gpu.seconds for _, pred in choices]
        ranked = self._slots
        # one accelerator needs no ranking, nor a penalty read for it
        if len(ranked) > 1:
            if predicted is None:
                raise ValueError(
                    f"policy {policy.name!r} makes no prediction to "
                    f"rank {len(ranked)} accelerators by"
                )
            ranked = sorted(ranked, key=lambda i: self._rank_key(i, predicted, key))
        card = ranked[0]
        pick, prediction = choices[card - 1]
        requested = card if pick == "gpu" else 0
        # Self-healing selection: when the sentinel has flagged a stream,
        # the healed pick *is* the request (the raw model pick survives in
        # the drift provenance).  None while everything is CALIBRATED.
        decision: DriftDecision | None = None
        if self._healer is not None and prediction is not None:
            decision = self._healer.decide(key, prediction, self._labels[card])
            if decision is not None:
                requested = 0 if decision.target == self._labels[0] else card
        order = (card, *ranked[1:], 0) if requested else (0,)
        return order, predicted, prediction, decision

    def _rank_key(self, i: int, predicted, key: str) -> tuple[bool, float]:
        """Closed breakers first, then the corrected, penalized prediction."""
        health = self.health[i - 1]
        cost = predicted[i]
        if self.sentinel is not None:
            cost *= self.sentinel.correction(self._labels[i], key)  # 1.0 unless DRIFTED
        return not health.breaker.allows(), cost * health.penalty()

    # -- watchdog / budget kill -------------------------------------------------
    def _kill_overrun(
        self,
        health: DeviceHealth,
        basis_seconds: float,
        observed_seconds: float,
        *,
        launch_index: int,
        attempt: int,
        budget: Budget | None,
    ) -> tuple[FaultEvent, float, str] | None:
        """Kill a dispatch that overran its deadline; feed the breaker.

        The deadline is the watchdog's ``predicted × factor + slack``,
        tightened to the remaining budget when one is attached and
        poorer.  Returns ``(event, burned_seconds, fallback_label)`` —
        the caller adds the burn to its overhead — or None within
        bounds.  The burn is advanced on the clock and charged to the
        budget here.
        """
        deadline = self.watchdog.deadline(basis_seconds)
        source = "watchdog"
        if budget is not None and budget.remaining() < deadline:
            deadline, source = budget.remaining(), "budget"
        if observed_seconds <= deadline:
            return None
        if source == "watchdog":
            err: BudgetExhausted | DeadlineExceeded = DeadlineExceeded(
                f"device time {observed_seconds:.3e}s exceeded watchdog "
                f"deadline {deadline:.3e}s (predicted {basis_seconds:.3e}s x "
                f"{DEADLINE_FACTOR:g} + {DEADLINE_SLACK_S:g}s)",
                device_name=health.device_name,
                launch_index=launch_index,
                attempt=attempt,
                deadline_seconds=deadline,
                observed_seconds=observed_seconds,
            )
            fallback = FALLBACK_DEADLINE
        else:
            err = BudgetExhausted(
                f"device time {observed_seconds:.3e}s exceeded remaining "
                f"budget {deadline:.3e}s",
                device_name=health.device_name,
                launch_index=launch_index,
                attempt=attempt,
                budget_seconds=budget.total_s,
                remaining_seconds=deadline,
            )
            fallback = FALLBACK_BUDGET
        health.record_failure(err)
        event = FaultEvent(
            device_name=err.device_name,
            launch_index=err.launch_index,
            attempt=err.attempt,
            error_type=type(err).__name__,
            message=str(err),
        )
        # the deadline's worth of device time was burned before the kill
        self.clock.advance(deadline)
        if budget is not None:
            budget.charge(deadline)
        return event, deadline, fallback

    # -- observation ------------------------------------------------------------
    def _observe(self, key, predicted, measured) -> None:
        """Score every device's prediction against its measurement.

        Post-mortem: every device is simulated every launch, so every drift
        stream learns regardless of where the region actually ran.  With
        metrics on, each stream's verdict change and each prediction's
        log error are counted.
        """
        sentinel, fams = self.sentinel, self._families
        for i, label in enumerate(self._labels):
            p, m = predicted[i], measured[i]
            if sentinel is not None:
                before, after = sentinel.observe(label, key, p, m)
                if after is not before and fams is not None:
                    fams["drift_transitions_total"].labels(label, after.value).inc()
            if (
                fams is not None
                and p > 0.0
                and m > 0.0
                and math.isfinite(p)
                and math.isfinite(m)
            ):
                hist = self._error_hists[i]
                if hist is None:
                    hist = self._error_hists[i] = fams[
                        "prediction_abs_log_error"
                    ].labels(label)
                hist.observe(abs(math.log10(p / m)))

    def _record_metrics(self, record: LaunchRecord) -> None:
        """Fold one launch's outcome into the registry (observe-only).

        Zero-overhead launches (no retries, no deadline burn — the memo
        fast path among them) are counted separately instead of
        collapsing the overhead sketch's lowest bucket, so the p50/p99
        tails reflect real dispatch work.  ``retries_total`` is counted
        where each accelerator's retry loop returns, in ``_dispatch``.

        The instruments every launch emits through are bound on their
        first emission and kept, so each enters the registry exactly
        when it first would by name.
        """
        fams = self._families
        launches = self._launch_counters.get(record.device)
        if launches is None:
            launches = self._launch_counters[record.device] = fams[
                "launches_total"
            ].labels(record.device)
        launches.inc()
        if record.tenant is not None:
            fams["tenant_launches_total"].labels(record.tenant).inc()
        every = self._every_launch
        if every is None:
            # the overhead sketch, the clock gauge and the breaker gauges:
            # emitted on every launch, so bound together by the first
            every = self._every_launch = (
                fams["dispatch_overhead_seconds"].labels(),
                fams["sim_clock_seconds"].labels(),
                tuple(
                    (fams["breaker_open_transitions"].labels(h.device_name), h)
                    for h in self.health
                ),
            )
        overhead_sketch, clock_gauge, breaker_gauges = every
        if record.overhead_seconds != 0.0:
            overhead_sketch.observe(record.overhead_seconds)
        else:
            zero = self._zero_overhead
            if zero is None:
                zero = self._zero_overhead = fams[
                    "dispatch_overhead_zero_total"
                ].labels()
            zero.inc()
        if record.admission is not None:
            fams["admission_total"].labels(record.admission).inc()
        if record.fallback is not None:
            fams["fallbacks_total"].labels(record.fallback).inc()
        for ev in record.fault_events:
            fams["fault_events_total"].labels(ev.error_type).inc()
        for gauge, health in breaker_gauges:
            gauge.set(health.breaker.opens)
        drift = record.drift
        if drift is not None:
            fams["drift_decisions_total"].labels(drift.mode).inc()
            for device, state in drift.flags:
                fams["drift_flagged_total"].labels(device, state).inc()
        hedge = record.hedge
        if hedge is not None:
            fams["hedged_launches_total"].labels(hedge.trigger, hedge.winner).inc()
            fams["hedge_extra_work_seconds"].labels().observe(hedge.extra_work_s)
        clock_gauge.set(self.clock.now)
