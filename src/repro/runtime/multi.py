"""Multi-accelerator target selection.

Section II.A: "If the programming model allows it, the host may elect to
schedule kernel execution either on the host itself or any of the
available accelerators."  This module generalizes the binary CPU/GPU
decision to a host plus any number of attached accelerators (Figure 1's
topology): the models are evaluated once per candidate device and the
lowest prediction wins.

Selection and dispatch are health-aware (docs/ROBUSTNESS.md): each
accelerator's prediction is scaled by its :class:`DeviceHealth` penalty,
devices with an open circuit breaker are skipped outright, and a faulted
dispatch retries with backoff then falls through to the next-best
candidate (the host last, which never faults).  Without an injector and
with all devices healthy the choice is bit-identical to the plain
prediction argmin.

An optional :class:`~repro.lint.LintGate` screens regions before any
accelerator dispatch, exactly as on the single-device runtime: a region
with race-severity findings raises, runs on the host, or is merely
recorded, per the gate mode (docs/LINT.md).

Selection is also drift-aware (docs/ROBUSTNESS.md): with a
:class:`~repro.drift.DriftSentinel` attached, every device's prediction
is additionally scaled by its stream's learned correction factor once
that stream is DRIFTED, and a :class:`~repro.drift.Watchdog` deadline
(from the executed device's own prediction) kills overruns onto the host
as typed :class:`~repro.faults.DeadlineExceeded` failures.  The full
hysteresis/measured-history ladder of the two-device runtime does not
apply here — corrections fold straight into the argmin.  All streams
CALIBRATED leaves records bit-identical (``drift=None``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from ..analysis import ProgramAttributeDatabase
from ..calibrate import fit_model_calibration
from ..drift import DriftSentinel, DriftState, Watchdog
from ..faults import (
    DeviceHealth,
    FaultEvent,
    FaultInjector,
    RetryPolicy,
    SimulatedClock,
)
from ..faults.resilient import FALLBACK_BREAKER
from ..ir import Region
from ..lint.gate import FALLBACK_LINT, GateDecision, LintGate, LintGateError
from ..machines import AcceleratorSlot, Platform
from ..models import SelectionPrediction, predict_both
from ..obs import NULL_TRACER, MetricsRegistry, NullTracer, Tracer
from .device import AcceleratorDevice, HostDevice
from .dispatch import (
    FALLBACK_BULKHEAD,
    FALLBACK_HEDGE,
    Budget,
    Bulkhead,
    DispatchCore,
    HedgeOutcome,
    HedgePolicy,
)
from .framework import ADMISSION_DEGRADED
from .memo import ExecutionMemo

__all__ = ["DeviceOutcome", "MultiLaunchRecord", "MultiDeviceRuntime"]


@dataclass(frozen=True)
class DeviceOutcome:
    """Prediction + measurement for one candidate device."""

    device_name: str
    kind: str  # "cpu" | "gpu"
    predicted_seconds: float
    measured_seconds: float


@dataclass(frozen=True)
class MultiLaunchRecord:
    """Everything observed for one launch across all candidate devices.

    The trailing fields are fault-tolerance provenance with untroubled
    defaults, as on :class:`~repro.runtime.LaunchRecord`.
    """

    region_name: str
    outcomes: tuple[DeviceOutcome, ...]
    chosen: str  # device name the (health-aware) models selected
    executed_device: str | None = None  # device that ran it (None = chosen)
    attempts: int = 0  # accelerator dispatch attempts across all devices
    fault_events: tuple[FaultEvent, ...] = ()
    fallback: str | None = None  # why the launch left the chosen device
    overhead_seconds: float = 0.0  # simulated retry backoff
    lint: GateDecision | None = None  # gate verdict (None = clean or no gate)
    #: (device_name, drift-state) pairs for streams not CALIBRATED
    drift: tuple[tuple[str, str], ...] | None = None
    admission: str | None = None  # admission-control provenance (None = full path)
    transfers: str | None = None  # transfer sizing source (None = declared map)
    hedge: HedgeOutcome | None = None  # hedged-launch provenance (None = no backup)
    tenant: str | None = None  # issuing tenant (None = anonymous/single-tenant)

    def outcome_of(self, device_name: str) -> DeviceOutcome:
        for o in self.outcomes:
            if o.device_name == device_name:
                return o
        raise KeyError(device_name)

    @property
    def chosen_outcome(self) -> DeviceOutcome:
        return self.outcome_of(self.chosen)

    @property
    def executed_outcome(self) -> DeviceOutcome:
        return self.outcome_of(self.executed_device or self.chosen)

    @property
    def oracle_name(self) -> str:
        return min(self.outcomes, key=lambda o: o.measured_seconds).device_name

    @property
    def decision_correct(self) -> bool:
        return self.chosen == self.oracle_name

    @property
    def executed_seconds(self) -> float:
        if self.hedge is not None:
            return self.hedge.completion_s
        return self.executed_outcome.measured_seconds + self.overhead_seconds

    @property
    def fell_back(self) -> bool:
        return self.fallback is not None


@dataclass
class MultiDeviceRuntime:
    """An offloading runtime choosing among host + N accelerators."""

    platform: Platform
    num_threads: int | None = None
    db: ProgramAttributeDatabase = field(default_factory=ProgramAttributeDatabase)
    injector: FaultInjector | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    lint_gate: LintGate | None = None
    sentinel: DriftSentinel | None = None
    watchdog: Watchdog | None = None
    health_decay_halflife_s: float | None = None  # simulated-time penalty decay
    tracer: Tracer | NullTracer = NULL_TRACER  # off by default (records nothing)
    metrics: MetricsRegistry | None = None
    #: optional per-(region, env) cache of the deterministic launch inputs
    #: (see OffloadingRuntime.memo) — bit-identical records, 10⁵-launch speed
    memo: ExecutionMemo | None = None
    #: optional chaos hook: kind ("cpu"/"gpu") -> simulated-time multiplier
    time_dilation: Callable[[str], float] | None = None
    #: key drift-sentinel streams by (region, env) instead of region alone,
    #: so mixed dataset sizes never conflate into one residual stream.  Off
    #: by default (the historical keying the drift experiment pins).
    sentinel_stream_by_env: bool = False
    #: optional per-device bounded scheduled-work slots; saturated
    #: accelerators are skipped in the dispatch chain (FALLBACK_BULKHEAD).
    bulkheads: Bulkhead | None = None
    #: optional speculative host-backup policy (docs/ROBUSTNESS.md)
    hedge: HedgePolicy | None = None

    def __post_init__(self):
        if not self.platform.accelerators:
            raise ValueError("MultiDeviceRuntime needs at least one accelerator")
        self._host = HostDevice(self.platform.host, num_threads=self.num_threads)
        self._accels = [
            AcceleratorDevice(slot.gpu, slot.bus)
            for slot in self.platform.accelerators
        ]
        self._calibrations: dict[str, object] = {}
        self.clock = SimulatedClock()
        self.health = {
            dev.name: DeviceHealth(
                dev.name,
                clock=self.clock,
                decay_halflife_s=self.health_decay_halflife_s,
            )
            for dev in self._accels
        }
        self._accel_launches = {dev.name: 0 for dev in self._accels}
        if self.tracer.enabled and self.tracer.clock is None:
            self.tracer.clock = self.clock  # span timestamps follow this runtime
        if self.sentinel is not None and self.sentinel.clock is None:
            self.sentinel.clock = self.clock  # drift transitions get timestamps
        self._core = DispatchCore(self)

    def compile_region(self, region: Region):
        with self.tracer.activate():
            return self.db.compile_region(region)

    def _slot_prediction(
        self, bound, slot: AcceleratorSlot
    ) -> SelectionPrediction:
        """Evaluate the models for one accelerator slot."""
        view = Platform(
            name=f"{self.platform.host.name}+{slot.gpu.name}",
            host=self.platform.host,
            accelerators=(slot,),
        )
        if view.name not in self._calibrations:
            self._calibrations[view.name] = fit_model_calibration(
                view, num_threads=self.num_threads
            )
        return predict_both(
            bound,
            view,
            num_threads=self.num_threads,
            calibration=self._calibrations[view.name],
        )

    def _effective_predicted(
        self, outcome: DeviceOutcome, region_name: str | None = None
    ) -> float:
        """Predicted seconds scaled by health penalty and drift correction."""
        predicted = outcome.predicted_seconds
        if self.sentinel is not None and region_name is not None:
            # 1.0 unless this device's stream is DRIFTED
            predicted *= self.sentinel.correction(outcome.device_name, region_name)
        if outcome.kind == "cpu":
            return predicted
        return predicted * self.health[outcome.device_name].penalty()

    def _observe_outcomes(
        self, region_name: str, outcomes: list[DeviceOutcome]
    ) -> tuple[tuple[str, str], ...] | None:
        """Feed the sentinel post-launch; return the drift provenance."""
        if self.sentinel is None:
            return None
        for o in outcomes:
            self.sentinel.observe(
                o.device_name, region_name, o.predicted_seconds, o.measured_seconds
            )
        flagged = tuple(
            (o.device_name, self.sentinel.state(o.device_name, region_name).value)
            for o in outcomes
            if self.sentinel.state(o.device_name, region_name)
            is not DriftState.CALIBRATED
        )
        return flagged or None

    def _dispatch(
        self,
        region: Region,
        env: Mapping[str, int],
        candidates: list[DeviceOutcome],
        budget: Budget | None = None,
    ) -> tuple[str, int, tuple[FaultEvent, ...], float, str | None]:
        """Try candidates in order; the host (never faults) ends the chain."""
        attempts = 0
        events: list[FaultEvent] = []
        overhead = 0.0
        reason: str | None = None
        attrs = self.db.lookup(region.name)
        core = self._core
        for cand in candidates:
            if cand.kind == "cpu":
                return cand.device_name, attempts, tuple(events), overhead, reason
            health = self.health[cand.device_name]
            if not health.breaker.allows():
                reason = FALLBACK_BREAKER
                continue
            if core.bulkhead_blocks(cand.device_name):
                reason = FALLBACK_BULKHEAD
                continue
            index = self._accel_launches[cand.device_name]
            self._accel_launches[cand.device_name] += 1
            gpu = next(d for d in self._accels if d.name == cand.device_name)
            result = core.attempt(
                health=health,
                device=gpu,
                attrs=attrs,
                env=env,
                launch_index=index,
                budget=budget,
            )
            attempts += result.attempts
            events.extend(result.fault_events)
            overhead += result.overhead_seconds
            if result.ok:
                return cand.device_name, attempts, tuple(events), overhead, reason
            reason = result.reason
        raise AssertionError("host candidate must terminate the chain")

    def _launch_degraded(
        self, region_name: str, env: Mapping[str, int]
    ) -> MultiLaunchRecord:
        """The admission-degraded path: straight to the host, no models."""
        attrs = self.db.lookup(region_name)
        host_seconds = self._core.measure(self._host, attrs, env)
        outcome = DeviceOutcome(
            device_name=self._host.name,
            kind="cpu",
            predicted_seconds=math.nan,
            measured_seconds=host_seconds,
        )
        return MultiLaunchRecord(
            region_name=region_name,
            outcomes=(outcome,),
            chosen=self._host.name,
            admission=ADMISSION_DEGRADED,
        )

    def launch(
        self,
        region_name: str,
        env: Mapping[str, int],
        *,
        force_target: str | None = None,
        budget: Budget | None = None,
        tenant: str | None = None,
    ) -> MultiLaunchRecord:
        """Predict every candidate device, dispatch to the best that works.

        ``force_target="cpu"`` is the admission controller's degrade hook,
        exactly as on :class:`~repro.runtime.OffloadingRuntime`: the host
        runs the region immediately, no models are evaluated, and the
        record carries ``admission=ADMISSION_DEGRADED``.
        """
        if force_target not in (None, "cpu"):
            raise ValueError(
                f"force_target must be None or 'cpu', got {force_target!r}"
            )
        tracer = self.tracer
        with tracer.activate(), tracer.span(
            "launch", region=region_name, devices=1 + len(self._accels)
        ) as span:
            if force_target == "cpu":
                record = self._launch_degraded(region_name, env)
            else:
                record = self._launch(region_name, env, tracer, budget)
            if tenant is not None:
                record = replace(record, tenant=tenant)
            if tracer.enabled:
                span.set("chosen", record.chosen)
                span.set("executed", record.executed_device or record.chosen)
                if record.fallback is not None:
                    span.set("fallback", record.fallback)
        if self.metrics is not None:
            self._core.record_metrics(
                record,
                executed_device=record.executed_device or record.chosen,
                retries_labels={},
                healths=self.health.items(),
                pred_triples=[
                    (o.device_name, o.predicted_seconds, o.measured_seconds)
                    for o in record.outcomes
                ],
            )
        return record

    def _launch(
        self,
        region_name: str,
        env: Mapping[str, int],
        tracer: Tracer | NullTracer,
        budget: Budget | None = None,
    ) -> MultiLaunchRecord:
        core = self._core
        attrs = self.db.lookup(region_name)
        skey = core.sentinel_key(region_name, env)
        bound = core.bound(attrs, env)

        outcomes: list[DeviceOutcome] = []
        host_seconds = core.measure(self._host, attrs, env)
        host_pred = None
        for slot, dev in zip(self.platform.accelerators, self._accels):
            with tracer.span(
                "predict", region=region_name, device=dev.name
            ) as pspan:
                pred = self._slot_prediction(bound, slot)
                if tracer.enabled:
                    pspan.set("pred_cpu_s", pred.cpu.seconds)
                    pspan.set("pred_gpu_s", pred.gpu.seconds)
            if host_pred is None:
                host_pred = pred.cpu.seconds
                outcomes.append(
                    DeviceOutcome(
                        device_name=self._host.name,
                        kind="cpu",
                        predicted_seconds=pred.cpu.seconds,
                        measured_seconds=host_seconds,
                    )
                )
            outcomes.append(
                DeviceOutcome(
                    device_name=dev.name,
                    kind="gpu",
                    predicted_seconds=pred.gpu.seconds,
                    measured_seconds=core.measure(dev, attrs, env),
                )
            )

        for health in self.health.values():
            health.breaker.on_launch()

        # Health- and drift-aware selection: penalized (and, for DRIFTED
        # streams, corrected) predictions, open breakers skipped (the host
        # is always a candidate so the pool is never empty).  Fault-free
        # and fully calibrated this is the plain prediction argmin.
        def effective(o: DeviceOutcome) -> float:
            return self._effective_predicted(o, skey)

        selectable = [
            o
            for o in outcomes
            if o.kind == "cpu" or self.health[o.device_name].breaker.allows()
        ]
        chosen = min(selectable, key=effective).device_name

        # Pre-dispatch lint gate: a region with blocking findings never
        # reaches an accelerator (the host runs it instead), and the
        # verdict lands in the record next to the fault provenance.
        with tracer.span(
            "dispatch", region=region_name, chosen=chosen
        ) as dspan:
            lint_decision = (
                self.lint_gate.decide(attrs.region) if self.lint_gate else None
            )
            if (
                lint_decision is not None
                and lint_decision.blocked
                and self.outcome_by_name(outcomes, chosen).kind == "gpu"
            ):
                if lint_decision.action == "raise":
                    raise LintGateError(region_name, lint_decision.codes)
                host = next(o for o in outcomes if o.kind == "cpu")
                if tracer.enabled:
                    dspan.set("executed", host.device_name)
                    dspan.set("fallback", FALLBACK_LINT)
                return MultiLaunchRecord(
                    region_name=region_name,
                    outcomes=tuple(outcomes),
                    chosen=chosen,
                    executed_device=host.device_name,
                    fallback=FALLBACK_LINT,
                    lint=lint_decision,
                    drift=self._observe_outcomes(skey, outcomes),
                    transfers=core.transfer_provenance(bound),
                )

            # Speculative host backup (docs/ROBUSTNESS.md): armed only when
            # the chosen device is an accelerator whose prediction confidence
            # is low — drift-flagged stream, half-open breaker, or a budget
            # too poor to absorb another retry loop.
            chosen_outcome = self.outcome_by_name(outcomes, chosen)
            plan = None
            if chosen_outcome.kind == "gpu":
                plan = core.hedge_plan(
                    device_name=chosen,
                    region_name=region_name,
                    env=env,
                    drift_flagged=(
                        self.sentinel is not None
                        and self.sentinel.state(chosen, skey)
                        is not DriftState.CALIBRATED
                    ),
                    half_open=core.half_open(self.health[chosen]),
                    budget=budget,
                    predicted_gpu_s=chosen_outcome.predicted_seconds,
                )

            # Dispatch order: chosen first, then the remaining candidates by
            # effective prediction; the host terminates the chain.
            ranked = sorted(outcomes, key=effective)
            order = [chosen_outcome]
            order += [
                o for o in ranked if o.device_name != chosen and o.kind == "gpu"
            ]
            order += [o for o in ranked if o.kind == "cpu"]
            executed, attempts, events, overhead, reason = self._dispatch(
                attrs.region, env, order, budget
            )

            # Watchdog: the executed accelerator's own (corrected) prediction
            # bounds how long the runtime lets it run; an overrun is killed at
            # the deadline (tightened to any remaining budget) and the region
            # reruns on the host.
            fallback = reason if executed != chosen else None
            executed_outcome = self.outcome_by_name(outcomes, executed)
            if (
                self.watchdog is not None
                and executed_outcome.kind == "gpu"
            ):
                predicted = executed_outcome.predicted_seconds
                if self.sentinel is not None:
                    predicted *= self.sentinel.correction(executed, skey)
                killed = core.kill_overrun(
                    health=self.health[executed],
                    device_name=executed,
                    basis_seconds=predicted,
                    observed_seconds=executed_outcome.measured_seconds,
                    launch_index=self._accel_launches[executed] - 1,
                    attempt=max(attempts, 1),
                    budget=budget,
                )
                if killed is not None:
                    event, burned, fallback = killed
                    events = events + (event,)
                    overhead += burned
                    executed = self._host.name

            # Resolve the armed backup against whatever the chain produced.
            # The race is only well-defined against the chosen primary (ok)
            # or the serial host fallback (primary dead); a reroute onto a
            # *different* accelerator leaves the hedge unresolved (None).
            hedge: HedgeOutcome | None = None
            if plan is not None:
                host = next(o for o in outcomes if o.kind == "cpu")
                if executed == chosen:
                    hedge = core.hedge_resolve(
                        plan,
                        primary_ok=True,
                        primary_seconds=executed_outcome.measured_seconds,
                        backup_seconds=host.measured_seconds,
                        overhead_seconds=overhead,
                    )
                    if hedge is not None and hedge.winner == "backup":
                        executed = host.device_name
                        fallback = FALLBACK_HEDGE
                elif executed == host.device_name:
                    hedge = core.hedge_resolve(
                        plan,
                        primary_ok=False,
                        primary_seconds=0.0,
                        backup_seconds=host.measured_seconds,
                        overhead_seconds=overhead,
                    )
            for o in outcomes:
                if o.kind == "gpu":
                    core.hedge_observe(
                        o.device_name, region_name, env, o.measured_seconds
                    )

            if tracer.enabled:
                dspan.set("executed", executed)
                dspan.set("attempts", attempts)
                if fallback is not None:
                    dspan.set("fallback", fallback)
                if hedge is not None:
                    dspan.set("hedge_winner", hedge.winner)
                for ev in events:
                    dspan.event(
                        "fault",
                        device=ev.device_name,
                        type=ev.error_type,
                        attempt=ev.attempt,
                    )
            return MultiLaunchRecord(
                region_name=region_name,
                outcomes=tuple(outcomes),
                chosen=chosen,
                executed_device=executed,
                attempts=attempts,
                fault_events=events,
                fallback=fallback,
                overhead_seconds=overhead,
                lint=lint_decision,
                drift=self._observe_outcomes(skey, outcomes),
                transfers=core.transfer_provenance(bound),
                hedge=hedge,
            )

    @staticmethod
    def outcome_by_name(
        outcomes: list[DeviceOutcome], name: str
    ) -> DeviceOutcome:
        for o in outcomes:
            if o.device_name == name:
                return o
        raise KeyError(name)  # pragma: no cover - construction invariant
