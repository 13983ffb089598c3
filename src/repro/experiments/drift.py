"""Drift detection latency and self-healing selection accuracy.

Not a paper artefact — the robustness experiment for the drift sentinel
(docs/ROBUSTNESS.md).  Each scenario injects a calibration *skew* into the
model-guided policy's predictions mid-run (the analytical model silently
becomes optimistic or pessimistic about one device, exactly the failure
mode a retuned machine descriptor or a thermally throttled card causes)
and replays the same launch sequence through three arms:

* **baseline** — the unskewed model, no sentinel: the accuracy ceiling;
* **skewed** — the skewed model, no sentinel: what silent miscalibration
  costs;
* **healed** — the skewed model with the :class:`DriftSentinel` +
  :class:`Watchdog` attached: what the closed loop recovers.

Reported per scenario: the launch at which the sentinel first reached
DRIFTED (detection latency), the launch at which a transient skew was
re-promoted to CALIBRATED, and the post-detection selection accuracy of
every arm against the true-time oracle.  The zero-skew scenario doubles
as the bit-identity self-check: with nothing to detect, the healed arm's
records must equal the baseline's exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..analysis import ProgramAttributeDatabase
from ..drift.sentinel import WARMUP
from ..machines import PLATFORM_P9_V100, Platform
from ..polybench import benchmark_by_name
from ..runtime import (
    DriftSentinel,
    LaunchRecord,
    ModelGuided,
    OffloadingRuntime,
    Watchdog,
)
from ..util import render_table

__all__ = [
    "SkewScenario",
    "DriftScore",
    "DriftResult",
    "run_drift",
    "default_scenarios",
    "MAX_DETECTION_LATENCY",
    "MAX_RECOVERY_GAP",
]

#: Self-check thresholds (see DriftScore.failures).
MAX_DETECTION_LATENCY = 8  # launches from skew onset to first DRIFTED
MAX_RECOVERY_GAP = 0.05  # baseline tail accuracy - healed tail accuracy

#: (benchmark, region, mode) cycle: six kernels whose true CPU/GPU ratios
#: sit close enough to break-even that a 6x calibration skew flips the
#: model-guided decision (probed across the suite; far-from-break-even
#: kernels would mask mispredictions entirely).
_WORKLOAD = (
    ("mvt", "mvt_k1", "benchmark"),
    ("atax", "atax_k2", "test"),
    ("gesummv", "gesummv", "benchmark"),
    ("2dconv", "2dconv", "test"),
    ("covar", "covar_reduce", "benchmark"),
    ("syrk", "syrk", "test"),
)


@dataclass(frozen=True)
class SkewScenario:
    """One calibration-skew injection: scale predictions from ``start``.

    ``cpu_scale``/``gpu_scale`` multiply the *predicted* seconds of that
    device while the skew is active — a scale below 1 makes the model
    optimistic about the device (it looks faster than it is), above 1
    pessimistic.  ``stop`` bounds a transient skew (exclusive); ``None``
    means the miscalibration is permanent.
    """

    name: str
    cpu_scale: float = 1.0
    gpu_scale: float = 1.0
    start: int = 24
    stop: int | None = None

    def __post_init__(self):
        if self.cpu_scale <= 0 or self.gpu_scale <= 0:
            raise ValueError("skew scales must be positive")
        if self.start < 0 or (self.stop is not None and self.stop <= self.start):
            raise ValueError("need 0 <= start < stop")

    def active(self, launch_index: int) -> bool:
        if launch_index < self.start:
            return False
        return self.stop is None or launch_index < self.stop

    @property
    def skews(self) -> bool:
        return self.cpu_scale != 1.0 or self.gpu_scale != 1.0


def default_scenarios(launches: int) -> tuple[SkewScenario, ...]:
    """The standard grid: control + 3 permanent skews + 1 transient."""
    return (
        SkewScenario("zero-skew"),
        SkewScenario("gpu-optimist", gpu_scale=1 / 6),
        SkewScenario("cpu-optimist", cpu_scale=1 / 6),
        SkewScenario("gpu-pessimist", gpu_scale=6.0),
        SkewScenario("transient", gpu_scale=1 / 6, stop=launches // 2),
    )


class _SkewedModel:
    """Model-guided policy whose predictions drift per a skew schedule.

    The *simulated* device times stay truthful — only the prediction fed
    to the selector (and hence the sentinel) is distorted, which is what
    "the analytical model is miscalibrated" means.
    """

    name = "model-guided+skew"

    def __init__(self, inner: ModelGuided, scenario: SkewScenario):
        self._inner = inner
        self._scenario = scenario
        self._launch_index = 0

    def choose(self, bound, platform, **kwargs):
        target, prediction = self._inner.choose(bound, platform, **kwargs)
        index = self._launch_index
        self._launch_index += 1
        if prediction is None or not self._scenario.active(index):
            return target, prediction
        prediction = prediction.scaled(
            self._scenario.cpu_scale, self._scenario.gpu_scale
        )
        return prediction.winner, prediction


@dataclass(frozen=True)
class DriftScore:
    """One scenario's detection + recovery metrics across the three arms."""

    scenario: str
    launches: int
    detection_launch: int | None  # first launch with a DRIFTED stream
    detection_latency: int | None  # detection_launch - skew start
    repromote_launch: int | None  # transient only: first all-clear launch
    #: Accuracies are scored over the *post-recovery* tail: from one full
    #: workload pass after detection (each stream needs one observation
    #: of the skew before its correction engages) — or from re-promotion
    #: for a transient skew — to the end of the run, same window for all
    #: three arms.
    baseline_accuracy: float  # oracle-match rate over the scoring tail
    skewed_accuracy: float
    healed_accuracy: float
    recovery_gap: float  # baseline_accuracy - healed_accuracy (tail)
    bit_identical: bool | None  # zero-skew only: healed records == baseline
    watchdog_overruns: int

    @property
    def failures(self) -> tuple[str, ...]:
        """The drift subsystem's promises this scenario breaks."""
        name = self.scenario
        out = []
        if self.bit_identical is not None:  # control scenario
            if not self.bit_identical:
                out.append(f"{name}: records not bit-identical")
            if self.detection_launch is not None:
                out.append(f"{name}: spurious drift detection")
            return tuple(out)
        if self.detection_latency is None:
            out.append(f"{name}: skew never detected")
        elif not self.detection_latency <= MAX_DETECTION_LATENCY:
            out.append(
                f"{name}: detection latency {self.detection_latency} "
                f"> {MAX_DETECTION_LATENCY} launches"
            )
        if not self.recovery_gap <= MAX_RECOVERY_GAP:
            out.append(
                f"{name}: recovery gap {self.recovery_gap:.3f} > {MAX_RECOVERY_GAP}"
            )
        return tuple(out)


@dataclass(frozen=True)
class DriftResult:
    """The full skew-scenario grid."""

    rows: tuple[DriftScore, ...]
    launches: int
    start: int

    def get(self, scenario: str) -> DriftScore:
        for row in self.rows:
            if row.scenario == scenario:
                return row
        raise KeyError(scenario)

    @property
    def failures(self) -> tuple[str, ...]:
        out = [f for row in self.rows for f in row.failures]
        transient = next((r for r in self.rows if r.scenario == "transient"), None)
        if transient is not None and transient.repromote_launch is None:
            out.append("transient: never re-promoted to CALIBRATED")
        return tuple(out)

    def render(self) -> str:
        def fmt(launch: int | None) -> str:
            return "-" if launch is None else str(launch)

        body = [
            [
                row.scenario,
                fmt(row.detection_launch),
                fmt(row.detection_latency),
                fmt(row.repromote_launch),
                f"{row.baseline_accuracy:.3f}",
                f"{row.skewed_accuracy:.3f}",
                f"{row.healed_accuracy:.3f}",
                f"{row.recovery_gap:+.3f}",
                "-" if row.bit_identical is None else str(row.bit_identical),
                "FAIL" if row.failures else "ok",
            ]
            for row in self.rows
        ]
        return render_table(
            [
                "scenario",
                "detected@",
                "latency",
                "repromote@",
                "base acc",
                "skew acc",
                "healed acc",
                "gap",
                "bit-identical",
                "verdict",
            ],
            body,
            title=(
                "Drift sentinel: detection latency & self-healing accuracy "
                f"({self.launches} launches, skew from launch {self.start})"
            ),
        )

    def to_payload(self) -> dict:
        """JSON-ready summary (what ``repro-paper drift --format json`` prints)."""
        return {
            "launches": self.launches,
            "skew_start": self.start,
            "max_detection_latency": MAX_DETECTION_LATENCY,
            "max_recovery_gap": MAX_RECOVERY_GAP,
            "passed": not self.failures,
            "scenarios": [dataclasses.asdict(row) for row in self.rows],
        }


def _build_workload(launches: int) -> list[tuple[str, dict]]:
    """(region_name, env) sequence cycling the near-break-even kernels."""
    specs = {name: benchmark_by_name(name) for name, _, _ in _WORKLOAD}
    return [
        (region, specs[name].env(mode))
        for name, region, mode in (
            _WORKLOAD[i % len(_WORKLOAD)] for i in range(launches)
        )
    ]


def _run_arm(
    platform: Platform,
    policy,
    workload: list[tuple[str, dict]],
    db: ProgramAttributeDatabase,
    *,
    sentinel: DriftSentinel | None = None,
    watchdog: Watchdog | None = None,
) -> tuple[list[LaunchRecord], list[bool]]:
    """Replay the workload; also track per-launch 'any stream DRIFTED'."""
    runtime = OffloadingRuntime(
        platform, policy=policy, db=db, sentinel=sentinel, watchdog=watchdog
    )
    records: list[LaunchRecord] = []
    drifted: list[bool] = []
    for region_name, env in workload:
        records.append(runtime.launch(region_name, env))
        drifted.append(sentinel.any_drifted() if sentinel else False)
    return records, drifted


def _accuracy(records: list[LaunchRecord], window: slice) -> float:
    scored = records[window]
    if not scored:
        return float("nan")
    return sum(r.decision_correct for r in scored) / len(scored)


def run_drift(
    *,
    platform: Platform = PLATFORM_P9_V100,
    launches: int = 96,
    start: int = 24,
    scenarios: tuple[SkewScenario, ...] | None = None,
) -> DriftResult:
    """Score sentinel detection + healing across the skew grid."""
    if launches <= start:
        raise ValueError(f"need launches > start, got {launches} <= {start}")
    # every stream must finish its warmup (WARMUP observations each, one
    # per workload pass) before the skew begins, or the polluted baselines
    # absorb part of the shift and the residuals under-report it
    min_start = WARMUP * len(_WORKLOAD)
    if start < min_start:
        raise ValueError(
            f"skew start {start} is inside the sentinel warmup; "
            f"need start >= {min_start}"
        )
    if scenarios is None:
        scenarios = tuple(
            dataclasses.replace(s, start=start) if s.skews else s
            for s in default_scenarios(launches)
        )
    workload = _build_workload(launches)
    # compiled once; every arm's runtime launches from it
    db = ProgramAttributeDatabase()
    for name in dict.fromkeys(name for name, _, _ in _WORKLOAD):
        for region in benchmark_by_name(name).build():
            db.compile_region(region)
    # shared so the analytical calibration is fitted once per platform
    inner = ModelGuided()
    baseline_records, _ = _run_arm(platform, inner, workload, db)

    rows: list[DriftScore] = []
    for scenario in scenarios:
        if scenario.skews:
            skewed_policy = _SkewedModel(inner, scenario)
            healed_policy = _SkewedModel(inner, scenario)
        else:
            # control: no wrapper, so the healed arm is record-for-record
            # comparable (policy_name included) with the baseline
            skewed_policy = healed_policy = inner
        skewed_records, _ = _run_arm(platform, skewed_policy, workload, db)
        healed_records, drifted = _run_arm(
            platform,
            healed_policy,
            workload,
            db,
            sentinel=DriftSentinel(),
            watchdog=Watchdog(),
        )

        detection = next((i for i, d in enumerate(drifted) if d), None)
        repromote = None
        if scenario.stop is not None and detection is not None:
            repromote = next(
                (
                    i
                    for i, d in enumerate(drifted)
                    if i >= scenario.stop and not d
                ),
                None,
            )
        # score every arm over the same window: the post-recovery tail
        # (see DriftScore) for skewed scenarios, the whole run for the
        # control
        if detection is None:
            window = slice(None)
        else:
            engaged = detection + len(_WORKLOAD)
            if repromote is not None:
                engaged = max(engaged, repromote)
            window = slice(engaged, None)
        baseline_acc = _accuracy(baseline_records, window)
        healed_acc = _accuracy(healed_records, window)
        rows.append(
            DriftScore(
                scenario=scenario.name,
                launches=launches,
                detection_launch=detection,
                detection_latency=(
                    detection - scenario.start if detection is not None else None
                ),
                repromote_launch=repromote,
                baseline_accuracy=baseline_acc,
                skewed_accuracy=_accuracy(skewed_records, window),
                healed_accuracy=healed_acc,
                recovery_gap=baseline_acc - healed_acc,
                bit_identical=(
                    None if scenario.skews else healed_records == baseline_records
                ),
                watchdog_overruns=sum(
                    1
                    for record in healed_records
                    if record.fallback == "deadline-exceeded"
                ),
            )
        )
    return DriftResult(rows=tuple(rows), launches=launches, start=start)
