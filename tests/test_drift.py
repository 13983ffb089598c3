"""Tests for the drift subsystem (repro.drift).

Covers the EWMA/CUSUM math against hand-computed sequences, the
three-state stream verdicts (including streak-based recovery and the
once-per-edge transition log), watchdog deadlines end to end through the
runtime, the self-healing ladder (corrected / history / hysteresis), the
bit-identity contract of sentinel-on zero-skew runs, and the experiment
grid's detection-latency and recovery-accuracy promises.
"""

import math
import struct
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.drift import (
    Cusum,
    DriftSentinel,
    DriftState,
    Ewma,
    SelfHealingSelector,
    StreamStats,
    Watchdog,
)
from repro.drift.sentinel import (
    CORRECTION_CLAMP,
    CUSUM_H,
    CUSUM_K,
    EWMA_ALPHA,
    MEASURED_ALPHA,
    RECOVER_AFTER,
    RECOVER_BAND,
    SUSPECT_FRACTION,
    WARMUP,
)
from repro.experiments import SkewScenario, run_drift
from repro.faults import DeadlineExceeded
from repro.machines import (
    NVLINK2,
    PCIE3_X16,
    PLATFORM_P9_V100,
    POWER9,
    AcceleratorSlot,
    Platform,
    TESLA_K80,
    TESLA_V100,
)
from repro.obs import MetricsRegistry
from repro.polybench import benchmark_by_name
from repro.runtime import OffloadingRuntime
from repro.runtime.dispatch import case_key

from .kernels import build_gemm

ENV = {"ni": 512, "nj": 512, "nk": 512}
ENV_BIG = {"ni": 9600, "nj": 9600, "nk": 9600}
#: device labels, host first: one accelerator (kinds) and two (names)
KINDS = ("cpu", "gpu")
NAMED = ("POWER9", "V100", "K80")


def _prediction(cpu_s: float, gpu_s: float):
    return SimpleNamespace(
        cpu=SimpleNamespace(seconds=cpu_s),
        gpu=SimpleNamespace(seconds=gpu_s),
        winner="gpu" if gpu_s < cpu_s else "cpu",
    )


class TestEwma:
    def test_first_sample_seeds_value(self):
        e = Ewma(alpha=0.5)
        assert e.update(2.0) == 2.0
        assert e.update(4.0) == 3.0  # 2 + 0.5 * (4 - 2)
        assert e.update(3.0) == 3.0
        assert e.count == 3


class TestCusum:
    def test_hand_computed_positive_ramp(self):
        c = Cusum(k=0.5, h=2.0)
        for expected in (0.5, 1.0, 1.5, 2.0):
            c.update(1.0)
            assert c.pos == pytest.approx(expected)
        assert not c.tripped  # strictly-greater threshold
        assert c.update(1.0)  # 2.5 > 2.0
        assert c.statistic == pytest.approx(2.5)

    def test_negative_side_and_slack_decay(self):
        c = Cusum(k=0.5, h=2.0)
        c.update(-3.0)
        assert c.neg == pytest.approx(2.5) and c.pos == 0.0
        assert c.tripped
        c.update(0.0)  # slack sheds k per observation
        assert c.neg == pytest.approx(2.0)
        c.reset()
        assert c.statistic == 0.0 and not c.tripped


class TestStreamStats:
    def _warm(self, stream: StreamStats, ratio: float = 1.0, n: int = 3):
        for _ in range(n):
            stream.observe(1.0, ratio)

    def test_static_bias_absorbed_by_baseline(self):
        # a constant 2x model error is the *accepted* static error: the
        # warmup baseline captures it and the stream never leaves CALIBRATED
        s = StreamStats("gpu", "r")
        for _ in range(50):
            assert s.observe(1.0, 2.0) is DriftState.CALIBRATED
        assert s.correction() == 1.0
        assert s.baseline == pytest.approx(math.log(2.0))

    def test_level_shift_reaches_drifted(self):
        s = StreamStats("gpu", "r")
        self._warm(s)
        # a 6x shift is log(6) ~ 1.79 > h = 0.6: one observation trips
        assert s.observe(1.0, 6.0) is DriftState.DRIFTED
        assert s.drift_count == 1
        # the correction undoes the shift relative to the baseline
        assert s.correction() == pytest.approx(6.0)

    def test_suspect_between_noise_floor_and_threshold(self):
        s = StreamStats("gpu", "r")
        self._warm(s)
        # residual 0.4 - k 0.05 = 0.35: above h/2 = 0.3, below h = 0.6
        assert s.observe(1.0, math.exp(0.4)) is DriftState.SUSPECT
        assert s.correction() == 1.0  # SUSPECT does not correct yet

    def test_streak_based_recovery_resets_cusum(self):
        s = StreamStats("gpu", "r")
        self._warm(s)
        s.observe(1.0, 6.0)
        assert s.state is DriftState.DRIFTED
        # recover_after consecutive in-band residuals re-promote the stream
        for _ in range(RECOVER_AFTER - 1):
            assert s.observe(1.0, 1.0) is DriftState.DRIFTED
        assert s.observe(1.0, 1.0) is DriftState.CALIBRATED
        assert s.cusum.statistic == 0.0
        assert s.correction() == 1.0

    def test_recovery_streak_broken_by_outlier(self):
        s = StreamStats("gpu", "r")
        self._warm(s)
        s.observe(1.0, 6.0)
        for _ in range(RECOVER_AFTER - 1):
            s.observe(1.0, 1.0)
        s.observe(1.0, 6.0)  # outlier restarts the streak
        for _ in range(RECOVER_AFTER - 1):
            assert s.observe(1.0, 1.0) is DriftState.DRIFTED

    def test_invalid_pairs_ignored(self):
        s = StreamStats("gpu", "r")
        for predicted, observed in [
            (math.nan, 1.0),
            (1.0, math.inf),
            (0.0, 1.0),
            (1.0, -1.0),
        ]:
            assert s.observe(predicted, observed) is DriftState.CALIBRATED
        assert s.observations == 0

    def test_correction_clamped(self):
        s = StreamStats("gpu", "r")
        self._warm(s)
        s.observe(1.0, 1e6)
        assert s.state is DriftState.DRIFTED
        assert s.correction() == CORRECTION_CLAMP


class _ReferenceStream:
    """``StreamStats.observe`` stepped through the detector objects.

    The method-based form the one-pass ``observe`` must equal: three
    :meth:`Ewma.update` calls, :meth:`Cusum.update`, and the CUSUM
    statistic read through :attr:`Cusum.tripped` and
    :attr:`Cusum.statistic`.
    """

    def __init__(self):
        self.state = DriftState.CALIBRATED
        self.observations = 0
        self.baseline = None
        self.ratio_ewma = Ewma(EWMA_ALPHA)
        self.instability = Ewma(EWMA_ALPHA)
        self.cusum = Cusum(CUSUM_K, CUSUM_H)
        self.measured = Ewma(MEASURED_ALPHA)
        self._warmup_sum = 0.0
        self._recover_streak = 0
        self.drift_count = 0

    def observe(self, predicted: float, observed: float) -> DriftState:
        if not (
            math.isfinite(predicted)
            and math.isfinite(observed)
            and predicted > 0.0
            and observed > 0.0
        ):
            return self.state
        quotient = observed / predicted
        if 0.0 < quotient < math.inf:
            log_ratio = math.log(quotient)
        else:
            log_ratio = math.log(observed) - math.log(predicted)
        self.observations += 1
        self.instability.update(
            abs(log_ratio - self.ratio_ewma.value)
            if self.ratio_ewma.count
            else 0.0
        )
        self.ratio_ewma.update(log_ratio)
        self.measured.update(observed)
        if self.observations <= WARMUP:
            self._warmup_sum += log_ratio
            if self.observations == WARMUP:
                self.baseline = self._warmup_sum / WARMUP
            return self.state
        residual = log_ratio - (self.baseline or 0.0)
        self.cusum.update(residual)
        if self.state is DriftState.DRIFTED:
            if abs(residual) <= RECOVER_BAND:
                self._recover_streak += 1
                self.ratio_ewma.value = log_ratio
            else:
                self._recover_streak = 0
            if self._recover_streak >= RECOVER_AFTER:
                self.state = DriftState.CALIBRATED
                self.cusum.reset()
                self._recover_streak = 0
        elif self.cusum.tripped:
            self.state = DriftState.DRIFTED
            self.drift_count += 1
            self._recover_streak = 0
            self.ratio_ewma.value = log_ratio
            self.instability = Ewma(EWMA_ALPHA)
        elif self.cusum.statistic > CUSUM_H * SUSPECT_FRACTION:
            self.state = DriftState.SUSPECT
        else:
            self.state = DriftState.CALIBRATED
        return self.state


def _bits(value) -> object:
    """A float's exact bit pattern (NaN payloads and ``-0.0`` included)."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _stream_fields(stream) -> tuple:
    return (
        stream.state,
        stream.observations,
        stream.baseline,
        stream._warmup_sum,
        stream.ratio_ewma.value,
        stream.ratio_ewma.count,
        stream.instability.value,
        stream.instability.count,
        stream.measured.value,
        stream.measured.count,
        stream.cusum.pos,
        stream.cusum.neg,
        stream.drift_count,
        stream._recover_streak,
    )


#: finite, positive (predicted, observed) pairs whose quotient underflows
#: to 0.0 and overflows to inf
_UNDERFLOW = (4.05e23, 1e-300)
_OVERFLOW = (1e-300, 1e300)

#: observation pairs: mostly ratios that walk a stream through warmup,
#: SUSPECT, DRIFTED and recovery, plus pairs the stream must ignore and
#: extreme magnitudes whose quotient underflows or overflows
_PAIRS = st.one_of(
    st.tuples(
        st.floats(1e-6, 1e3),
        st.one_of(
            st.sampled_from((1.0, 1.01, 1.08, 1.3, 1.5, 3.0, 8.0, 0.5, 0.125)),
            st.floats(0.5, 2.0),
        ),
    ).map(lambda pf: (pf[0], pf[0] * pf[1])),
    st.tuples(
        st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0)),
        st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0, 1.0)),
    ),
    st.tuples(
        st.floats(min_value=1e-300, max_value=1e300),
        st.floats(min_value=1e-300, max_value=1e300),
    ),
)


class TestOnePassObserve:
    """The one-pass ``observe`` equals the method-based detector steps."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    # runs of one pair let the stream settle, drift and recover
    @given(st.lists(st.tuples(_PAIRS, st.integers(1, 6)), max_size=25))
    # quotients that underflow to 0.0 and overflow to inf, in warmup and
    # after it
    @example([(_UNDERFLOW, 2), (_OVERFLOW, 2), ((1.0, 1.0), 3)])
    @example([((1.0, 1.0), 3), (_UNDERFLOW, 3), ((1.0, 1.0), 5), (_OVERFLOW, 3)])
    def test_every_field_bit_equal_after_each_step(self, runs):
        stream, reference = StreamStats("gpu", "r"), _ReferenceStream()
        for (predicted, observed), repeat in runs:
            for _ in range(repeat):
                assert stream.observe(predicted, observed) is reference.observe(
                    predicted, observed
                )
                fields = _stream_fields(stream)
                assert list(map(_bits, fields)) == list(
                    map(_bits, _stream_fields(reference))
                )
                # no pair, ignored or taken in, leaves a field inf or NaN
                assert all(math.isfinite(v) for v in fields if isinstance(v, float))
                assert math.isfinite(stream.correction())

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("cpu", "gpu", "K80")),
                st.sampled_from(("a", "b")),
                st.sampled_from((0.5, 1.0, 1.05, 1.5, 6.0, 0.1, math.nan, -1.0)),
                # runs of one ratio let streams settle, drift and recover
                st.integers(1, 6),
            ),
            max_size=40,
        )
    )
    def test_flagged_count_equals_a_recount(self, runs):
        sentinel = DriftSentinel()
        for device, region, observed, repeat in runs:
            for _ in range(repeat):
                sentinel.observe(device, region, 1.0, observed)
                assert sentinel.flagged == sum(
                    s.state is not DriftState.CALIBRATED
                    for s in sentinel.streams.values()
                )


class TestDriftSentinel:
    def test_on_drift_fires_once_per_edge(self):
        clock = SimpleNamespace(now=0.0)
        sentinel = DriftSentinel(clock=clock)
        for _ in range(3):
            sentinel.observe("gpu", "r", 1.0, 1.0)
        clock.now = 1.0
        sentinel.observe("gpu", "r", 1.0, 6.0)
        clock.now = 2.0
        sentinel.observe("gpu", "r", 1.0, 6.0)  # still DRIFTED: no new edge
        assert sentinel.transitions == [
            (1.0, "gpu", "r", DriftState.CALIBRATED, DriftState.DRIFTED)
        ]
        assert sentinel.any_drifted()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("cpu", "gpu")),
                st.sampled_from(("a", "b")),
                st.sampled_from((0.5, 1.0, 1.05, 1.5, 6.0, math.nan)),
            ),
            max_size=80,
        )
    )
    def test_observe_returns_the_states_around_the_observation(self, observations):
        clock = SimpleNamespace(now=0.0)
        sentinel = DriftSentinel(clock=clock)
        edges = []
        for i, (device, region, observed) in enumerate(observations):
            clock.now = float(i)
            expected_before = sentinel.state(device, region)
            before, after = sentinel.observe(device, region, 1.0, observed)
            assert before is expected_before
            assert after is sentinel.state(device, region)
            if after is not before:
                edges.append((float(i), device, region, before, after))
        # the transition log sees exactly those edges
        assert sentinel.transitions == edges

    def test_unknown_stream_defaults(self):
        sentinel = DriftSentinel()
        assert sentinel.state("gpu", "nope") is DriftState.CALIBRATED
        assert sentinel.correction("gpu", "nope") == 1.0
        assert sentinel.measured("gpu", "nope") is None
        assert sentinel.instability("gpu", "nope") == 0.0


class TestWatchdog:
    def test_deadline_formula(self):
        wd = Watchdog()
        assert wd.deadline(2.0) == 2.0 * 8.0 + 1e-4
        assert wd.exceeded(2.0, 16.0002)
        assert not wd.exceeded(2.0, 16.0001)  # at the deadline is not over it

    def test_unusable_prediction_disables_deadline(self):
        wd = Watchdog()
        assert wd.deadline(math.nan) == math.inf
        assert wd.deadline(0.0) == math.inf
        assert not wd.exceeded(math.nan, 1e9)


class TestSelfHealing:
    def _drifted_gpu_sentinel(
        self, observed: float = 3.0, cards: tuple[str, ...] = ("gpu",)
    ) -> DriftSentinel:
        sentinel = DriftSentinel()
        for card in cards:
            for _ in range(3):
                sentinel.observe(card, "r", 1.0, 1.0)
            sentinel.observe(card, "r", 1.0, observed)
            assert sentinel.state(card, "r") is DriftState.DRIFTED
        return sentinel

    def test_none_while_fully_calibrated(self):
        healer = SelfHealingSelector(DriftSentinel(), KINDS)
        assert healer.decide("r", _prediction(2.0, 1.0), "gpu") is None

    def test_corrected_mode_overrides_model(self):
        healer = SelfHealingSelector(self._drifted_gpu_sentinel(), KINDS)
        # model says gpu (1.0 < 2.0); corrected gpu cost is 3.0 -> cpu
        decision = healer.decide("r", _prediction(2.0, 1.0), "gpu")
        assert decision.mode == "corrected"
        assert decision.correction_gpu == pytest.approx(3.0)
        assert decision.model_target == "gpu" and decision.target == "cpu"
        assert decision.overrode

    def test_hysteresis_holds_inside_dead_band(self):
        healer = SelfHealingSelector(self._drifted_gpu_sentinel(), KINDS)
        first = healer.decide("r", _prediction(3.05, 1.0), "gpu")
        assert first.target == "gpu" and not first.held  # 3.0 < 3.05
        # corrected gpu (3.0) is now nominally slower than cpu (2.97),
        # but within the 5% dead-band: the previous pick is held
        held = healer.decide("r", _prediction(2.97, 1.0), "gpu")
        assert held.target == "gpu" and held.held
        # far outside the band the decision flips decisively
        flipped = healer.decide("r", _prediction(2.0, 1.0), "gpu")
        assert flipped.target == "cpu" and not flipped.held

    def test_history_mode_on_unstable_stream(self):
        sentinel = self._drifted_gpu_sentinel(observed=8.0)
        # whipsawing observations: no scalar correction fits
        sentinel.observe("gpu", "r", 1.0, 0.125)
        assert sentinel.instability("gpu", "r") > 0.35
        sentinel.observe("cpu", "r", 5.0, 5.0)  # cpu measured history
        healer = SelfHealingSelector(sentinel, KINDS)
        decision = healer.decide("r", _prediction(5.0, 1.0), "gpu")
        assert decision.mode == "history"
        # measured gpu ewma (~2.3s) beats measured cpu (5.0s)
        assert decision.target == "gpu"

    def test_suspect_only_keeps_model_pick(self):
        sentinel = DriftSentinel()
        for _ in range(3):
            sentinel.observe("gpu", "r", 1.0, 1.0)
        sentinel.observe("gpu", "r", 1.0, math.exp(0.4))
        assert sentinel.state("gpu", "r") is DriftState.SUSPECT
        decision = SelfHealingSelector(sentinel, KINDS).decide(
            "r", _prediction(2.0, 1.0), "gpu"
        )
        assert decision.mode == "model"
        assert decision.target == decision.model_target == "gpu"

    def test_named_hysteresis_holds_a_compared_card_only(self):
        sentinel = self._drifted_gpu_sentinel(cards=("V100", "K80"))
        healer = SelfHealingSelector(sentinel, NAMED)
        first = healer.decide("r", _prediction(3.05, 1.0), "V100")
        assert first.target == "V100" and not first.held  # 3.0 < 3.05
        assert first.flags == (("V100", "drifted"), ("K80", "drifted"))
        held = healer.decide("r", _prediction(2.97, 1.0), "V100")
        assert held.target == "V100" and held.held
        # against the K80 the held V100 is not a candidate: the lower
        # corrected cost wins inside the band
        other = healer.decide("r", _prediction(2.97, 1.0), "K80")
        assert other.target == "POWER9" and not other.held

    def test_named_history_mode_on_an_unstable_card(self):
        sentinel = self._drifted_gpu_sentinel(observed=8.0, cards=("K80",))
        sentinel.observe("K80", "r", 1.0, 0.125)
        assert sentinel.instability("K80", "r") > 0.35
        sentinel.observe("POWER9", "r", 5.0, 5.0)  # host measured history
        decision = SelfHealingSelector(sentinel, NAMED).decide(
            "r", _prediction(5.0, 1.0), "K80"
        )
        assert decision.mode == "history"
        assert decision.flags == (("K80", "drifted"),)
        # measured K80 ewma (~2.3s) beats the measured host (5.0s)
        assert decision.model_target == decision.target == "K80"


class TestRuntimeIntegration:
    def test_zero_skew_records_bit_identical(self):
        plain = OffloadingRuntime(PLATFORM_P9_V100)
        guarded = OffloadingRuntime(
            PLATFORM_P9_V100, sentinel=DriftSentinel(), watchdog=Watchdog()
        )
        for rt in (plain, guarded):
            rt.compile_region(build_gemm())
        for _ in range(6):  # spans warmup and post-warmup launches
            a = plain.launch("gemm", ENV)
            b = guarded.launch("gemm", ENV)
            assert a == b
            assert b.drift is None
        assert not guarded.sentinel.any_drifted()

    def test_fresh_registry_counts_drift_transitions(self):
        # the first launch finds the registry still empty
        scale = {"cpu": 1.0, "gpu": 1.0}
        rt = OffloadingRuntime(
            PLATFORM_P9_V100,
            sentinel=DriftSentinel(),
            metrics=MetricsRegistry(),
            time_dilation=scale.__getitem__,
        )
        rt.compile_region(build_gemm())
        for i in range(10):
            if i == 4:
                scale["gpu"] = 6.0  # the card slows down mid-stream
            rt.launch("gemm", ENV)
        counters = rt.metrics.snapshot()["counters"]
        assert counters["drift_transitions_total{device=gpu,to=drifted}"] == 1
        assert not any("device=cpu" in k for k in counters if "drift_transitions" in k)

    def test_watchdog_overrun_reroutes_and_feeds_health(self):
        spec = benchmark_by_name("atax")
        rt = OffloadingRuntime(
            PLATFORM_P9_V100,
            sentinel=DriftSentinel(),
            watchdog=Watchdog(),
            # a card 100x slower than predicted overruns the 8x deadline
            time_dilation=lambda kind: 100.0 if kind == "gpu" else 1.0,
        )
        for region in spec.build():
            rt.compile_region(region)
        rec = rt.launch("atax_k2", spec.env("test"))
        assert rec.target == "cpu" and rec.requested_target == "gpu"
        assert rec.fallback == "deadline-exceeded"
        assert [e.error_type for e in rec.fault_events] == ["DeadlineExceeded"]
        # the deadline's worth of device time was burned before the kill
        assert rec.overhead_seconds > 0.0
        assert rt.health[0].fault_counts.get("DeadlineExceeded") == 1
        assert rt.clock.now == pytest.approx(rec.overhead_seconds)

    def test_prediction_scaled_identity_and_copy(self):
        rt = OffloadingRuntime(PLATFORM_P9_V100)
        rt.compile_region(build_gemm())
        pred = rt.launch("gemm", ENV).prediction
        # the no-op scale returns the same object (identity comparability)
        assert pred.scaled() is pred
        doubled = pred.scaled(gpu_scale=2.0)
        assert doubled.gpu.seconds == pytest.approx(pred.gpu.seconds * 2)
        assert doubled.cpu.seconds == pred.cpu.seconds
        assert doubled is not pred

    def test_deadline_exceeded_error_shape(self):
        err = DeadlineExceeded(
            "too slow",
            device_name="gpu0",
            launch_index=3,
            attempt=1,
            deadline_seconds=1.0,
            observed_seconds=2.0,
        )
        assert not err.retryable
        assert err.deadline_seconds == 1.0 and err.observed_seconds == 2.0


DUAL = Platform(
    "P9 + V100/NVLink + K80/PCIe",
    POWER9,
    (
        AcceleratorSlot(TESLA_V100, NVLINK2),
        AcceleratorSlot(TESLA_K80, PCIE3_X16),
    ),
)


class TestMultiDeviceDrift:
    def test_zero_skew_records_bit_identical(self):
        plain = OffloadingRuntime(DUAL)
        guarded = OffloadingRuntime(
            DUAL, sentinel=DriftSentinel(), watchdog=Watchdog()
        )
        for rt in (plain, guarded):
            rt.compile_region(build_gemm())
        for _ in range(5):
            a = plain.launch("gemm", ENV)
            b = guarded.launch("gemm", ENV)
            assert a == b
            assert b.drift is None

    def test_drifted_device_penalized_in_selection(self):
        rt = OffloadingRuntime(DUAL, sentinel=DriftSentinel())
        rt.compile_region(build_gemm())
        baseline = rt.launch("gemm", ENV_BIG)
        v100 = next(o.device_name for o in baseline.candidates if "V100" in o.device_name)
        assert baseline.requested_target == v100  # the fast card wins when healthy
        # poison the V100 stream: observed seconds 64x its predictions
        stream = case_key("gemm", ENV_BIG)
        for _ in range(3):
            rt.sentinel.observe(v100, stream, 1.0, 1.0)
        rt.sentinel.observe(v100, stream, 1.0, 100.0)
        assert rt.sentinel.state(v100, stream) is DriftState.DRIFTED
        rec = rt.launch("gemm", ENV_BIG)
        assert rec.requested_target != v100  # the 64x-clamped correction reroutes
        assert rec.drift.flags
        assert (v100, "drifted") in rec.drift.flags


class TestDriftExperiment:
    def test_detection_and_recovery_promises(self):
        result = run_drift(
            launches=42,
            start=18,
            scenarios=(
                SkewScenario("zero-skew"),
                SkewScenario("gpu-optimist", gpu_scale=1 / 6, start=18),
            ),
        )
        control = result.get("zero-skew")
        assert control.bit_identical is True
        assert control.detection_launch is None

        skewed = result.get("gpu-optimist")
        assert skewed.bit_identical is None
        assert skewed.detection_latency is not None
        assert skewed.detection_latency <= 8
        assert skewed.skewed_accuracy < skewed.baseline_accuracy
        assert skewed.recovery_gap <= 0.05
        assert not result.failures

    def test_skew_inside_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            run_drift(launches=42, start=6)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            SkewScenario("bad", gpu_scale=0.0)
        with pytest.raises(ValueError):
            SkewScenario("bad", start=10, stop=10)
