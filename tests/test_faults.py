"""Tests for the fault-tolerance subsystem (repro.faults).

Covers injector determinism under a fixed seed, retry-then-fallback
sequencing, circuit-breaker open/half-open/close transitions, the health
penalty feedback into selection, and that fault-free runs are
bit-identical to the plain runtime.
"""

from types import SimpleNamespace

import dataclasses
import json
import math
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import run_faults
from repro.faults import health as health_module
from repro.faults import (
    BreakerState,
    CircuitBreaker,
    DeadDevice,
    DeviceMemoryError,
    FaultInjector,
    FootprintOOM,
    LaunchContext,
    MAX_ATTEMPTS,
    ProbabilisticFault,
    ScheduledFault,
    TransferError,
    TransientDeviceError,
    backoff_delay,
    region_footprint_bytes,
    scenario_by_name,
)
from repro.machines import (
    NVLINK2,
    PCIE3_X16,
    POWER9,
    AcceleratorSlot,
    Platform,
    PLATFORM_P9_V100,
    TESLA_K80,
    TESLA_V100,
)
from repro.runtime import (
    AlwaysGPU,
    LaunchRecord,
    ModelGuided,
    OffloadingRuntime,
)

from .kernels import build_gemm, build_vecadd

ENV = {"ni": 512, "nj": 512, "nk": 512}
#: benchmark-dataset GEMM — big enough that the model offloads it
ENV_BIG = {"ni": 9600, "nj": 9600, "nk": 9600}
#: a GEMM the model offloads by a narrow margin (V100 predicted 1.23x
#: faster than the host), so a flaky card's health penalty outweighs it
ENV_NARROW = {"ni": 7000, "nj": 7000, "nk": 7000}


def _ctx(launch: int, attempt: int = 1, footprint: int = 0) -> LaunchContext:
    return LaunchContext(
        device_name="Tesla V100 via NVLink2",
        kind="gpu",
        launch_index=launch,
        attempt=attempt,
        footprint_bytes=footprint,
        memory_bytes=16 << 30,
    )


class TestInjector:
    def test_deterministic_under_fixed_seed(self):
        a = scenario_by_name("flaky-transfer", seed=7)
        b = scenario_by_name("flaky-transfer", seed=7)
        seq_a = [type(a.check(_ctx(i))).__name__ for i in range(64)]
        seq_b = [type(b.check(_ctx(i))).__name__ for i in range(64)]
        assert seq_a == seq_b
        assert "TransferError" in seq_a  # the plan does fire at p=0.25

    def test_reset_replays_the_same_faults(self):
        inj = scenario_by_name("flaky-transfer", seed=3)
        first = [inj.check(_ctx(i)) is not None for i in range(32)]
        inj.reset()
        again = [inj.check(_ctx(i)) is not None for i in range(32)]
        assert first == again

    def test_footprint_trigger_is_deterministic(self):
        inj = FaultInjector([FootprintOOM(limit_bytes=100)])
        assert inj.check(_ctx(0, footprint=99)) is None
        err = inj.check(_ctx(1, footprint=101))
        assert isinstance(err, DeviceMemoryError)
        assert not err.retryable

    def test_scheduled_trigger_targets_launch_and_attempt(self):
        inj = FaultInjector(
            [ScheduledFault(TransferError, launches=(2,), attempts=(1,))]
        )
        assert inj.check(_ctx(0)) is None
        assert isinstance(inj.check(_ctx(2, attempt=1)), TransferError)
        assert inj.check(_ctx(2, attempt=2)) is None

    def test_device_substring_filter(self):
        inj = FaultInjector([DeadDevice(device="K80")])
        assert inj.check(_ctx(0)) is None  # V100 context does not match

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ProbabilisticFault(probability=1.5)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="dead-gpu"):
            scenario_by_name("nope")

    def test_region_footprint_counts_each_array_once(self):
        gemm = build_gemm()
        # A + B + C at 512x512 f32: inout C counted once, not twice
        assert region_footprint_bytes(gemm, ENV) == 3 * 512 * 512 * 4


class TestStreamIsolation:
    """Per-(stream label, device) RNG substreams survive plan composition."""

    def test_flaky_transfer_golden_fault_pattern(self):
        # pinned draw sequence: any change to the stream derivation
        # scheme invalidates every golden fault sequence in the repo
        inj = scenario_by_name("flaky-transfer", seed=7)
        pattern = "".join(
            "X" if inj.check(_ctx(i)) else "." for i in range(24)
        )
        assert pattern == ".X...X.........X...X...X"

    def test_adding_a_labelled_trigger_preserves_existing_draws(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class NeverFires(ProbabilisticFault):
            # draws from its own substream on every check, never fires
            stream_label: str = "never-fires"

        base = FaultInjector(
            [ProbabilisticFault(TransferError, probability=0.25)], seed=7
        )
        extended = FaultInjector(
            [
                NeverFires(TransferError, probability=0.0),
                ProbabilisticFault(TransferError, probability=0.25),
            ],
            seed=7,
        )
        seq_a = [base.check(_ctx(i)) is not None for i in range(64)]
        seq_b = [extended.check(_ctx(i)) is not None for i in range(64)]
        assert seq_a == seq_b

    def test_streams_isolated_per_device(self):
        def k80_ctx(i):
            return LaunchContext(
                device_name="Tesla K80 via PCIe3",
                kind="gpu",
                launch_index=i,
                attempt=1,
                footprint_bytes=0,
                memory_bytes=12 << 30,
            )

        solo = scenario_by_name("flaky-transfer", seed=7)
        solo_seq = [solo.check(_ctx(i)) is not None for i in range(32)]
        mixed = scenario_by_name("flaky-transfer", seed=7)
        mixed_seq = []
        for i in range(32):
            mixed.check(k80_ctx(i))  # interleaved draws on another device
            mixed_seq.append(mixed.check(_ctx(i)) is not None)
        assert solo_seq == mixed_seq


class TestCircuitBreaker:
    def test_open_half_open_close_transitions(self):
        br = CircuitBreaker()
        assert br.allows()
        for _ in range(2):
            br.record_failure()
            assert br.state is BreakerState.CLOSED
        br.record_failure()  # the third consecutive failure opens it
        assert br.state is BreakerState.OPEN and not br.allows()
        for _ in range(5):  # five cooldown launches
            assert br.state is not BreakerState.HALF_OPEN
            br.on_launch()
        assert br.state is BreakerState.HALF_OPEN and br.allows()
        br.record_success()  # probe succeeded
        assert br.state is BreakerState.CLOSED
        assert br.transitions == ["open", "half-open", "closed"]

    def test_half_open_probe_failure_reopens(self):
        br = CircuitBreaker()
        for _ in range(3):
            br.record_failure()
        for _ in range(5):
            br.on_launch()
        assert br.state is BreakerState.HALF_OPEN
        br.record_failure()  # one failed probe is enough
        assert br.state is BreakerState.OPEN

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker()
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        calls=st.lists(
            st.sampled_from(("on_launch", "record_success", "record_failure")),
            max_size=60,
        ),
    )
    def test_open_count_matches_the_transition_log(self, calls):
        br = CircuitBreaker()
        for call in calls:
            getattr(br, call)()
            assert br.opens == br.transitions.count("open")


def _runtime(policy, injector, **kw):
    rt = OffloadingRuntime(
        PLATFORM_P9_V100, policy=policy, injector=injector, **kw
    )
    rt.compile_region(build_gemm())
    return rt


class TestResilientDispatch:
    def test_retry_then_success_sequencing(self):
        inj = FaultInjector(
            [ScheduledFault(TransientDeviceError, launches=(0,), attempts=(1,))]
        )
        rt = _runtime(AlwaysGPU(), inj)
        rec = rt.launch("gemm", ENV)
        assert rec.target == "gpu" and rec.requested_target == "gpu"
        assert rec.attempts == 2 and len(rec.fault_events) == 1
        assert rec.fallback is None
        assert rec.overhead_seconds == pytest.approx(backoff_delay(1))
        assert rec.executed_seconds == pytest.approx(
            rec.gpu_seconds + rec.overhead_seconds
        )
        assert rt.clock.now == pytest.approx(backoff_delay(1))

    def test_retries_exhausted_falls_back_to_host(self, monkeypatch):
        # MAX_ATTEMPTS failures reach the breaker's threshold, whose check
        # comes first; raise it to keep the breaker out of it
        monkeypatch.setattr(health_module, "FAILURE_THRESHOLD", 10)
        inj = FaultInjector([ScheduledFault(TransferError, launches=(0,))])
        rt = _runtime(AlwaysGPU(), inj)
        rec = rt.launch("gemm", ENV)
        assert rec.target == "cpu" and rec.requested_target == "gpu"
        assert rec.fallback == "retries-exhausted"
        assert rec.attempts == MAX_ATTEMPTS
        assert len(rec.fault_events) == MAX_ATTEMPTS
        assert rec.executed_seconds == pytest.approx(
            rec.cpu_seconds
            + sum(backoff_delay(k) for k in range(1, MAX_ATTEMPTS))
        )
        # a later untouched launch offloads normally again
        clean = rt.launch("gemm", ENV)
        assert clean.target == "gpu" and clean.attempts == 1

    def test_oom_is_not_retried(self):
        inj = FaultInjector([FootprintOOM(limit_bytes=1)])
        rt = _runtime(AlwaysGPU(), inj)
        rec = rt.launch("gemm", ENV)
        assert rec.target == "cpu"
        assert rec.fallback == "non-retryable-fault"
        assert rec.attempts == 1 and rec.overhead_seconds == 0.0
        assert rec.fault_events[0].error_type == "DeviceMemoryError"

    def test_dead_gpu_breaker_stops_routing_within_n_plus_one(self):
        rt = _runtime(AlwaysGPU(), scenario_by_name("dead-gpu"))
        threshold = health_module.FAILURE_THRESHOLD
        records = [rt.launch("gemm", ENV) for _ in range(10)]
        # every launch completes on the host, no unhandled exceptions
        assert all(r.target == "cpu" for r in records)
        # the first launch fails every attempt; its last failure opens the
        # breaker, which is checked before the attempt count
        assert records[0].attempts == MAX_ATTEMPTS
        assert records[0].fallback == "breaker-open"
        # the breaker trips within N+1 launches, after which the dead
        # device is skipped without any dispatch attempts
        tripped = next(i for i, r in enumerate(records) if r.attempts == 0)
        assert tripped <= threshold
        assert records[tripped].fallback == "breaker-open"
        # a half-open probe re-tests the device once after the cooldown...
        probe_at = next(
            i for i in range(tripped, len(records)) if records[i].attempts
        )
        assert tripped < probe_at <= tripped + health_module.COOLDOWN_LAUNCHES
        probe = records[probe_at]
        assert probe.attempts == 1 and probe.target == "cpu"
        # ...fails, and the breaker re-opens immediately
        assert rt.health[0].breaker.state is not BreakerState.CLOSED
        assert records[probe_at + 1].attempts == 0

    def test_health_penalty_reroutes_model_guided(self):
        rt = _runtime(ModelGuided(), FaultInjector((), seed=0))
        baseline = rt.launch("gemm", ENV_NARROW)
        assert baseline.target == "gpu"  # the narrow-margin gemm offloads
        rt.health[0].failure_ewma = 0.5  # pretend the card has been flaky
        assert rt.health[0].penalty() == 3.0
        rec = rt.launch("gemm", ENV_NARROW)
        assert rec.target == "cpu" and rec.requested_target == "gpu"
        assert rec.fallback == "health-penalty"
        assert rec.attempts == 0  # never dispatched to the accelerator

    def test_flaky_runs_are_seed_deterministic(self):
        def trace(seed):
            rt = _runtime(AlwaysGPU(), scenario_by_name("flaky-transfer", seed=seed))
            return [
                (r.target, r.attempts, r.fallback, len(r.fault_events))
                for r in (rt.launch("gemm", ENV) for _ in range(12))
            ]

        assert trace(11) == trace(11)


class TestFaultFreeIdentity:
    def test_records_bit_identical_to_plain_runtime(self):
        plain = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        guarded = OffloadingRuntime(
            PLATFORM_P9_V100,
            policy=ModelGuided(),
            injector=scenario_by_name("fault-free"),
        )
        for rt in (plain, guarded):
            rt.compile_region(build_gemm())
            rt.compile_region(build_vecadd())
        for name, env in (("gemm", ENV), ("vecadd", {"n": 1 << 20})):
            a = plain.launch(name, env)
            b = guarded.launch(name, env)
            assert a.cpu_seconds == b.cpu_seconds
            assert a.gpu_seconds == b.gpu_seconds
            assert a.target == b.target
            assert a.executed_seconds == b.executed_seconds
            assert b.fault_events == () and b.fallback is None
            assert b.overhead_seconds == 0.0


class TestRecordGuards:
    def _rec(self, cpu, gpu, prediction=None):
        return LaunchRecord(
            region_name="r",
            target="cpu",
            policy_name="always-cpu",
            prediction=prediction,
            cpu_seconds=cpu,
            gpu_seconds=gpu,
            executed_seconds=cpu,
        )

    def test_true_speedup_guards_zero_and_nonfinite(self):
        assert math.isnan(self._rec(1.0, 0.0).true_speedup)
        assert math.isnan(self._rec(1.0, float("inf")).true_speedup)
        assert math.isnan(self._rec(float("nan"), 1.0).true_speedup)
        assert self._rec(2.0, 1.0).true_speedup == pytest.approx(2.0)

    def test_predicted_speedup_guards_zero_and_nonfinite(self):
        fake = SimpleNamespace(
            cpu=SimpleNamespace(seconds=1.0), gpu=SimpleNamespace(seconds=0.0)
        )
        assert math.isnan(self._rec(1.0, 1.0, fake).predicted_speedup)
        assert self._rec(1.0, 1.0).predicted_speedup is None


DUAL = Platform(
    "P9 + V100/NVLink + K80/PCIe",
    POWER9,
    (
        AcceleratorSlot(TESLA_V100, NVLINK2),
        AcceleratorSlot(TESLA_K80, PCIE3_X16),
    ),
)


class TestMultiDeviceResilience:
    def _multi(self, injector=None):
        rt = OffloadingRuntime(DUAL, injector=injector)
        rt.compile_region(build_gemm())
        return rt

    def test_fault_free_identical_to_plain(self):
        plain = self._multi()
        guarded = self._multi(scenario_by_name("fault-free"))
        a = plain.launch("gemm", ENV)
        b = guarded.launch("gemm", ENV)
        assert a.requested_target == b.requested_target
        assert a.executed_seconds == b.executed_seconds
        assert b.device == b.requested_target and b.fallback is None

    def test_dead_primary_fails_over_to_next_device(self):
        rt = self._multi(
            FaultInjector([DeadDevice(device="V100")], seed=0)
        )
        records = [rt.launch("gemm", ENV_BIG) for _ in range(8)]
        v100 = next(h for h in rt.health if "V100" in h.device_name)
        # every launch completes off the dead card
        assert all("V100" not in r.device for r in records)
        # the first failover carries provenance
        assert records[0].fell_back and records[0].fault_events
        # once the breaker opens, selection itself avoids the dead device
        assert v100.breaker.state is not BreakerState.CLOSED
        assert any("V100" not in r.requested_target for r in records)

    def test_penalized_first_card_loses_to_the_host(self):
        rt = self._multi()
        baseline = rt.launch("gemm", ENV_NARROW)
        assert "V100" in baseline.requested_target  # the fast card wins when healthy
        for health in rt.health:  # pretend both cards have been flaky
            health.failure_ewma = 0.5
        rec = rt.launch("gemm", ENV_NARROW)
        # the first-ranked card is still requested; the health gate moves
        # the launch down the chain past both cards to the host
        assert rec.requested_target == baseline.requested_target
        assert rec.device == rt._host.name and rec.target == "cpu"
        assert rec.fallback == "health-penalty"
        assert rec.attempts == 0  # never dispatched to an accelerator

    def test_all_accelerators_dead_lands_on_host(self):
        rt = self._multi(FaultInjector([DeadDevice()], seed=0))
        rec = rt.launch("gemm", ENV_BIG)
        assert rec.device == rt._host.name
        assert rec.fell_back


class TestRetryPolicyProperties:
    """The backoff arithmetic every retry loop uses."""

    def test_defaults_reproduce_historical_delays(self):
        assert backoff_delay(1) == 1e-3
        assert backoff_delay(2) == 2e-3
        assert backoff_delay(1) + backoff_delay(2) == 3e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            backoff_delay(0)


class TestHealthDecay:
    """Simulated-time decay of the DeviceHealth penalty."""

    def _err(self):
        return TransientDeviceError(
            "boom", device_name="gpu0", launch_index=0, attempt=1
        )

    def test_no_clock_keeps_historical_behaviour(self):
        from repro.faults import DeviceHealth

        health = DeviceHealth("gpu0")
        health.record_failure(self._err())
        before = health.failure_ewma
        assert health.penalty() == 1.0 + 4.0 * before
        assert health.failure_ewma == before  # penalty() must not decay

    def test_halflife_halves_failure_weight(self):
        from repro.faults import DeviceHealth, SimulatedClock

        clock = SimulatedClock()
        health = DeviceHealth(
            "gpu0", clock=clock, decay_halflife_s=10.0
        )
        health.record_failure(self._err())
        ewma = health.failure_ewma
        clock.advance(10.0)  # exactly one half-life
        assert health.penalty() == pytest.approx(1.0 + 4.0 * ewma / 2)
        clock.advance(20.0)  # two more half-lives
        assert health.penalty() == pytest.approx(1.0 + 4.0 * ewma / 8)

    def test_backwards_clock_raises(self):
        from repro.faults import DeviceHealth, SimulatedClock

        clock = SimulatedClock(start=5.0)
        health = DeviceHealth("gpu0", clock=clock, decay_halflife_s=1.0)
        health.record_failure(self._err())
        clock.now = 1.0  # simulated clock tampered with
        with pytest.raises(ValueError, match="monotonic"):
            health.penalty()

    def test_long_gap_decays_penalty_to_unity(self):
        from repro.faults import DeviceHealth, SimulatedClock

        clock = SimulatedClock()
        health = DeviceHealth("gpu0", clock=clock, decay_halflife_s=5.0)
        for _ in range(3):
            health.record_failure(self._err())
        assert health.penalty() > 2.0
        clock.advance(5.0 * 60)  # sixty half-lives of healthy silence
        assert health.penalty() == pytest.approx(1.0, abs=1e-12)
        # and the health machinery keeps working after the gap
        health.record_success()
        assert health.penalty() == pytest.approx(1.0, abs=1e-12)
        assert health.successes == 1 and health.failures == 3

    def test_invalid_halflife_rejected(self):
        from repro.faults import DeviceHealth

        with pytest.raises(ValueError):
            DeviceHealth("gpu0", decay_halflife_s=0.0)

    def test_clock_rejects_negative_advance(self):
        from repro.faults import SimulatedClock

        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)


class TestFaultGridPin:
    def test_default_grid_rows_pinned(self, grid_pin):
        # every fault scenario x policy cell through OffloadingRuntime
        rows = run_faults().rows
        assert len(rows) == 16
        text = json.dumps([dataclasses.asdict(row) for row in rows], sort_keys=True)
        grid_pin("faults-default", text)
