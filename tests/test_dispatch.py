"""Tests for the dispatch mechanisms (repro.runtime.dispatch).

Pins the three invariants docs/ROBUSTNESS.md promises for the runtime's
optional mechanisms:

* **bit-identity off** — attaching a budget-less hedge policy whose
  cases never reach ``HEDGE_MIN_SAMPLES`` observations leaves the
  runtime's record streams, with one accelerator or two, byte-identical
  to plain ones, including under fault injection, drift sentinels, and
  full replay chaos;
* **budgets never refund** — property-fuzzed: ``remaining()`` is never
  negative, charges are monotone, refunds and nonfinite charges raise;
* **hedges are deterministic** — seeded chaos replays produce the exact
  same hedge triggers, winners, and completion times twice over.
"""

import json
import math
import random

import pytest

from repro.drift import DriftSentinel, Watchdog
from repro.faults.resilient import FALLBACK_BUDGET
from repro.machines import (
    NVLINK2,
    PCIE3_X16,
    PLATFORM_P9_V100,
    POWER9,
    TESLA_K80,
    TESLA_V100,
    AcceleratorSlot,
    Platform,
)
from repro.polybench import benchmark_by_name
from repro.replay import (
    AdmissionConfig,
    ChaosSchedule,
    ChaosWindow,
    MemoizedPolicy,
    ReplayConfig,
    ReplayEngine,
    WorkloadConfig,
    generate_requests,
    score_run,
)
from repro.runtime import (
    Budget,
    HedgePolicy,
    ModelGuided,
    OffloadingRuntime,
    scenario_by_name,
)
from repro.runtime import dispatch
from repro.runtime.dispatch import hedge_resolve

from .kernels import build_gemm, build_vecadd

ENV = {"ni": 512, "nj": 512, "nk": 512}
ENV_BIG = {"ni": 9600, "nj": 9600, "nk": 9600}  # the model picks gpu here

DUAL = Platform(
    "P9 + V100/NVLink + K80/PCIe",
    POWER9,
    (
        AcceleratorSlot(TESLA_V100, NVLINK2),
        AcceleratorSlot(TESLA_K80, PCIE3_X16),
    ),
)


class TestBudget:
    def test_charge_and_remaining(self):
        b = Budget(1.0)
        assert b.charge(0.25) == pytest.approx(0.75)
        assert b.remaining() == pytest.approx(0.75)
        assert not b.exhausted
        b.charge(0.75)
        assert b.exhausted

    def test_remaining_never_negative_under_fuzzed_charges(self):
        # property: whatever gets charged, the floor is clamped while
        # spent_s stays the honest (monotone) total
        rng = random.Random(20260808)
        for _ in range(200):
            b = Budget(rng.uniform(1e-6, 10.0))
            spent = 0.0
            for _ in range(rng.randrange(1, 30)):
                charge = rng.uniform(0.0, 1.0)
                b.charge(charge)
                spent += charge
                assert b.remaining() >= 0.0
                assert b.spent_s == pytest.approx(spent)
                assert b.exhausted == (b.spent_s >= b.total_s)

    @pytest.mark.parametrize("total", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_total_rejected(self, total):
        with pytest.raises(ValueError):
            Budget(total)

    @pytest.mark.parametrize("charge", [-1e-9, math.nan, math.inf])
    def test_refunds_and_nonfinite_charges_raise(self, charge):
        b = Budget(1.0)
        with pytest.raises(ValueError):
            b.charge(charge)
        assert b.spent_s == 0.0


class TestHedgeResolve:
    def _resolve(self, **kwargs):
        return hedge_resolve(("slow", 1.0), **kwargs)

    def test_no_plan_is_noop(self):
        assert (
            hedge_resolve(
                None,
                primary_ok=True,
                primary_seconds=1.0,
                backup_seconds=1.0,
                overhead_seconds=0.0,
            )
            is None
        )

    def test_fast_primary_never_starts_the_backup(self):
        out = self._resolve(
            primary_ok=True,
            primary_seconds=0.5,
            backup_seconds=9.0,
            overhead_seconds=0.2,
        )
        assert out is None  # finished at 0.7 < delay 1.0

    def test_backup_wins_and_charges_its_full_runtime(self):
        out = self._resolve(
            primary_ok=True,
            primary_seconds=4.0,
            backup_seconds=2.0,
            overhead_seconds=0.0,
        )
        assert out.winner == "backup"
        assert out.completion_s == pytest.approx(3.0)  # delay 1 + backup 2
        assert out.extra_work_s == pytest.approx(2.0)

    def test_primary_wins_and_charges_the_backup_burn(self):
        out = self._resolve(
            primary_ok=True,
            primary_seconds=1.5,
            backup_seconds=9.0,
            overhead_seconds=0.0,
        )
        assert out.winner == "primary"
        assert out.completion_s == pytest.approx(1.5)
        assert out.extra_work_s == pytest.approx(0.5)  # burned from delay

    def test_tie_goes_to_the_primary(self):
        out = self._resolve(
            primary_ok=True,
            primary_seconds=2.0,
            backup_seconds=1.0,
            overhead_seconds=0.0,
        )
        # both finish at 2.0: deterministic primary win
        assert out.winner == "primary"
        assert out.extra_work_s == pytest.approx(1.0)

    def test_failed_primary_backup_duplicates_nothing(self):
        out = self._resolve(
            primary_ok=False,
            primary_seconds=0.0,
            backup_seconds=2.0,
            overhead_seconds=1.5,  # retries burned past the delay
        )
        assert out.winner == "backup"
        assert out.completion_s == pytest.approx(3.0)
        assert out.extra_work_s == 0.0  # the fallback would run it anyway

    def test_failed_primary_before_delay_is_serial_fallback(self):
        out = self._resolve(
            primary_ok=False,
            primary_seconds=0.0,
            backup_seconds=2.0,
            overhead_seconds=0.5,  # died before the backup would start
        )
        assert out is None


class TestHedgePolicy:
    def test_trigger_priorities(self):
        p = HedgePolicy()
        args = dict(budget=None, predicted_gpu_s=None)
        assert p.trigger(drift_flagged=True, half_open=True, **args) == "drift"
        assert (
            p.trigger(drift_flagged=False, half_open=True, **args) == "half-open"
        )
        assert p.trigger(drift_flagged=False, half_open=False, **args) == "slow"

    def test_low_budget_trigger(self):
        p = HedgePolicy()
        poor = Budget(1.0)
        poor.charge(0.9)  # 0.1 left < 2 x 0.08 predicted
        assert (
            p.trigger(
                drift_flagged=False,
                half_open=False,
                budget=poor,
                predicted_gpu_s=0.08,
            )
            == "low-budget"
        )
        assert (
            p.trigger(
                drift_flagged=False,
                half_open=False,
                budget=Budget(1.0),
                predicted_gpu_s=0.08,
            )
            == "slow"
        )

    def test_delay_requires_min_samples(self):
        p = HedgePolicy()
        assert p.delay("v100", "gemm@n=1") is None
        for s in range(1, 8):
            p.observe("v100", "gemm@n=1", float(s))
        assert p.delay("v100", "gemm@n=1") is None  # seven are too few
        p.observe("v100", "gemm@n=1", 8.0)
        assert p.delay("v100", "gemm@n=1") == 8.0  # the p95 of 1..8
        assert p.delay("v100", "gemm@n=2") is None  # never pooled


def _launch_pairs(plain, guarded, n=8):
    for rt in (plain, guarded):
        rt.compile_region(build_gemm())
        rt.compile_region(build_vecadd())
    out = []
    for i in range(n):
        name, env = (
            ("gemm", ENV) if i % 2 == 0 else ("vecadd", {"n": 1 << 20})
        )
        out.append((plain.launch(name, env), guarded.launch(name, env)))
    return out


class TestBitIdentityOff:
    """Features attached-but-idle must not perturb a single record byte."""

    def test_framework_records_identical_with_idle_features(self):
        plain = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        guarded = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        # each case launches 4 times, under HEDGE_MIN_SAMPLES: no delay
        # is ever ready, so no hedge arms
        guarded.hedge = HedgePolicy()
        for a, b in _launch_pairs(plain, guarded):
            assert a == b
            assert b.hedge is None and b.fallback is None

    def test_framework_identity_survives_faults_and_drift(self):
        kwargs = dict(
            policy=ModelGuided(),
            sentinel=DriftSentinel(),
            watchdog=Watchdog(),
        )
        plain = OffloadingRuntime(
            PLATFORM_P9_V100,
            injector=scenario_by_name("flaky-transfer"),
            **kwargs,
        )
        guarded = OffloadingRuntime(
            PLATFORM_P9_V100,
            injector=scenario_by_name("flaky-transfer"),
            **kwargs,
        )
        guarded.hedge = HedgePolicy()
        for a, b in _launch_pairs(plain, guarded):
            assert a == b

    def test_multi_records_identical_with_idle_features(self):
        plain = OffloadingRuntime(DUAL)
        guarded = OffloadingRuntime(DUAL)
        guarded.hedge = HedgePolicy()
        for a, b in _launch_pairs(plain, guarded):
            assert a == b
            assert b.hedge is None

    def test_replay_chaos_identical_with_undersampled_hedge(self, monkeypatch):
        # a hedge policy that can never reach its minimum sample count
        # arms nothing: the whole chaotic run serializes to the same
        # bytes as plain
        monkeypatch.setattr(dispatch, "HEDGE_MIN_SAMPLES", 10**9)
        workload = WorkloadConfig(launches=300, seed=0)
        requests = generate_requests(workload)
        window = ChaosWindow(
            name="fault-storm",
            kind="fault-storm",
            start_s=requests[90].arrival_s,
            stop_s=requests[210].arrival_s,
            probability=0.75,
        )
        chaos = ChaosSchedule(windows=(window,), seed=0)

        def run(hedge: bool):
            cfg = ReplayConfig(
                platform=PLATFORM_P9_V100,
                workload=workload,
                chaos=chaos,
                hedge=hedge,
            )
            return ReplayEngine(cfg, policy=MemoizedPolicy()).run(requests=requests)

        a, b = run(False), run(True)
        assert all(r.hedge is None for r in b.records)
        assert json.dumps(score_run(a).to_payload(), sort_keys=True) == (
            json.dumps(score_run(b).to_payload(), sort_keys=True)
        )
        assert [
            (o.index, o.outcome, o.start_s) for o in a.outcomes
        ] == [(o.index, o.outcome, o.start_s) for o in b.outcomes]


class TestBudgetedDispatch:
    def test_backoff_poorer_than_budget_falls_back_typed(self):
        rt = OffloadingRuntime(
            PLATFORM_P9_V100,
            policy=ModelGuided(),
            injector=scenario_by_name("dead-gpu"),
        )
        rt.compile_region(build_gemm())
        # default backoff sleeps 1ms after the first failure: a 0.5ms
        # budget cannot afford it, so the dispatch gives up typed
        rec = rt.launch("gemm", ENV_BIG, budget=Budget(5e-4))
        assert rec.target == "cpu" and rec.requested_target == "gpu"
        assert rec.fallback == FALLBACK_BUDGET
        assert "BudgetExhausted" in [e.error_type for e in rec.fault_events]
        assert rt.health[0].fault_counts.get("BudgetExhausted", 0) >= 1

    def test_budget_tightens_the_watchdog_deadline(self):
        spec = benchmark_by_name("atax")
        rt = OffloadingRuntime(
            PLATFORM_P9_V100,
            watchdog=Watchdog(),
        )
        for region in spec.build():
            rt.compile_region(region)
        budget = Budget(1e-9)  # poorer than any watchdog deadline
        rec = rt.launch("atax_k2", spec.env("test"), budget=budget)
        assert rec.fallback == FALLBACK_BUDGET
        assert [e.error_type for e in rec.fault_events] == ["BudgetExhausted"]
        # the kill burned exactly the remaining budget, then charged it
        assert rec.overhead_seconds == pytest.approx(1e-9)
        assert budget.exhausted

    def test_generous_budget_is_bit_identical(self):
        plain = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        budgeted = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        for rt in (plain, budgeted):
            rt.compile_region(build_gemm())
        for _ in range(4):
            a = plain.launch("gemm", ENV)
            b = budgeted.launch("gemm", ENV, budget=Budget(1e6))
            assert a == b


class TestHedgedReplayDeterminism:
    def _hedged_run(self):
        workload = WorkloadConfig(launches=900, seed=0)
        requests = generate_requests(workload)
        window = ChaosWindow(
            name="fault-storm",
            kind="fault-storm",
            start_s=requests[300].arrival_s,
            stop_s=requests[600].arrival_s,
            probability=0.75,
        )
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=workload,
            chaos=ChaosSchedule(windows=(window,), seed=0),
            hedge=True,
        )
        return ReplayEngine(cfg, policy=MemoizedPolicy()).run(
            requests=requests
        )

    def test_seeded_hedge_races_are_deterministic(self):
        def trace(run):
            return [
                (
                    r.region_name,
                    r.hedge.trigger,
                    r.hedge.winner,
                    r.hedge.delay_s,
                    r.hedge.completion_s,
                    r.hedge.extra_work_s,
                )
                for r in run.records
                if r.hedge is not None
            ]

        a, b = trace(self._hedged_run()), trace(self._hedged_run())
        assert a  # the storm must actually arm some hedges
        assert a == b
        assert json.dumps(
            score_run(self._hedged_run()).to_payload(), sort_keys=True
        ) == json.dumps(
            score_run(self._hedged_run()).to_payload(), sort_keys=True
        )

    def test_hedge_provenance_is_consistent(self):
        run = self._hedged_run()
        for r in run.records:
            h = r.hedge
            if h is None:
                continue
            assert h.winner in ("primary", "backup")
            assert h.delay_s >= 0.0 and h.extra_work_s >= 0.0
            assert math.isfinite(h.completion_s) and h.completion_s > 0.0
            assert r.executed_seconds == pytest.approx(h.completion_s)


class TestMultiReplayPin:
    """The multi-accelerator decision stream, pinned under every mechanism.

    A 1500-launch dual-accelerator replay with a fault storm, a 6x GPU
    hardware drift, hedging, budgets and degrading admission.
    The digest covers the score, the metrics and a per-record projection
    of the device names, the candidates, drift flags and hedge races.
    """

    def _run(self):
        workload = WorkloadConfig(launches=1500, seed=0)
        requests = generate_requests(workload)
        windows = (
            ChaosWindow(
                name="storm",
                kind="fault-storm",
                start_s=requests[300].arrival_s,
                stop_s=requests[600].arrival_s,
                probability=0.75,
            ),
            ChaosWindow(
                name="drift",
                kind="hw-drift",
                start_s=requests[800].arrival_s,
                stop_s=requests[1100].arrival_s,
                gpu_scale=6.0,
            ),
        )
        cfg = ReplayConfig(
            platform=DUAL,
            workload=workload,
            chaos=ChaosSchedule(windows=windows, seed=0),
            admission=AdmissionConfig(capacity=8, policy="degrade"),
            budget_s=0.05,
            hedge=True,
        )
        return ReplayEngine(cfg, policy=MemoizedPolicy()).run(requests=requests)

    @staticmethod
    def _project(r):
        h = r.hedge
        return [
            r.requested_target,
            r.device,
            r.fallback,
            r.attempts,
            [[e.device_name, e.error_type] for e in r.fault_events],
            r.overhead_seconds,
            r.executed_seconds,
            [
                [o.device_name, o.kind, o.predicted_seconds, o.measured_seconds]
                for o in r.candidates
            ],
            [] if r.drift is None else [list(pair) for pair in r.drift.flags],
            None
            if h is None
            else [h.trigger, h.winner, h.delay_s, h.completion_s, h.extra_work_s],
        ]

    def test_dual_replay_decisions_pinned(self, grid_pin):
        run = self._run()
        counts = run.outcome_counts()
        assert counts["degraded"] and counts["expired"] and counts["ok"]
        text = json.dumps(
            [
                score_run(run).to_payload(),
                run.metrics.snapshot(),
                [self._project(r) for r in run.records],
            ],
            sort_keys=True,
        )
        grid_pin("multi-replay", text)
