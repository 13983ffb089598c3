"""Tests for the traffic-replay subsystem (repro.replay).

Covers workload-generator determinism and stream isolation, bounded
admission on the default serial lane, the zero-chaos differential (a
replay is bit-identical to an equivalent sequential sweep), chaos window
detection/recovery, overload policies, memoization transparency, and the
experiment-level scenario grid.
"""

import collections
import dataclasses
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.drift import DriftSentinel, SelfHealingSelector, Watchdog
from repro.faults.resilient import DispatchResult
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
from repro.obs.tracer import _NullSpan
from repro.replay import (
    ADMISSION_POLICIES,
    AdmissionConfig,
    ChaosSchedule,
    ChaosWindow,
    LaunchRequest,
    MemoizedPolicy,
    ReplayConfig,
    ReplayEngine,
    ReplayScore,
    WorkloadConfig,
    generate_requests,
    score_run,
)
from repro.replay.workload import CaseSpec, build_catalog
from repro.runtime import ExecutionMemo, ModelGuided, OffloadingRuntime
from repro.runtime.dispatch import case_key
from repro.util import derive_seed, emit_json


@pytest.fixture(scope="module")
def shared():
    """One memo + policy cache shared by every engine in this module."""
    return {"memo": ExecutionMemo(), "policy": MemoizedPolicy()}


def _engine(cfg: ReplayConfig, shared) -> ReplayEngine:
    return ReplayEngine(cfg, policy=shared["policy"], memo=shared["memo"])


class TestWorkload:
    def test_same_config_same_trace(self):
        cfg = WorkloadConfig(launches=200, seed=42)
        assert generate_requests(cfg) == generate_requests(cfg)

    def test_seed_changes_the_trace(self):
        a = generate_requests(WorkloadConfig(launches=200, seed=1))
        b = generate_requests(WorkloadConfig(launches=200, seed=2))
        assert a != b

    def test_streams_are_isolated_from_the_size_envelope(self):
        # changing the size draw must not reshuffle which kernels are hit
        # or when they arrive: those purposes draw from their own streams
        a = generate_requests(WorkloadConfig(launches=300, seed=3))
        b = generate_requests(
            WorkloadConfig(
                launches=300, seed=3, sizes=(256, 512), size_weights=(0.7, 0.3)
            )
        )
        assert [r.case.region_name for r in a] == [r.case.region_name for r in b]
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert [r.burst for r in a] == [r.burst for r in b]

    def test_golden_derived_seeds(self):
        # pinned SHA-256-derived stream seeds: any change to the stream
        # identity scheme reshuffles every existing seeded trace
        assert derive_seed(0, "workload", "popularity") == 13411657674127139983
        assert derive_seed(0, "workload", "arrival") == 7069965970226900748

    def test_golden_trace_prefix(self):
        # first five requests of the seed-0 default trace, pinned
        requests = generate_requests(WorkloadConfig(launches=5, seed=0))
        assert [(r.case.region_name, r.case.size) for r in requests] == [
            ("3dconv", 512),
            ("3dconv", 256),
            ("corr_std", 512),
            ("gesummv", 256),
            ("corr_corr", 512),
        ]
        assert requests[0].arrival_s == pytest.approx(0.000760291, rel=1e-6)
        assert requests[4].arrival_s == pytest.approx(0.004783143, rel=1e-6)

    def test_zipf_popularity_is_skewed(self):
        requests = generate_requests(WorkloadConfig(launches=4000, seed=0))
        counts: dict[str, int] = {}
        for r in requests:
            counts[r.case.region_name] = counts.get(r.case.region_name, 0) + 1
        top = max(counts.values())
        assert top > 2 * len(requests) / len(counts)  # far above uniform

    def test_arrivals_strictly_increase(self):
        requests = generate_requests(WorkloadConfig(launches=500, seed=8))
        assert all(
            a.arrival_s < b.arrival_s for a, b in zip(requests, requests[1:])
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(launches=0)
        with pytest.raises(ValueError):
            WorkloadConfig(sizes=(256,), size_weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            WorkloadConfig(mean_interarrival_s=0.0)

    def test_catalog_covers_suite_times_sizes(self):
        cases, regions = build_catalog((256, 512))
        assert len(cases) == 2 * len(regions)
        assert all(c.region_name in regions for c in cases)


def _serial_run(shared, arrivals, **admission):
    """One hand-built single-case trace through the default serial lane."""
    case = build_catalog(WorkloadConfig().sizes)[0][0]
    requests = [
        LaunchRequest(index=i, arrival_s=t, case=case, burst=False)
        for i, t in enumerate(arrivals)
    ]
    cfg = ReplayConfig(
        platform=PLATFORM_P9_V100,
        workload=WorkloadConfig(launches=len(requests)),
        admission=AdmissionConfig(**admission),
    )
    return _engine(cfg, shared).run(requests=requests)


@pytest.fixture(scope="module")
def service_s(shared):
    """Simulated seconds every launch of :func:`_serial_run` occupies."""
    return _serial_run(shared, [0.0]).records[0].executed_seconds


def _outcomes(run) -> list[str]:
    return [o.outcome for o in run.outcomes]


class TestAdmissionQueue:
    """Bounded admission on the serial lane, one hand-built trace each."""

    def test_unbounded_admits_everything(self, shared, service_s):
        run = _serial_run(shared, [i * service_s / 10 for i in range(10)])
        assert _outcomes(run) == ["ok"] * 10
        q = run.queue
        assert q.shed == q.degraded == q.deferred == 0
        assert q.max_depth == 10

    def test_fifo_start_times_and_wait_accounting(self, shared, service_s):
        e = service_s
        run = _serial_run(shared, [0.0, e / 2])
        assert [o.start_s for o in run.outcomes] == [0.0, e]  # busy until E
        assert run.queue.total_wait_s == e / 2
        assert run.queue.max_wait_s == e / 2
        assert run.horizon_s == 2 * e

    def test_depth_drains_finished_service(self, shared, service_s):
        e = service_s
        # r0 runs [0, E) and r1 [E, 2E): at 0.5E both count, at 1.5E
        # only r1 does, at 5E neither
        run = _serial_run(shared, [0.0, 0.0, 0.5 * e, 1.5 * e, 5 * e], capacity=2)
        assert _outcomes(run) == ["ok", "ok", "shed", "ok", "ok"]
        assert run.queue.max_depth == 2

    def test_reject_policy_sheds_at_capacity(self, shared, service_s):
        e = service_s
        run = _serial_run(shared, [0.0, 0.5 * e, 20 * e], capacity=1, policy="reject")
        assert _outcomes(run) == ["ok", "shed", "ok"]  # drained by 20E
        assert run.outcomes[1].record is None
        assert run.queue.shed == 1

    def test_degrade_policy_reroutes_at_capacity(self, shared, service_s):
        e = service_s
        run = _serial_run(shared, [0.0, 0.5 * e], capacity=1, policy="degrade")
        degraded = run.outcomes[1]
        assert degraded.outcome == "degraded"
        assert degraded.start_s == 0.5 * e  # runs at once, on the host
        assert degraded.record.target == "cpu"
        assert degraded.record.admission is not None
        assert run.queue.degraded == 1 and run.queue.shed == 0

    def test_defer_parks_then_resumes_in_order(self, shared, service_s):
        e = service_s
        # r2 and r3 park behind two launches; r4 at 1.5E finds depth 1,
        # the resume depth, so both stay parked; r5 at 30E takes r2 back
        # and the end-of-trace drain takes r3
        run = _serial_run(
            shared, [0.0, 0.0, 0.1 * e, 0.2 * e, 1.5 * e, 30 * e],
            capacity=2, policy="defer",
        )
        assert _outcomes(run) == ["ok", "ok", "resumed", "resumed", "ok", "ok"]
        assert [entry[2] for entry in run.service.dispatch_log] == [0, 1, 4, 2, 5, 3]
        assert run.queue.deferred == 2 and run.queue.resumed == 2

    def test_defer_overflow_sheds(self, shared, service_s):
        e = service_s
        run = _serial_run(
            shared, [0.0, 0.1 * e, 0.2 * e], capacity=1, policy="defer", defer_capacity=1
        )
        assert _outcomes(run) == ["ok", "resumed", "shed"]  # park buffer full
        assert run.queue.deferred == 1 and run.queue.shed == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(capacity=0)
        with pytest.raises(ValueError):
            AdmissionConfig(policy="drop")
        with pytest.raises(ValueError):
            AdmissionConfig(defer_capacity=0)
        assert AdmissionConfig(capacity=8).effective_resume_depth == 4


class TestDifferential:
    def test_zero_chaos_replay_bit_identical_to_sequential_sweep(self, shared):
        """The tentpole invariant: the whole replay apparatus (generator,

        admission bookkeeping, memoization, chaos plumbing at rest) is
        observe-only — every record matches a plain runtime fed the same
        launches at the same simulated times.
        """
        workload = WorkloadConfig(launches=400, seed=11)
        cfg = ReplayConfig(platform=PLATFORM_P9_V100, workload=workload)
        run = _engine(cfg, shared).run()

        runtime = OffloadingRuntime(
            PLATFORM_P9_V100,
            policy=ModelGuided(),
            sentinel=DriftSentinel(),
            watchdog=Watchdog(),
            health_decay_halflife_s=5.0,
        )
        cases, regions = build_catalog(workload.sizes)
        for region in regions.values():
            runtime.compile_region(region)
        baseline = []
        for request in generate_requests(workload, cases):
            if request.arrival_s > runtime.clock.now:
                runtime.clock.advance(request.arrival_s - runtime.clock.now)
            baseline.append(
                runtime.launch(request.case.region_name, request.case.env_dict())
            )

        assert len(baseline) == len(run.records) == 400
        assert baseline == run.records
        assert all(r.drift is None for r in run.records)

    def test_memoized_rerun_is_identical_and_actually_hits(self, shared):
        workload = WorkloadConfig(launches=150, seed=9)
        cfg = ReplayConfig(platform=PLATFORM_P9_V100, workload=workload)
        first = _engine(cfg, shared).run()
        hits_before = shared["policy"].hits
        second = _engine(cfg, shared).run()
        assert shared["policy"].hits > hits_before
        assert first.records == second.records
        # cache hits return the *identical* prediction objects
        assert all(
            a.prediction is b.prediction
            for a, b in zip(first.records, second.records)
        )


@pytest.fixture(scope="module")
def warm_state():
    """A memo, policy cache and compiled database warmed on every case.

    The way the benchmark's replay rounds start: one launch per catalog
    case, so the replays below make no model call and no simulation.
    """
    memo, policy = ExecutionMemo(), MemoizedPolicy()
    warm = ReplayEngine(ReplayConfig(PLATFORM_P9_V100), policy=policy, memo=memo)
    cases, regions = build_catalog(WorkloadConfig().sizes)
    for region in regions.values():
        warm.runtime.compile_region(region)
    for case in cases:
        warm.runtime.launch(case.region_name, case.env_dict())
    return memo, policy, warm.runtime.db, cases


class TestPerLaunchWork:
    """What a memoized launch no longer does, counted per call."""

    LAUNCHES = 2_000

    @pytest.mark.parametrize("service", [False, True], ids=["serial", "lanes"])
    def test_memoized_replay_skips_idle_machinery(self, warm_state, service):
        memo, policy, db, cases = warm_state
        engine = ReplayEngine(
            ReplayConfig(
                PLATFORM_P9_V100,
                workload=WorkloadConfig(launches=self.LAUNCHES, seed=0),
                service=service,
            ),
            policy=policy,
            memo=memo,
            db=db,
        )
        watched = {
            case_key.__code__: "case_key",
            CaseSpec.env_dict.__code__: "env_dict",
            CaseSpec.__hash__.__code__: "CaseSpec hash",
            DispatchResult.__init__.__code__: "DispatchResult",
            _NullSpan.__enter__.__code__: "null span entered",
            SelfHealingSelector.decide.__code__: "decide",
        }
        sentinel_reads = {
            fn.__code__
            for fn in (
                DriftSentinel.stream,
                DriftSentinel.state,
                DriftSentinel.correction,
                DriftSentinel.measured,
                DriftSentinel.instability,
            )
        }
        decide = SelfHealingSelector.decide.__code__
        calls: collections.Counter = collections.Counter()

        def watch(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if code in watched:
                calls[watched[code]] += 1
            elif code in sentinel_reads and frame.f_back.f_code is decide:
                calls["stream read by decide"] += 1

        previous = sys.getprofile()
        sys.setprofile(watch)
        try:
            run = engine.run()
        finally:
            sys.setprofile(previous)
        assert len(run.records) == self.LAUNCHES
        # nothing drifts on this trace: the healer runs once per launch
        # and every call finds no stream flagged
        assert run.runtime.sentinel.flagged == 0
        assert all(r.drift is None for r in run.records)
        assert calls["decide"] == self.LAUNCHES
        assert calls["stream read by decide"] == 0
        # the memo builds a case's key once; this one is warm already
        assert calls["case_key"] <= len(cases)
        # the engine builds a case's env dict once, and the service's
        # per-case caches look cases up by identity, never by value
        assert calls["env_dict"] <= len(cases)
        assert calls["CaseSpec hash"] == 0
        # fault-free dispatches share one result; the tracer is off
        assert calls["DispatchResult"] == 0
        assert calls["null span entered"] == 0

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("gemm", "atax")),
                st.dictionaries(
                    st.sampled_from(("n", "m", "ni")),
                    st.one_of(
                        st.integers(-3, 3),
                        st.integers(-3, 3).map(float),
                        st.sampled_from((-0.0, True, False, 2.5)),
                    ),
                    max_size=3,
                ),
            ),
            max_size=30,
        )
    )
    @example(
        [
            ("gemm", {"n": 512}),
            ("gemm", {"n": 512.0}),
            ("gemm", {"n": 512}),
            ("atax", {"n": 512}),
            ("gemm", {"n": True}),
            ("gemm", {"n": 1}),
            ("gemm", {"n": 0.0}),
            ("gemm", {"n": -0.0}),
            ("gemm", {"n": 0.0}),
            ("gemm", {"m": 4, "n": 512}),
            ("gemm", {"n": 512, "m": 4}),
            ("gemm", {"n": 512, "m": 4.0}),
        ]
    )
    def test_memo_key_equals_case_key(self, launches):
        """Envs whose keys differ (``512`` and ``512.0``) never share one."""
        memo = ExecutionMemo()
        for region, env in launches:
            assert memo.key(region, env) == case_key(region, env)


class TestChaos:
    def _window(self, requests, kind, lo, hi, **kwargs):
        return ChaosWindow(
            name=kind,
            kind=kind,
            start_s=requests[lo].arrival_s,
            stop_s=requests[hi].arrival_s,
            **kwargs,
        )

    def test_schedule_rejects_duplicate_names(self):
        w = ChaosWindow(name="a", kind="fault-storm", start_s=0.0, stop_s=1.0)
        with pytest.raises(ValueError):
            ChaosSchedule(windows=(w, w))

    def test_fault_storm_detected_and_recovered(self, shared):
        workload = WorkloadConfig(launches=600, seed=5)
        requests = generate_requests(workload)
        window = self._window(
            requests, "fault-storm", 240, 360, probability=0.9
        )
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=workload,
            chaos=ChaosSchedule(windows=(window,), seed=5),
        )
        run = _engine(cfg, shared).run(requests=requests)
        score = score_run(
            run, recovery_margin_s=window.stop_s - window.start_s
        )
        w = score.window("fault-storm")
        assert w.detected and w.recovered
        assert 0.0 <= w.ttd_s <= window.stop_s - window.start_s
        assert w.ttr_s >= 0.0
        assert score.fault_events > 0

    def test_chaos_only_fires_inside_its_window(self, shared):
        workload = WorkloadConfig(launches=300, seed=6)
        requests = generate_requests(workload)
        window = self._window(requests, "brownout", 100, 200)
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=workload,
            chaos=ChaosSchedule(windows=(window,), seed=6),
        )
        run = _engine(cfg, shared).run(requests=requests)
        for outcome in run.outcomes:
            record = outcome.record
            if record is None or not record.fault_events:
                continue
            assert window.start_s <= outcome.start_s < window.stop_s

    def test_adding_a_far_window_never_reshuffles_existing_draws(self, shared):
        # stream isolation at the schedule level: composing a window that
        # never activates leaves every existing record bit-identical
        workload = WorkloadConfig(launches=300, seed=13)
        requests = generate_requests(workload)
        storm = self._window(
            requests, "fault-storm", 100, 200, probability=0.5
        )
        far = ChaosWindow(
            name="late-link",
            kind="link-degraded",
            start_s=1e9,
            stop_s=2e9,
            probability=0.5,
        )
        runs = []
        for windows in ((storm,), (storm, far)):
            cfg = ReplayConfig(
                platform=PLATFORM_P9_V100,
                workload=workload,
                chaos=ChaosSchedule(windows=windows, seed=13),
            )
            runs.append(_engine(cfg, shared).run(requests=requests))
        assert runs[0].records == runs[1].records

    def test_hw_drift_detected_by_the_sentinel(self, shared):
        workload = WorkloadConfig(launches=1500, seed=4)
        requests = generate_requests(workload)
        window = self._window(requests, "hw-drift", 600, 900, gpu_scale=6.0)
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=workload,
            chaos=ChaosSchedule(windows=(window,), seed=4),
        )
        run = _engine(cfg, shared).run(requests=requests)
        score = score_run(
            run, recovery_margin_s=window.stop_s - window.start_s
        )
        w = score.window("hw-drift")
        assert w.detected, "sentinel never flagged the dilated device"
        assert w.recovered, "sentinel never re-calibrated after the window"
        assert run.sentinel.transitions  # timestamped on the sim clock


class TestOverload:
    @pytest.mark.parametrize("policy", ADMISSION_POLICIES)
    def test_bounded_depth_and_visible_shedding(self, policy, shared):
        workload = WorkloadConfig(
            launches=400, seed=3, mean_interarrival_s=1e-6
        )
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=workload,
            admission=AdmissionConfig(
                capacity=8, policy=policy, defer_capacity=16
            ),
        )
        run = _engine(cfg, shared).run()
        score = score_run(run)
        assert score.max_queue_depth <= 8
        counts = run.outcome_counts()
        assert sum(counts.values()) == 400  # every request accounted for
        if policy == "reject":
            assert score.shed_fraction > 0.0
            assert score.degraded_fraction == 0.0
        elif policy == "degrade":
            assert score.degraded_fraction > 0.0
            assert score.shed_fraction == 0.0
            degraded = [o for o in run.outcomes if o.outcome == "degraded"]
            assert degraded and all(
                o.record.admission is not None for o in degraded
            )
        else:  # defer
            assert score.deferred > 0 and score.resumed > 0

    def test_outcomes_return_in_request_order(self, shared):
        workload = WorkloadConfig(
            launches=200, seed=3, mean_interarrival_s=1e-6
        )
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=workload,
            admission=AdmissionConfig(capacity=4, policy="defer"),
        )
        run = _engine(cfg, shared).run()
        assert [o.index for o in run.outcomes] == list(range(200))


class TestEngine:
    def test_metrics_and_conservation(self, shared):
        workload = WorkloadConfig(launches=120, seed=21)
        cfg = ReplayConfig(platform=PLATFORM_P9_V100, workload=workload)
        run = _engine(cfg, shared).run()
        snap = run.metrics.snapshot()
        admitted = sum(
            v
            for k, v in snap["counters"].items()
            if k.startswith("replay_requests_total")
        )
        assert admitted == 120
        assert any(
            k.startswith("dispatch_overhead_seconds") for k in snap["quantiles"]
        )
        assert run.horizon_s >= run.requests[-1].arrival_s

    def test_multi_device_replay_smoke(self, shared):
        dual = Platform(
            "P9 + V100/NVLink + K80/PCIe",
            POWER9,
            (
                AcceleratorSlot(TESLA_V100, NVLINK2),
                AcceleratorSlot(TESLA_K80, PCIE3_X16),
            ),
        )
        cfg = ReplayConfig(
            platform=dual,
            workload=WorkloadConfig(launches=120, seed=2),
        )
        run = ReplayEngine(cfg, memo=shared["memo"]).run()
        assert len(run.records) == 120
        score = score_run(run)
        assert score.launches == 120
        assert 0.0 <= score.overall_accuracy <= 1.0


class TestExperiment:
    def test_small_grid_passes_and_serializes(self, shared, grid_pin):
        from repro.experiments import run_replay

        result = run_replay(
            launches=1000,
            scenarios=("steady", "fault-storm", "overload-degrade"),
        )
        assert result.passed
        assert result.get("fault-storm").score.fault_events > 0
        assert result.get("overload-degrade").score.degraded_fraction > 0.0
        payload = result.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert result.render()
        grid_pin("replay-1000", emit_json(payload))

    def test_unknown_scenario_rejected(self):
        from repro.experiments import run_replay

        with pytest.raises(ValueError):
            run_replay(launches=100, scenarios=("steady", "meteor-strike"))
        with pytest.raises(ValueError):
            run_replay(launches=100, scenarios=("fault-storm",))


def _score(**fields) -> ReplayScore:
    """A score with every required field zero, then ``fields``."""
    required = {
        f.name: 0
        for f in dataclasses.fields(ReplayScore)
        if f.default is dataclasses.MISSING
    }
    return ReplayScore(**{**required, "windows": (), **fields})


class TestHedgedTwinChecks:
    @pytest.mark.parametrize(
        "hedged",
        [
            pytest.param(_score(chaos_completion_p99_s=0.02), id="no-backup-armed"),
            pytest.param(
                _score(
                    hedged=5,
                    hedge_wins=2,
                    hedge_extra_fraction=float("nan"),
                    chaos_completion_p99_s=0.01,
                ),
                id="nan-duplicated-work",
            ),
        ],
    )
    def test_replay_and_hedge_grids_fail_a_twin_alike(self, hedged):
        from repro.experiments.hedge import HedgeCell
        from repro.experiments.replay import ReplayRow

        unhedged = _score(chaos_completion_p99_s=0.02)
        row = ReplayRow(
            scenario="fault-storm/none",
            flavour="hedged",
            score=hedged,
            baseline_steady_accuracy=0.0,
            capacity=None,
            outcome_counts={},
            unhedged=unhedged,
        )
        cell = HedgeCell(
            flavour="fault-storm",
            budget_label="none",
            budget_s=None,
            hedged=hedged,
            unhedged=unhedged,
        )
        assert row.failures
        assert row.failures == cell.failures
