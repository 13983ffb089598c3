"""Tests for the multi-tenant offload service (repro.replay.service).

Pins the service with three harnesses:

* a golden suite — the serial preset (the default replay shape) is
  byte-identical to ``tests/golden/replay_serial.json`` across the
  whole chaos/overload/budget grid, and seeded per-device-lane reruns
  are byte-identical to themselves;
* derandomized hypothesis property tests — request conservation, no
  compute server runs two phases at once, per-tenant FIFO within a
  lane, and the dispatch clock never goes backwards;
* admission-edge and ``Budget.charge`` refund-rejection coverage.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.replay import (
    AdmissionConfig,
    ChaosSchedule,
    ChaosWindow,
    MemoizedPolicy,
    ReplayConfig,
    ReplayEngine,
    WorkloadConfig,
    score_run,
)
from repro.runtime import Budget, ExecutionMemo
from repro.util import emit_json


GOLDEN = Path(__file__).parent / "golden" / "replay_serial.json"
#: the queue-level counters the golden pins (the per-lane split of the
#: one serial lane would only repeat them)
QUEUE_KEYS = (
    "admitted",
    "shed",
    "degraded",
    "deferred",
    "resumed",
    "max_depth",
    "max_wait_s",
    "total_wait_s",
)


@pytest.fixture(scope="module")
def shared():
    """One memo + policy cache shared by every engine in this module."""
    return {"memo": ExecutionMemo(), "policy": MemoizedPolicy()}


def _engine(cfg: ReplayConfig, shared) -> ReplayEngine:
    return ReplayEngine(cfg, policy=shared["policy"], memo=shared["memo"])


def _serial_digest(run) -> dict:
    """What the golden pins per scenario.

    Outcome counts, horizon, queue counters, the score payload, and one
    SHA-256 over every outcome with its full record repr.
    """
    h = hashlib.sha256()
    for o in run.outcomes:
        h.update(
            repr(
                (o.index, o.outcome, o.arrival_s, o.start_s, o.finish_s, repr(o.record))
            ).encode()
        )
    score = score_run(run).to_payload()
    score.pop("service")
    queue = run.queue.snapshot()
    return {
        "outcome_counts": run.outcome_counts(),
        "horizon_s": run.horizon_s,
        "queue": {key: queue[key] for key in QUEUE_KEYS},
        "score": score,
        "outcomes_sha256": h.hexdigest(),
    }


def _check_golden(request, scenario: str, run) -> None:
    got = _serial_digest(run)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if request.config.getoption("--update-golden"):
        golden[scenario] = got
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden serial replay {scenario!r} regenerated")
    assert scenario in golden, (
        f"{scenario!r} is missing from tests/golden/replay_serial.json; "
        "generate it with `pytest tests/test_service.py --update-golden`"
    )
    want = golden[scenario]
    assert got["outcome_counts"] == want["outcome_counts"]
    assert got["horizon_s"] == want["horizon_s"]
    assert got["queue"] == want["queue"]
    # compared as canonical JSON so NaN fields compare equal
    assert json.dumps(got["score"], sort_keys=True) == json.dumps(
        want["score"], sort_keys=True
    )
    assert got["outcomes_sha256"] == want["outcomes_sha256"]


class TestLaneShapes:
    def test_each_shape_builds_its_lanes(self, shared):
        workload = WorkloadConfig(launches=60, seed=1)

        def lanes(run):
            return [
                (name, len(lane.compute_free), lane.channelled)
                for name, lane in run.service.lanes.items()
            ]

        serial = _engine(
            ReplayConfig(platform=PLATFORM_P9_V100, workload=workload), shared
        ).run()
        assert lanes(serial) == [("dispatcher", 1, False)]
        assert all(o.finish_s is None for o in serial.outcomes)
        assert score_run(serial).service is None

        per_device = _engine(
            ReplayConfig(platform=PLATFORM_P9_V100, workload=workload, service=True),
            shared,
        ).run()
        assert lanes(per_device) == [("cpu", 2, False), ("gpu", 2, True)]
        assert all(
            o.finish_s is not None for o in per_device.outcomes if o.launched
        )
        assert score_run(per_device).service is not None


class TestCompatDifferential:
    """The default (serial-preset) replay against pinned goldens.

    The goldens were recorded from the single-server FIFO the serial
    preset replaced (``overload-defer`` was re-pinned when resumed
    requests stopped double-booking the server); the run must keep its
    records, outcomes, horizon, score and queue accounting — across
    steady state, chaos, every overload policy, deadline budgets, and
    hedged launches (``hedge-bulkhead``: the run once also capped each
    device at two unfinished launches, which never rerouted one, so
    the pinned bytes are the same without the cap).  Regenerate with
    ``--update-golden`` only for an intentional change.
    """

    SCENARIOS = {
        "steady": dict(workload=WorkloadConfig(launches=400, seed=11)),
        "fault-storm": dict(
            workload=WorkloadConfig(launches=600, seed=5),
            chaos=ChaosSchedule(
                windows=(
                    ChaosWindow(
                        name="storm",
                        kind="fault-storm",
                        start_s=0.15,
                        stop_s=0.35,
                        probability=0.9,
                    ),
                ),
                seed=5,
            ),
        ),
        "overload-reject": dict(
            workload=WorkloadConfig(launches=400, seed=3, mean_interarrival_s=1e-6),
            admission=AdmissionConfig(capacity=8, policy="reject"),
        ),
        "overload-degrade": dict(
            workload=WorkloadConfig(launches=400, seed=3, mean_interarrival_s=1e-6),
            admission=AdmissionConfig(capacity=8, policy="degrade"),
        ),
        "overload-defer": dict(
            workload=WorkloadConfig(launches=400, seed=3, mean_interarrival_s=1e-6),
            admission=AdmissionConfig(capacity=8, policy="defer", defer_capacity=16),
        ),
        "budget": dict(
            workload=WorkloadConfig(launches=400, seed=7, mean_interarrival_s=1e-5),
            budget_s=2e-3,
        ),
        "hedge-bulkhead": dict(
            workload=WorkloadConfig(launches=400, seed=9),
            hedge=True,
        ),
        "tenants": dict(
            workload=WorkloadConfig(launches=400, seed=13, tenants=3),
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_compat_mode_is_byte_identical(self, scenario, shared, request):
        cfg = ReplayConfig(platform=PLATFORM_P9_V100, **self.SCENARIOS[scenario])
        run = _engine(cfg, shared).run()
        _check_golden(request, scenario, run)
        # the serial shape has no pipeline: the scorer derives finishes
        assert all(o.finish_s is None for o in run.outcomes)
        assert score_run(run).service is None

    def test_service_mode_seeded_rerun_is_byte_identical(self, shared):
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=WorkloadConfig(launches=500, seed=4, tenants=3),
            service=True,
        )
        first = _engine(cfg, shared).run()
        second = _engine(cfg, shared).run()
        assert first.records == second.records
        assert first.outcomes == second.outcomes
        assert first.horizon_s == second.horizon_s
        a = json.dumps(score_run(first).to_payload(), sort_keys=True)
        b = json.dumps(score_run(second).to_payload(), sort_keys=True)
        assert a == b


class TestServiceMode:
    @pytest.fixture(scope="class")
    def run(self, shared):
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=WorkloadConfig(
                launches=800, seed=2, tenants=3, mean_interarrival_s=4e-4
            ),
            service=True,
        )
        return _engine(cfg, shared).run()

    def test_every_request_has_exactly_one_outcome(self, run):
        assert [o.index for o in run.outcomes] == list(range(800))
        assert sum(run.outcome_counts().values()) == 800

    def test_compute_servers_never_double_book(self, run):
        by_server: dict = {}
        for lane, server, _idx, _tenant, _begin, comp_start, comp_end, _clock in (
            run.service.dispatch_log
        ):
            by_server.setdefault((lane, server), []).append((comp_start, comp_end))
        for spans in by_server.values():
            spans.sort()
            for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
                assert next_start >= prev_end

    def test_pipeline_finish_at_or_after_compute(self, run):
        for o in run.outcomes:
            if o.record is None or o.start_s is None:
                continue
            assert o.finish_s >= o.start_s

    def test_per_device_metrics_recorded(self, run):
        snap = run.metrics.snapshot()
        depth_keys = [k for k in snap["quantiles"] if "admission_queue_depth" in k]
        occupancy = [k for k in snap["quantiles"] if "service_occupancy" in k]
        assert any("cpu" in k for k in depth_keys)
        assert any("gpu" in k for k in depth_keys)
        assert occupancy

    def test_score_carries_tenants_and_fairness(self, run):
        score = score_run(run)
        assert len(score.tenants) == 3
        assert sum(t.launches for t in score.tenants) == score.launches
        for t in score.tenants:
            assert t.latency_p50_s <= t.latency_p95_s <= t.latency_p99_s
        assert math.isfinite(score.fairness_p99) and score.fairness_p99 >= 1.0
        payload = score.to_payload()
        assert payload["service"]["lanes"].keys() == {"cpu", "gpu"}

    def test_lane_accounting_sums_to_aggregate(self, run):
        snap = run.queue.snapshot()
        lanes = snap["lanes"]
        for key in ("admitted", "shed", "degraded", "deferred", "resumed"):
            assert sum(lane[key] for lane in lanes.values()) == snap[key], key

    def test_multi_device_rejected(self, shared):
        cfg = ReplayConfig(
            platform=Platform(
                "P9 + V100/NVLink + K80/PCIe",
                POWER9,
                (
                    AcceleratorSlot(TESLA_V100, NVLINK2),
                    AcceleratorSlot(TESLA_K80, PCIE3_X16),
                ),
            ),
            workload=WorkloadConfig(launches=10, seed=0),
            service=True,
        )
        with pytest.raises(ValueError, match="per-device lanes"):
            ReplayEngine(cfg, memo=shared["memo"]).run()


# one module-scope memo for the property tests: hypothesis re-invokes
# the test body per example, and a cold memo per example is pure waste
_PROP_SHARED = {"memo": ExecutionMemo(), "policy": MemoizedPolicy()}


def _service_run(seed, *, launches=150, tenants=3, capacity=None, policy="reject"):
    admission = (
        AdmissionConfig()
        if capacity is None
        else AdmissionConfig(capacity=capacity, policy=policy)
    )
    cfg = ReplayConfig(
        platform=PLATFORM_P9_V100,
        workload=WorkloadConfig(
            launches=launches, seed=seed, tenants=tenants, mean_interarrival_s=5e-4
        ),
        admission=admission,
        service=True,
    )
    return _engine(cfg, _PROP_SHARED).run()


class TestServiceProperties:
    """Derandomized hypothesis sweep over trace seeds and admission shapes."""

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        capacity=st.sampled_from([None, 4, 16]),
        policy=st.sampled_from(["reject", "degrade", "defer"]),
    )
    def test_conservation(self, seed, capacity, policy):
        run = _service_run(seed, capacity=capacity, policy=policy)
        assert sorted(o.index for o in run.outcomes) == list(range(150))
        # degraded launches run inline at the admission door; everything
        # else that produced a record went through a lane dispatch
        lane_launched = {
            o.index
            for o in run.outcomes
            if o.record is not None and o.outcome != "degraded"
        }
        logged = {entry[2] for entry in run.service.dispatch_log}
        assert logged == lane_launched

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_compute_exclusivity(self, seed):
        run = _service_run(seed, launches=200)
        by_server: dict = {}
        for lane, server, _idx, _tenant, _begin, comp_start, comp_end, _clock in (
            run.service.dispatch_log
        ):
            assert comp_end >= comp_start
            by_server.setdefault((lane, server), []).append((comp_start, comp_end))
        for spans in by_server.values():
            spans.sort()
            for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
                assert next_start >= prev_end

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_per_tenant_fifo_within_lane(self, seed):
        # unbounded admission: nothing is parked or shed, so a tenant's
        # launches must leave each lane in arrival (= index) order
        run = _service_run(seed, launches=200)
        last: dict = {}
        for lane, _server, index, tenant, *_ in run.service.dispatch_log:
            key = (lane, tenant)
            assert last.get(key, -1) < index
            last[key] = index

    @settings(derandomize=True, deadline=None, max_examples=6)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        capacity=st.sampled_from([None, 6]),
    )
    def test_dispatch_clock_never_goes_backwards(self, seed, capacity):
        run = _service_run(seed, capacity=capacity, policy="defer")
        clocks = [entry[-1] for entry in run.service.dispatch_log]
        assert all(a <= b for a, b in zip(clocks, clocks[1:]))
        arrival = {r.index: r.arrival_s for r in run.requests}
        for _lane, _server, index, _tenant, begin, *_ in run.service.dispatch_log:
            assert begin >= arrival[index]


class TestCoverageEdges:
    def test_budget_rejects_refunds(self):
        budget = Budget(1.0)
        budget.charge(0.25)
        with pytest.raises(ValueError):
            budget.charge(-0.1)
        with pytest.raises(ValueError):
            budget.charge(math.nan)
        with pytest.raises(ValueError):
            budget.charge(math.inf)
        assert budget.remaining() == pytest.approx(0.75)
        assert not budget.exhausted

    def test_budget_requires_finite_positive_total(self):
        with pytest.raises(ValueError):
            Budget(0.0)
        with pytest.raises(ValueError):
            Budget(math.inf)
        with pytest.raises(ValueError):
            Budget(math.nan)

    def test_service_door_expires_stale_waiters(self, shared):
        # a tight deadline on an overloaded trace must shed at the door
        # (wait >= budget) without charging or launching
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=WorkloadConfig(
                launches=400, seed=7, mean_interarrival_s=1e-5
            ),
            service=True,
            budget_s=2e-3,
        )
        run = _engine(cfg, shared).run()
        counts = run.outcome_counts()
        assert counts.get("expired", 0) > 0
        assert sum(counts.values()) == 400
        expired = [o for o in run.outcomes if o.outcome == "expired"]
        assert all(o.record is None for o in expired)

    def test_service_defer_parks_and_resumes(self, shared):
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=WorkloadConfig(
                launches=400, seed=3, mean_interarrival_s=1e-6
            ),
            admission=AdmissionConfig(capacity=8, policy="defer", defer_capacity=16),
            service=True,
        )
        run = _engine(cfg, shared).run()
        snap = run.queue.snapshot()
        assert snap["deferred"] > 0 and snap["resumed"] > 0
        assert sum(run.outcome_counts().values()) == 400

    def test_serial_defer_never_double_books(self, shared):
        # resumed requests used to start at their original arrival once
        # the drain had emptied the finish-time queue, on a server an
        # earlier launch still held
        scenario = TestCompatDifferential.SCENARIOS["overload-defer"]
        cfg = ReplayConfig(platform=PLATFORM_P9_V100, **scenario)
        run = _engine(cfg, shared).run()
        spans = sorted(
            (o.start_s, o.start_s + o.record.executed_seconds)
            for o in run.outcomes
            if o.record is not None
        )
        assert run.queue.resumed > 0
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert next_start >= prev_end
        assert run.horizon_s >= max(end for _, end in spans)

    def test_service_degrade_forces_the_host(self, shared):
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=WorkloadConfig(
                launches=400, seed=3, mean_interarrival_s=1e-6
            ),
            admission=AdmissionConfig(capacity=8, policy="degrade"),
            service=True,
        )
        run = _engine(cfg, shared).run()
        degraded = [o for o in run.outcomes if o.outcome == "degraded"]
        assert degraded
        assert all(
            o.record is not None and o.record.admission is not None
            for o in degraded
        )

    def test_experiment_small_grid_passes_and_serializes(self, grid_pin):
        from repro.experiments import run_service

        result = run_service(
            launches=1000,
            scenarios=("uniform-steady", "uniform-storm", "skewed-burst"),
        )
        assert not result.failures
        assert result.overlap_wins >= 1
        for row in result.rows:
            assert row.score.tenants and row.legacy.tenants
            assert row.score.requests == row.legacy.requests
        payload = result.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert result.render()
        grid_pin("service-1000", emit_json(payload))

    def test_experiment_rejects_bad_grids(self):
        from repro.experiments import run_service

        with pytest.raises(ValueError):
            run_service(launches=100, scenarios=("uniform-steady", "meteor"))
        with pytest.raises(ValueError):
            run_service(launches=100, tenants=1)

    def test_batching_waives_transfers_under_pressure(self, shared):
        cfg = ReplayConfig(
            platform=PLATFORM_P9_V100,
            workload=WorkloadConfig(
                launches=1200, seed=6, mean_interarrival_s=2e-4
            ),
            service=True,
        )
        run = _engine(cfg, shared).run()
        snap = run.queue.snapshot()
        assert snap["batches"] > 0
        assert snap["transfers_waived"] == snap["batched"] or (
            snap["transfers_waived"] <= snap["batched"]
        )
