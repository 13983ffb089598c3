"""Differential harness for the parallel sweep engine.

The engine's contract is *bit-identity*: a ``--jobs N`` sweep must
produce byte-for-byte the same measurement/prediction streams — and the
same golden-selection JSON — as the sequential sweep, with results,
merged metrics and spliced trace spans in case-declaration order no
matter which worker finishes first.  Every test here compares canonical
JSON serializations of both sides, so an equality failure is a real
output divergence, not a float-repr artefact.
"""

import json
import time

import pytest

from repro.experiments.common import clear_caches, measure_suite, predict_suite
from repro.experiments.replay import run_replay
from repro.experiments.service import run_service
from repro.experiments.trace import run_trace
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import (
    NULL_CACHE,
    AnalysisCache,
    ObsTaskResult,
    SweepEngine,
    current_cache,
    merge_tracer_payloads,
    resolve_jobs,
    tracer_payload,
)
from repro.polybench import SUITE, benchmark_by_name
from repro.runtime import ModelGuided, OffloadingRuntime

from .test_golden_selection import GOLDEN, build_selection_table


# ---------------------------------------------------------------------------
# Canonical serializations: byte-identity is asserted on these strings
# ---------------------------------------------------------------------------


def canon_measurements(ms) -> str:
    return json.dumps(
        [
            [m.case.name, m.cpu_seconds, m.gpu_kernel_seconds,
             m.gpu_transfer_seconds]
            for m in ms
        ]
    )


def canon_predictions(ps) -> str:
    return json.dumps(
        [
            [p.cpu.seconds, p.gpu.seconds, p.winner, p.predicted_speedup]
            for p in ps
        ]
    )


# ---------------------------------------------------------------------------
# Module-level worker tasks (pool tasks must pickle by qualified name)
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _reverse_sleep(task):
    """Finishes in *reverse* declaration order; returns its index."""
    index, total = task
    time.sleep(0.02 * (total - index))
    return index


def _obs_task(index):
    tracer = Tracer()
    metrics = MetricsRegistry()
    metrics.counter("tasks_total").inc()
    metrics.counter("by_index", index=index).inc(index)
    metrics.histogram("values", buckets=(1.0, 10.0)).observe(float(index))
    with tracer.span("work", index=index):
        pass
    return ObsTaskResult(
        value=index,
        metrics=metrics.snapshot(),
        trace=tracer_payload(tracer),
    )


def _runs_uncached(_):
    return current_cache() is NULL_CACHE


def _selection_fragment(task):
    """One benchmark's slice of the golden selection table."""
    from repro.machines import platform_by_name

    plat_name, bench_name = task
    platform = platform_by_name(plat_name)
    runtime = OffloadingRuntime(platform, policy=ModelGuided())
    spec = benchmark_by_name(bench_name)
    env = spec.env("benchmark")
    fragment = {}
    for region in spec.build():
        runtime.compile_region(region)
        rec = runtime.launch(region.name, env)
        fragment[region.name] = {
            "chosen": rec.target,
            "pred_cpu_s": rec.prediction.cpu.seconds,
            "pred_gpu_s": rec.prediction.gpu.seconds,
        }
    return fragment


# ---------------------------------------------------------------------------
# Engine unit tests
# ---------------------------------------------------------------------------


class TestResolveJobs:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_garbage_env_degrades_to_sequential(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs() == 1

    def test_floor_at_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-7) == 1


class TestEngineOrdering:
    def test_sequential_map(self):
        assert SweepEngine(1).map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_parallel_map_matches_sequential(self):
        items = list(range(8))
        assert SweepEngine(4).map(_square, items) == [x * x for x in items]

    def test_declaration_order_beats_completion_order(self):
        # task 0 sleeps longest and completes *last*; the engine must
        # still put its result first
        total = 4
        tasks = [(i, total) for i in range(total)]
        assert SweepEngine(total).map(_reverse_sleep, tasks) == [0, 1, 2, 3]

    def test_single_item_stays_in_process(self):
        # one item never pays for a pool, even with jobs > 1
        assert SweepEngine(8).map(_square, [5]) == [25]


class TestEngineObs:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_merged_metrics_equal_single_process(self, jobs):
        indexes = list(range(5))
        single = MetricsRegistry()
        for i in indexes:
            single.merge_snapshot(_obs_task(i).metrics)
        sweep = SweepEngine(jobs).map_obs(_obs_task, indexes)
        assert sweep.values == indexes
        assert sweep.metrics.snapshot() == single.snapshot()

    def test_merged_spans_declaration_ordered_and_increasing(self):
        sweep = SweepEngine(3).map_obs(_obs_task, range(5))
        names = [s.attrs["index"] for s in sweep.tracer.spans]
        assert names == list(range(5))
        stamps = [s.start_ts for s in sweep.tracer.spans]
        assert stamps == sorted(stamps)

    def test_merge_tracer_payloads_is_pure(self):
        payloads = [_obs_task(i).trace for i in range(3)]
        a = merge_tracer_payloads(payloads)
        b = merge_tracer_payloads(payloads)
        assert [
            (s.name, s.start_ts, s.end_ts, s.index) for s in a.spans
        ] == [(s.name, s.start_ts, s.end_ts, s.index) for s in b.spans]


# ---------------------------------------------------------------------------
# Differential harness: suite sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield
    clear_caches()


class TestDifferentialSweeps:
    def test_measure_suite_bitwise(self):
        seq = canon_measurements(measure_suite("p9-v100", "test"))
        clear_caches()
        par = canon_measurements(measure_suite("p9-v100", "test", jobs=2))
        assert par == seq

    def test_predict_suite_bitwise(self):
        seq = canon_predictions(predict_suite("p9-v100", "test"))
        clear_caches()
        par = canon_predictions(predict_suite("p9-v100", "test", jobs=2))
        assert par == seq

    def test_jobs_excluded_from_memo_key(self):
        first = measure_suite("p9-v100", "test", jobs=2)
        # memo hit: same object, no second sweep regardless of jobs value
        assert measure_suite("p9-v100", "test") is first


class TestDifferentialTrace:
    def test_records_and_metrics_match_sequential(self):
        seq = run_trace(mode="test")
        par = run_trace(mode="test", jobs=2)
        assert par.region_names == seq.region_names
        assert par.records == seq.records
        # both merge the same per-benchmark snapshots in the same order
        assert par.metrics.snapshot() == seq.metrics.snapshot()

    def test_trace_bytes_equal_at_every_jobs(self):
        # one task per benchmark at every worker count, the calibration
        # fitted outside the trace: the in-process sweep prints the bytes
        # the worker pool does
        seq = run_trace(mode="test")
        assert seq.chrome_json() == run_trace(mode="test", jobs=2).chrome_json()
        compiled = [s.attrs["region"] for s in seq.tracer.spans if s.name == "compile"]
        assert sorted(compiled) == sorted(seq.region_names)

    def test_parallel_trace_compiles_each_region_once(self):
        # the parent fits the calibration once, so no task compiles the
        # calibration kernels and each region has one compile span
        par = run_trace(mode="test", jobs=2)
        compiled = [
            s.attrs["region"] for s in par.tracer.spans if s.name == "compile"
        ]
        assert sorted(compiled) == sorted(par.region_names)

    def test_parallel_trace_is_deterministic(self):
        a = run_trace(mode="test", benchmarks=["gemm", "atax"], jobs=2)
        b = run_trace(mode="test", benchmarks=["gemm", "atax"], jobs=2)
        assert a.chrome_json() == b.chrome_json()

    def test_parallel_trace_timestamps_strictly_ordered(self):
        result = run_trace(mode="test", benchmarks=["gemm", "atax"], jobs=2)
        stamps = [s.start_ts for s in result.tracer.spans]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


@pytest.fixture(scope="module")
def sequential_canon():
    """Sequential canonical sweep strings, computed once for the module."""
    clear_caches()
    ms = canon_measurements(measure_suite("p9-v100", "test"))
    ps = canon_predictions(predict_suite("p9-v100", "test"))
    clear_caches()
    return ms, ps


class TestDifferentialChunked:
    """Chunked parallel sweeps (one chunk per worker) match sequential."""

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_measure_and_predict_bitwise(self, sequential_canon, jobs):
        seq_ms, seq_ps = sequential_canon
        par_ms = canon_measurements(measure_suite("p9-v100", "test", jobs=jobs))
        par_ps = canon_predictions(predict_suite("p9-v100", "test", jobs=jobs))
        assert par_ms == seq_ms
        assert par_ps == seq_ps

    def test_warm_cache_chunked_bitwise(self, sequential_canon, tmp_path):
        """Parallel + persistent cache: populate, then replay, stay equal.

        The workers persist what they compute into the activated cache's
        directory themselves, so the follow-up sequential replay must be
        pure cache service: zero misses, every value decoded from the
        store, byte-identical rows.
        """
        seq_ms, seq_ps = sequential_canon
        cache_dir = str(tmp_path / "cache")
        warm = AnalysisCache(cache_dir)
        with warm.activate():
            par_ms = canon_measurements(measure_suite("p9-v100", "test", jobs=2))
            par_ps = canon_predictions(predict_suite("p9-v100", "test", jobs=2))
        assert par_ms == seq_ms
        assert par_ps == seq_ps
        # the workers wrote their entries to disk: a sequential warm
        # replay serves every value from the store, bit-identically
        clear_caches(persistent=False)
        replay = AnalysisCache(cache_dir)
        with replay.activate():
            warm_ms = canon_measurements(measure_suite("p9-v100", "test"))
            warm_ps = canon_predictions(predict_suite("p9-v100", "test"))
        assert warm_ms == seq_ms
        assert warm_ps == seq_ps
        assert replay.hits > 0
        assert replay.misses == 0


class TestWorkerCache:
    def test_workers_run_uncached_without_a_persistent_cache(self):
        # a worker takes the in-process sweep's uncached branch
        assert SweepEngine(2).map(_runs_uncached, range(4)) == [True] * 4


class TestDifferentialReplay:
    """run_replay(jobs=N) rows match the sequential scenario loop."""

    SCENARIOS = ("steady", "fault-storm", "overload-reject")

    def test_replay_rows_match_sequential(self):
        kwargs = dict(launches=400, seed=7, scenarios=self.SCENARIOS)
        seq = run_replay(**kwargs)
        par = run_replay(jobs=2, **kwargs)
        assert [r.scenario for r in par.rows] == list(self.SCENARIOS)
        assert par == seq


class TestDifferentialService:
    """run_service(jobs=N) rows match the sequential scenario loop."""

    SCENARIOS = ("uniform-steady", "uniform-storm", "skewed-burst")

    def test_service_rows_match_sequential(self):
        kwargs = dict(launches=400, seed=7, scenarios=self.SCENARIOS)
        seq = run_service(**kwargs)
        par = run_service(jobs=2, **kwargs)
        assert [r.scenario for r in par.rows] == list(self.SCENARIOS)
        assert par == seq


class TestGoldenSelectionParallel:
    def test_parallel_selection_table_matches_golden_bytes(self):
        tasks = [("p9-v100", spec.name) for spec in SUITE]
        fragments = SweepEngine(2).map(_selection_fragment, tasks)
        table = {}
        for fragment in fragments:
            table.update(fragment)
        rendered = json.dumps(table, indent=2, sort_keys=True) + "\n"
        assert rendered == GOLDEN.read_text()

    def test_parallel_selection_table_matches_sequential(self):
        sequential = build_selection_table()
        tasks = [("p9-v100", spec.name) for spec in SUITE]
        fragments = SweepEngine(2).map(_selection_fragment, tasks)
        table = {}
        for fragment in fragments:
            table.update(fragment)
        assert json.dumps(table, sort_keys=True) == json.dumps(
            sequential, sort_keys=True
        )
