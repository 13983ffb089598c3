"""Tests for the observability layer: tracer, metrics, exporters.

Covers the three contracts ISSUE demands of ``repro.obs``:

* determinism — two identical seeded sweeps serialize byte-identically,
* transparency — a runtime with the default :data:`NULL_TRACER` produces
  launch records bit-identical to an instrumented one,
* structure — spans nest ``compile`` → ``analyse`` and ``launch`` →
  ``predict`` → ``dispatch`` for every Polybench region, and the JSON
  exporter emits valid Chrome trace-event documents.
"""

import ast
import collections
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import run_trace
from repro.machines import (
    NVLINK2,
    PCIE3_X16,
    POWER9,
    TESLA_K80,
    TESLA_V100,
    AcceleratorSlot,
    Platform,
    platform_by_name,
)
from repro.obs import (
    CATALOGUE,
    DEFAULT_LOG_ERROR_BUCKETS,
    METRICS,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    Tracer,
    chrome_trace_events,
    chrome_trace_json,
    current_tracer,
    render_trace_text,
)
from repro.obs import metrics as obs_metrics
from repro.obs.catalog import render_markdown
from repro.polybench import benchmark_by_name
from repro.runtime import ModelGuided, OffloadingRuntime


class TestTracer:
    def test_spans_record_interval_and_attrs(self):
        tr = Tracer()
        with tr.span("outer", region="gemm") as sp:
            sp.set("target", "gpu")
        (rec,) = tr.spans
        assert rec.name == "outer"
        assert rec.attrs == {"region": "gemm", "target": "gpu"}
        assert rec.end_ts is not None and rec.end_ts > rec.start_ts

    def test_children_nest_strictly_inside_parents(self):
        tr = Tracer()
        with tr.span("parent"):
            with tr.span("child"):
                pass
        parent, child = tr.spans
        assert parent.depth == 0 and child.depth == 1
        assert parent.start_ts < child.start_ts
        assert child.end_ts < parent.end_ts

    def test_timestamps_strictly_increase_without_a_clock(self):
        tr = Tracer()
        for _ in range(5):
            with tr.span("s"):
                pass
        stamps = [t for rec in tr.spans for t in (rec.start_ts, rec.end_ts)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_exception_annotates_and_closes_span(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("doomed"):
                raise RuntimeError("boom")
        (rec,) = tr.spans
        assert rec.attrs["error"] == "RuntimeError"
        assert rec.end_ts is not None

    def test_instants_stamp_inside_the_running_span(self):
        tr = Tracer()
        with tr.span("dispatch") as sp:
            sp.event("fault", device="gpu")
        (inst,) = tr.instants
        assert inst.name == "fault"
        assert inst.attrs == {"device": "gpu"}
        assert tr.spans[0].start_ts < inst.ts < tr.spans[0].end_ts

    def test_clear_resets_everything(self):
        tr = Tracer()
        with tr.span("s") as sp:
            sp.event("i")
        tr.clear()
        assert len(tr) == 0 and not tr.instants
        with tr.span("again"):
            pass
        assert tr.spans[0].start_ts == 1  # sequence restarted

    def test_activation_pushes_and_pops(self):
        tr = Tracer()
        assert current_tracer() is NULL_TRACER
        with tr.activate():
            assert current_tracer() is tr
            inner = Tracer()
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is tr
        assert current_tracer() is NULL_TRACER


class TestNullTracer:
    def test_is_the_default_current_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER) == 0

    def test_span_is_a_shared_noop(self):
        a = NULL_TRACER.span("x", region="gemm")
        b = NULL_TRACER.span("y")
        assert a is b  # allocation-free fast path
        with a as sp:
            sp.set("k", 1)
            sp.event("e")
        assert NULL_TRACER.spans == ()

    def test_activate_never_touches_global_state(self):
        with NULL_TRACER.activate():
            assert current_tracer() is NULL_TRACER


class TestMetrics:
    def test_counters_are_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("launches_total", device="gpu")
        b = reg.counter("launches_total", device="gpu")
        assert a is b
        a.inc()
        b.inc(2)
        assert reg.snapshot()["counters"]["launches_total{device=gpu}"] == 3

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("c", b="2", a="1").inc()
        reg.counter("c", a="1", b="2").inc()
        assert reg.snapshot()["counters"] == {"c{a=1,b=2}": 2}

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(2.5)
        assert reg.snapshot()["gauges"]["g"] == 2.5

    def test_histogram_bucketing(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]  # le_1, le_10, le_inf
        assert h.count == 4
        assert h.sum == pytest.approx(106.5)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, float("inf")))

    def test_snapshot_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("z").inc()
            reg.counter("a", x="1").inc(3)
            reg.gauge("g").set(0.25)
            reg.histogram("h").observe(0.15)
            return reg

        one, two = build().snapshot(), build().snapshot()
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
        assert list(one["counters"]) == ["a{x=1}", "z"]  # sorted keys
        hist = one["histograms"]["h"]
        assert hist["count"] == 1
        assert hist["buckets"]["le_0.2"] == 1
        assert set(hist["buckets"]) == {
            f"le_{b:g}" for b in DEFAULT_LOG_ERROR_BUCKETS
        } | {"le_inf"}


class TestQuantileSketch:
    """Deterministic streaming quantiles (the replay overhead gates)."""

    def test_exact_nearest_rank_quantiles(self):
        s = QuantileSketch()
        for v in range(1, 101):  # 1..100, exact under quantization
            s.observe(float(v))
        assert s.p50 == 50.0
        assert s.p95 == 95.0
        assert s.p99 == 99.0
        assert s.quantile(1.0) == 100.0
        assert s.count == 100
        assert s.sum == pytest.approx(5050.0)

    def test_single_observation_is_every_quantile(self):
        s = QuantileSketch()
        s.observe(0.25)
        assert s.p50 == s.p95 == s.p99 == 0.25

    def test_empty_quantiles_are_nan(self):
        import math

        assert math.isnan(QuantileSketch().p50)

    def test_quantile_argument_validated(self):
        s = QuantileSketch()
        s.observe(1.0)
        with pytest.raises(ValueError):
            s.quantile(0.0)
        with pytest.raises(ValueError):
            s.quantile(1.5)

    def test_nonfinite_counted_separately(self):
        import math

        s = QuantileSketch()
        s.observe(1.0)
        s.observe(math.inf)
        s.observe(math.nan)
        assert s.count == 1 and s.nonfinite == 2
        assert s.p99 == 1.0  # quantiles unpoisoned

    def test_quantization_buckets_close_values(self):
        s = QuantileSketch()
        s.observe(0.1234561)
        s.observe(0.1234564)  # same 6-sig-fig bucket
        s.observe(0.123457)
        assert s.counts == {0.123456: 2, 0.123457: 1}

    def test_order_independent_to_the_last_bit(self):
        values = [0.37 * i + 1e-9 for i in range(200)]
        a, b = QuantileSketch(), QuantileSketch()
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.counts == b.counts
        assert a.sum == b.sum  # exact, not approx: fsum over sorted counts
        assert a.p99 == b.p99


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestObserveShortcuts:
    """The sketch's exact-integer shortcut and the histogram's bisection
    equal the work they skip: the ``%.6g`` round trip and a linear scan."""

    @staticmethod
    def _quantized(value) -> float:
        sketch = QuantileSketch()
        sketch.observe(value)
        (quantized,) = sketch.counts
        return quantized

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        st.one_of(
            st.integers(-999_999, 999_999).map(float),
            st.sampled_from(
                (999_999.0, -999_999.0, 1e6, -1e6, 1e6 + 1, 0.0, -0.0, 0.5, 1e15)
            ),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-(10**7), 10**7),
        )
    )
    def test_sketch_quantization_equals_the_format_round_trip(self, value):
        quantized = self._quantized(value)
        expected = float(obs_metrics._QUANTUM % value)
        assert type(quantized) is float
        assert _bits(quantized) == _bits(expected)

    @staticmethod
    def _scan(buckets, value) -> int:
        """The bucket index the linear scan picks (len = overflow)."""
        for i, bound in enumerate(buckets):
            if value <= bound:
                return i
        return len(buckets)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from((math.nan, math.inf, -math.inf, -0.0)),
            ),
            max_size=20,
        ),
    )
    def test_histogram_buckets_equal_the_linear_scan(self, bounds, values):
        hist = Histogram(bounds)
        # every bound, and its float neighbours, besides the drawn values
        probes = list(values)
        for b in hist.buckets:
            probes += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
        expected = [0] * (len(hist.buckets) + 1)
        for value in probes:
            hist.observe(value)
            expected[self._scan(hist.buckets, value)] += 1
            assert hist.counts == expected

    def test_default_buckets_on_their_bounds_and_non_finite(self):
        hist = Histogram()
        for value in (*DEFAULT_LOG_ERROR_BUCKETS, math.nan, math.inf, -math.inf):
            hist.observe(value)
        # each bound lands in its own bucket, -inf in the first, and NaN
        # and +inf overflow
        assert hist.counts == [2] + [1] * (len(DEFAULT_LOG_ERROR_BUCKETS) - 1) + [2]


class TestRegistryQuantiles:
    def test_get_or_create_and_snapshot_shape(self):
        reg = MetricsRegistry()
        sketch = reg.quantiles("dispatch_overhead_seconds")
        assert reg.quantiles("dispatch_overhead_seconds") is sketch
        sketch.observe(0.5)
        sketch.observe(float("nan"))
        snap = reg.snapshot()
        entry = snap["quantiles"]["dispatch_overhead_seconds"]
        assert entry["count"] == 1
        assert entry["nonfinite"] == 1
        assert entry["counts"] == {"0.5": 1}
        assert len(reg) == 1

    def test_merge_snapshot_folds_worker_sketches(self):
        worker_a, worker_b, whole = (MetricsRegistry() for _ in range(3))
        for i in range(50):
            value = 0.001 * (i + 1)
            whole.quantiles("lat").observe(value)
            (worker_a if i % 2 else worker_b).quantiles("lat").observe(value)
        merged = MetricsRegistry()
        merged.merge_snapshot(worker_a.snapshot())
        merged.merge_snapshot(worker_b.snapshot())
        assert merged.quantiles("lat").counts == whole.quantiles("lat").counts
        assert merged.quantiles("lat").p99 == whole.quantiles("lat").p99


class TestMergeSnapshot:
    """Worker-registry merging for the parallel sweep engine.

    Counters and histograms must merge *order-independently* into
    exactly what a single-process sweep records; gauges are last-write-
    wins, decided by merge order.
    """

    @staticmethod
    def _observe(reg: MetricsRegistry, values):
        for v in values:
            reg.counter("launches_total", device="gpu").inc()
            reg.histogram("err", buckets=(0.1, 1.0)).observe(v)

    def test_split_registries_merge_to_single_process_totals(self):
        # dyadic values: float addition is exact for them under any
        # grouping, so snapshot equality can be exact
        values = [0.0625, 0.5, 2.0, 0.03125, 5.0]
        single = MetricsRegistry()
        self._observe(single, values)

        merged = MetricsRegistry()
        for chunk in (values[:2], values[2:4], values[4:]):
            worker = MetricsRegistry()
            self._observe(worker, chunk)
            merged.merge_snapshot(worker.snapshot())
        assert merged.snapshot() == single.snapshot()

    def test_merge_is_order_independent_for_counters_and_histograms(self):
        chunks = [[0.05, 0.5], [2.0], [0.07, 5.0]]
        snaps = []
        for chunk in chunks:
            worker = MetricsRegistry()
            self._observe(worker, chunk)
            snaps.append(worker.snapshot())

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for s in snaps:
            forward.merge_snapshot(s)
        for s in reversed(snaps):
            backward.merge_snapshot(s)
        f, b = forward.snapshot(), backward.snapshot()
        assert f["counters"] == b["counters"]
        fh, bh = f["histograms"]["err"], b["histograms"]["err"]
        assert fh["buckets"] == bh["buckets"]
        assert fh["count"] == bh["count"]
        assert fh["sum"] == pytest.approx(bh["sum"], rel=1e-12)

    def test_gauges_take_the_last_merged_write(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.gauge("clock").set(1.0)
        second.gauge("clock").set(2.0)
        merged = MetricsRegistry()
        merged.merge_snapshot(first.snapshot())
        merged.merge_snapshot(second.snapshot())
        assert merged.snapshot()["gauges"]["clock"] == 2.0

    def test_merge_into_populated_registry_adds(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        other = MetricsRegistry()
        other.counter("c").inc(3)
        reg.merge_snapshot(other.snapshot())
        assert reg.snapshot()["counters"]["c"] == 5

    def test_mismatched_histogram_bounds_refuse_to_merge(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", buckets=(5.0, 6.0)).observe(0.5)
        with pytest.raises(ValueError):
            reg.merge_snapshot(other.snapshot())

    def test_shared_quantile_values_add_their_counts(self):
        # both workers observe the same values, so every quantized value
        # is in both snapshots and the merge must add its counts
        values = (0.5, 0.25, 0.125)
        worker_a, worker_b, single = (MetricsRegistry() for _ in range(3))
        for worker in (worker_a, worker_b):
            for v in values:
                worker.quantiles("lat").observe(v)
                single.quantiles("lat").observe(v)
        merged = MetricsRegistry()
        merged.merge_snapshot(worker_a.snapshot())
        merged.merge_snapshot(worker_b.snapshot())
        assert merged.snapshot() == single.snapshot()

    def test_merge_recovers_bucket_bounds_from_snapshot(self):
        worker = MetricsRegistry()
        worker.histogram("h", buckets=(0.25, 4.0)).observe(3.0)
        merged = MetricsRegistry()
        merged.merge_snapshot(worker.snapshot())
        assert merged.snapshot() == worker.snapshot()

    def test_merged_suite_metrics_equal_single_process(self):
        """Satellite acceptance: per-worker sweep registries merge to the
        sequential sweep's counters/histogram counts."""
        seq = run_trace(mode="test")
        par = run_trace(mode="test", jobs=2)
        sm, pm = seq.metrics.snapshot(), par.metrics.snapshot()
        assert pm["counters"] == sm["counters"]
        for key, want in sm["histograms"].items():
            got = pm["histograms"][key]
            assert got["buckets"] == want["buckets"]
            assert got["count"] == want["count"]


class TestExporters:
    def _traced(self):
        tr = Tracer()
        with tr.span("launch", region="gemm") as sp:
            sp.event("fault", device="gpu")
            with tr.span("predict"):
                pass
        return tr

    def test_chrome_events_shape(self):
        events = chrome_trace_events(self._traced())
        assert events[0]["ph"] == "M"  # process_name metadata first
        xs = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["launch", "predict"]
        for e in xs:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert e["dur"] >= 0
        (inst,) = [e for e in events if e["ph"] == "i"]
        assert inst["name"] == "fault" and inst["s"] == "t"

    def test_chrome_json_is_valid_and_embeds_metrics(self):
        reg = MetricsRegistry()
        reg.counter("launches_total", device="gpu").inc()
        payload = json.loads(chrome_trace_json(self._traced(), reg))
        assert payload["displayTimeUnit"] == "ms"
        assert [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
        assert (
            payload["otherData"]["metrics"]["counters"][
                "launches_total{device=gpu}"
            ]
            == 1
        )

    def test_text_render_shows_tree_and_tables(self):
        reg = MetricsRegistry()
        reg.counter("launches_total", device="gpu").inc()
        text = render_trace_text(self._traced(), reg)
        assert "launch" in text and "predict" in text
        assert "launches_total{device=gpu}" in text


def _suite_records(runtime, names=("gemm", "atax")):
    records = []
    for bench in names:
        spec = benchmark_by_name(bench)
        env = spec.env("test")
        for region in spec.build():
            runtime.compile_region(region)
            records.append(runtime.launch(region.name, env))
    return records


class TestTransparency:
    """A live tracer must never change what the runtimes record."""

    def test_offloading_records_bit_identical_with_tracer_on(self):
        platform = platform_by_name("p9-v100")
        plain = _suite_records(OffloadingRuntime(platform, policy=ModelGuided()))
        traced = _suite_records(
            OffloadingRuntime(
                platform,
                policy=ModelGuided(),
                tracer=Tracer(),
                metrics=MetricsRegistry(),
            )
        )
        assert plain == traced
        assert current_tracer() is NULL_TRACER  # activation fully unwound

    def test_multi_device_records_bit_identical_with_tracer_on(self):
        platform = Platform(
            "P9 + V100/NVLink + K80/PCIe",
            POWER9,
            (
                AcceleratorSlot(TESLA_V100, NVLINK2),
                AcceleratorSlot(TESLA_K80, PCIE3_X16),
            ),
        )
        plain = _suite_records(OffloadingRuntime(platform), names=("gemm",))
        traced = _suite_records(
            OffloadingRuntime(
                platform, tracer=Tracer(), metrics=MetricsRegistry()
            ),
            names=("gemm",),
        )
        assert plain == traced

    def test_default_runtime_records_nothing(self):
        platform = platform_by_name("p9-v100")
        runtime = OffloadingRuntime(platform, policy=ModelGuided())
        _suite_records(runtime, names=("gemm",))
        assert runtime.tracer is NULL_TRACER
        assert len(runtime.tracer) == 0
        assert runtime.metrics is None


class TestDeterminism:
    def test_two_sweeps_serialize_byte_identically(self):
        one = run_trace(benchmarks=["gemm", "atax"])
        two = run_trace(benchmarks=["gemm", "atax"])
        assert one.chrome_json() == two.chrome_json()
        assert one.metrics.snapshot() == two.metrics.snapshot()
        assert one.render() == two.render()


class TestAcceptance:
    """The ISSUE acceptance criterion, verified over the whole suite."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_trace(mode="test")

    def test_every_region_nests_compile_analyse_predict_dispatch(self, sweep):
        spans = sweep.tracer.spans

        def within(inner, outer):
            return (
                outer.start_ts < inner.start_ts
                and inner.end_ts < outer.end_ts
            )

        def top(name, region):
            found = [
                s
                for s in spans
                if s.name == name
                and s.depth == 0
                and s.attrs.get("region") == region
            ]
            assert found, f"no top-level {name} span for {region}"
            return found[-1]

        for region in sweep.region_names:
            compile_span = top("compile", region)
            launch = top("launch", region)
            analyse = [
                s
                for s in spans
                if s.name == "analyse" and within(s, compile_span)
            ]
            assert analyse, f"compile({region}) has no analyse child"
            for stage in ("predict", "dispatch"):
                inner = [
                    s for s in spans if s.name == stage and within(s, launch)
                ]
                assert inner, f"launch({region}) has no {stage} child"
            predict = next(s for s in spans if s.name == "predict" and within(s, launch))
            dispatch = next(
                s for s in spans if s.name == "dispatch" and within(s, launch)
            )
            assert predict.end_ts < dispatch.start_ts  # pipeline order

    def test_chrome_json_pinned(self, sweep, grid_pin):
        # every span, attribute and metric of the 24-launch sweep
        grid_pin("trace-test", sweep.chrome_json())

    def test_chrome_json_is_well_formed(self, sweep):
        payload = json.loads(sweep.chrome_json())
        events = payload["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        for e in events:
            if e["ph"] == "X":
                assert isinstance(e["ts"], int) and e["dur"] >= 0
        names = {e["name"] for e in events}
        assert {"compile", "analyse", "launch", "predict", "dispatch"} <= names

    def test_metrics_cover_every_launch(self, sweep):
        snap = sweep.metrics.snapshot()
        launched = sum(
            v
            for k, v in snap["counters"].items()
            if k.startswith("launches_total{")
        )
        assert launched == len(sweep.records)
        assert snap["gauges"]["sim_clock_seconds"] >= 0.0
        errors = [
            h
            for k, h in snap["histograms"].items()
            if k.startswith("prediction_abs_log_error{")
        ]
        assert errors and all(h["count"] > 0 for h in errors)


def _single_replay():
    """The single-accelerator replay the metrics pin hashes (about 1 s)."""
    from repro.replay import (
        AdmissionConfig,
        ChaosSchedule,
        ChaosWindow,
        MemoizedPolicy,
        ReplayConfig,
        ReplayEngine,
        WorkloadConfig,
        generate_requests,
    )

    workload = WorkloadConfig(
        launches=1500,
        seed=0,
        mean_interarrival_s=3.1e-3,
        tenants=3,
        tenant_weights=(0.7, 0.2, 0.1),
    )
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
        platform=platform_by_name("p9-v100"),
        workload=workload,
        chaos=ChaosSchedule(windows=windows, seed=0),
        admission=AdmissionConfig(capacity=8, policy="degrade"),
        budget_s=0.05,
        hedge=True,
        service=True,
    )
    return ReplayEngine(cfg, policy=MemoizedPolicy()).run(requests=requests)


@pytest.fixture(scope="module")
def single_replay():
    return _single_replay()


class TestReplayMetricsPin:
    """Every metric one single-accelerator replay emits, pinned.

    A 1500-launch, three-tenant replay on p9-v100 through per-device
    lanes, with a fault storm, a 6x GPU hardware drift, hedging,
    budgets and degrading admission.  It emits every
    runtime, service and replay metric except the lint pair.
    """

    def test_replay_metrics_pinned(self, single_replay, grid_pin):
        assert single_replay.outcome_counts() == {"degraded": 108, "ok": 1392}
        grid_pin(
            "single-replay-metrics",
            json.dumps(single_replay.metrics.snapshot(), sort_keys=True),
        )

    def test_each_registry_key_is_built_once(self, monkeypatch):
        # launches emit through bound handles: a key string is built when
        # an instrument is created, never again per launch
        built = collections.Counter()
        build = obs_metrics._key

        def counting(name, labels):
            key = build(name, labels)
            built[key] += 1
            return key

        monkeypatch.setattr(obs_metrics, "_key", counting)
        run = _single_replay()
        assert max(built.values()) == 1
        assert sum(built.values()) == len(run.metrics)


def _emitted(snapshot):
    """(name, label names) of every instrument in a snapshot."""
    found = set()
    for section in snapshot.values():
        for key in section:
            name, _, inner = key.partition("{")
            pairs = inner.rstrip("}").split(",") if inner else []
            found.add((name, tuple(sorted(p.split("=", 1)[0] for p in pairs))))
    return found


class TestCatalogue:
    """The declared metrics are the emitted ones, and the docs render them."""

    DOC = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"
    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
    BEGIN = "<!-- metric-catalogue:begin"
    END = "<!-- metric-catalogue:end -->"

    def test_docs_tables_are_the_rendering(self, request):
        head, begin, rest = self.DOC.read_text().partition(self.BEGIN)
        marker, _, rest = rest.partition("\n")
        tables, end, tail = rest.partition(self.END)
        assert begin and end, "docs/OBSERVABILITY.md lost its catalogue markers"
        rendered = render_markdown()
        if request.config.getoption("--update-golden"):
            self.DOC.write_text(head + begin + marker + "\n" + rendered + end + tail)
            return
        assert tables == rendered, (
            "docs/OBSERVABILITY.md's metric tables are stale "
            "(rerun with --update-golden)"
        )

    def test_src_emits_only_through_declared_families(self):
        by_name = ("counter", "gauge", "histogram", "quantiles")
        handles = {"fams", "self._families", "METRICS"}
        sites = []
        for path in sorted(self.SRC.rglob("*.py")):
            if path.name == "metrics.py" and path.parent.name == "obs":
                continue  # the registry itself
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in by_name
                ):
                    pytest.fail(
                        f"{path.name}:{node.lineno} asks the registry for "
                        f"{node.func.attr}() by name"
                    )
                if (
                    isinstance(node, ast.Subscript)
                    and ast.unparse(node.value) in handles
                    and isinstance(node.slice, ast.Constant)
                ):
                    sites.append(node.slice.value)
        assert set(sites) <= set(METRICS), set(sites) - set(METRICS)
        assert len(set(sites)) == len(CATALOGUE)  # no declaration goes unused

    def test_runs_emit_declared_names_and_label_sets(self, single_replay):
        from .test_dispatch import TestMultiReplayPin

        emitted = set()
        for registry in (single_replay.metrics, TestMultiReplayPin()._run().metrics):
            emitted |= _emitted(registry.snapshot())
        declared = {(s.name, tuple(sorted(s.labels))) for s in CATALOGUE}
        assert emitted == declared
