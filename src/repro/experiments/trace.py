"""Instrumented suite sweep for ``repro-paper trace``.

Runs each Polybench benchmark through its own :class:`OffloadingRuntime`
with a live :class:`~repro.obs.Tracer` and
:class:`~repro.obs.MetricsRegistry` attached, merges them in suite order
(:func:`~repro.obs.merge_tracers`, ``MetricsRegistry.merge_snapshot``),
then exports the recorded pipeline — ``compile`` → ``analyse``
(with ``ipda.analyze``) on the compile side, ``launch`` → ``predict`` →
``dispatch`` (with the inner ``sim.*`` and ``mca`` stages) per launch —
as Chrome ``trace_event`` JSON or a terminal summary.  IPDA runs once
per compiled region: the simulators price the compiled record.
Everything is simulated and seeded, so two invocations produce
byte-identical output, at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import Platform
from ..obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace_json,
    merge_tracers,
    render_trace_text,
)
from ..parallel import SweepEngine
from ..polybench import SUITE, benchmark_by_name
from ..runtime import LaunchRecord, ModelGuided, OffloadingRuntime
from .common import _calibration, _resolve_platform

__all__ = ["TraceResult", "run_trace"]


@dataclass
class TraceResult:
    """One instrumented sweep: records plus the trace/metrics behind them."""

    platform_name: str
    mode: str
    region_names: tuple[str, ...]
    records: tuple[LaunchRecord, ...]
    tracer: Tracer
    metrics: MetricsRegistry

    @property
    def failures(self) -> tuple[str, ...]:
        """Self-check: the sweep recorded what it claims it recorded."""
        if not self.records or len(self.records) != len(self.region_names):
            return (
                f"{len(self.records)} records for {len(self.region_names)} regions",
            )
        counters = self.metrics.snapshot()["counters"]
        launches = sum(
            v for k, v in counters.items() if k.startswith("launches_total")
        )
        out = []
        if launches != len(self.records):
            out.append(f"launches_total counted {launches} of {len(self.records)} launches")
        if not self.tracer.spans:
            out.append("no spans recorded")
        return tuple(out)

    def chrome_json(self) -> str:
        """The sweep as Chrome trace-event JSON (open in Perfetto)."""
        return chrome_trace_json(self.tracer, self.metrics)

    def render(self) -> str:
        """Span tree + metrics tables for the terminal."""
        header = (
            f"instrumented sweep: {len(self.records)} launches on "
            f"{self.platform_name} ({self.mode} datasets)"
        )
        return header + "\n" + render_trace_text(self.tracer, self.metrics)


def _trace_benchmark(task: tuple) -> tuple:
    """Sweep task: one benchmark's instrumented sweep, obs included.

    Each task runs its own :class:`OffloadingRuntime` with a fresh
    tracer/registry pair and returns ``(names, records, snapshot,
    tracer)`` for the declaration-ordered merge in :func:`run_trace`.
    :func:`run_trace` fits the model calibration once, outside the
    trace, and ships it with every task, so no task refits it.
    """
    plat_name, mode, bench_name, num_threads, calibration = task
    plat = _resolve_platform(plat_name)
    spec = benchmark_by_name(bench_name)
    tracer = Tracer()
    metrics = MetricsRegistry()
    policy = ModelGuided()
    policy._calibrations[(plat.name, num_threads)] = calibration
    runtime = OffloadingRuntime(
        plat,
        policy=policy,
        num_threads=num_threads,
        tracer=tracer,
        metrics=metrics,
    )
    records: list[LaunchRecord] = []
    names: list[str] = []
    env = spec.env(mode)
    for region in spec.build():
        runtime.compile_region(region)
        records.append(runtime.launch(region.name, env))
        names.append(region.name)
    return tuple(names), tuple(records), metrics.snapshot(), tracer


def run_trace(
    platform: "Platform | str" = "p9-v100",
    mode: str = "test",
    *,
    benchmarks: list[str] | None = None,
    num_threads: int | None = None,
    jobs: int | None = None,
) -> TraceResult:
    """Compile + launch every (selected) suite region with observability on.

    Each benchmark runs in its own runtime, one :class:`SweepEngine`
    task per benchmark; ``jobs > 1`` chunks the benchmarks over the
    persistent warm-worker pool, one chunk per worker, and ``jobs <= 1``
    runs the same tasks in process.  The calibration is fitted here,
    outside the trace, so the trace holds one ``compile`` span per
    region.  Launch records come back in suite-declaration order, the
    per-benchmark metrics merge into one registry, and the spans are
    spliced into one trace with rebased timestamps: the output is the
    same bytes at every ``jobs``.
    """
    plat = _resolve_platform(platform)
    specs = (
        [benchmark_by_name(b) for b in benchmarks]
        if benchmarks
        else list(SUITE)
    )
    calibration = _calibration(plat, num_threads)
    names, records, snapshots, tracers = zip(
        *SweepEngine(jobs).map(
            _trace_benchmark,
            [
                (plat.name, mode, spec.name, num_threads, calibration)
                for spec in specs
            ],
            labels=[spec.name for spec in specs],
        )
    )
    metrics = MetricsRegistry()
    for snapshot in snapshots:
        metrics.merge_snapshot(snapshot)
    return TraceResult(
        platform_name=plat.name,
        mode=mode,
        region_names=tuple(n for group in names for n in group),
        records=tuple(r for group in records for r in group),
        tracer=merge_tracers(tracers),
        metrics=metrics,
    )
