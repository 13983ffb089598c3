"""Instrumented suite sweep for ``repro-paper trace``.

Runs the Polybench suite through an :class:`OffloadingRuntime` with a
live :class:`~repro.obs.Tracer` and :class:`~repro.obs.MetricsRegistry`
attached, then exports the recorded pipeline — ``compile`` → ``analyse``
on the compile side, ``launch`` → ``predict`` → ``dispatch`` (with the
inner ``sim.*``/``ipda``/``mca`` stages) per launch — as Chrome
``trace_event`` JSON or a terminal summary.  Everything is simulated and
seeded, so two invocations produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import Platform
from ..obs import MetricsRegistry, Tracer, chrome_trace_json, render_trace_text
from ..parallel import ObsTaskResult, SweepEngine, tracer_payload
from ..polybench import SUITE, benchmark_by_name
from ..runtime import LaunchRecord, ModelGuided, OffloadingRuntime
from .common import _resolve_platform

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

    @property
    def passed(self) -> bool:
        return not self.failures

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


def _trace_benchmark(task: tuple) -> ObsTaskResult:
    """Worker task: one benchmark's instrumented sweep, obs included.

    Each worker runs its own :class:`OffloadingRuntime` with a fresh
    tracer/registry pair and ships the snapshot + span payload back for
    the declaration-ordered merge in :func:`run_trace`.
    """
    plat_name, mode, bench_name, num_threads = task
    plat = _resolve_platform(plat_name)
    spec = benchmark_by_name(bench_name)
    tracer = Tracer()
    metrics = MetricsRegistry()
    runtime = OffloadingRuntime(
        plat,
        policy=ModelGuided(),
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
    return ObsTaskResult(
        value=(tuple(names), tuple(records)),
        metrics=metrics.snapshot(),
        trace=tracer_payload(tracer),
    )


def run_trace(
    platform: "Platform | str" = "p9-v100",
    mode: str = "test",
    *,
    benchmarks: list[str] | None = None,
    num_threads: int | None = None,
    jobs: int | None = None,
) -> TraceResult:
    """Compile + launch every (selected) suite region with observability on.

    With ``jobs > 1`` the benchmarks are chunked over the persistent
    warm-worker pool, one chunk per worker; launch records come back in
    suite-declaration order (bit-identical to sequential), worker
    metrics merge into the same totals, and worker spans are spliced
    into one trace with rebased timestamps (deterministic run-to-run,
    but not byte-identical to the sequential trace, whose single clock
    accumulates across benchmarks).
    """
    plat = _resolve_platform(platform)
    specs = (
        [benchmark_by_name(b) for b in benchmarks]
        if benchmarks
        else list(SUITE)
    )
    engine = SweepEngine(jobs)
    if engine.parallel:
        sweep = engine.map_obs(
            _trace_benchmark,
            [(plat.name, mode, spec.name, num_threads) for spec in specs],
            labels=[spec.name for spec in specs],
        )
        names = [n for group_names, _ in sweep.values for n in group_names]
        records = [r for _, group_records in sweep.values for r in group_records]
        return TraceResult(
            platform_name=plat.name,
            mode=mode,
            region_names=tuple(names),
            records=tuple(records),
            tracer=sweep.tracer,
            metrics=sweep.metrics,
        )
    tracer = Tracer()
    metrics = MetricsRegistry()
    runtime = OffloadingRuntime(
        plat,
        policy=ModelGuided(),
        num_threads=num_threads,
        tracer=tracer,
        metrics=metrics,
    )
    records = []
    names = []
    for spec in specs:
        env = spec.env(mode)
        for region in spec.build():
            runtime.compile_region(region)
            records.append(runtime.launch(region.name, env))
            names.append(region.name)
    return TraceResult(
        platform_name=plat.name,
        mode=mode,
        region_names=tuple(names),
        records=tuple(records),
        tracer=tracer,
        metrics=metrics,
    )
