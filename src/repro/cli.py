"""Command-line interface: regenerate paper artefacts and query the models.

Installed as ``repro-paper`` (see pyproject.toml), or run as
``python -m repro.cli``::

    repro-paper table1                 # any of table1..3, figure3..8, ablations
    repro-paper all                    # every artefact in paper order
    repro-paper select gemm --mode benchmark --platform p9-v100
    repro-paper lint                   # lint every bundled kernel
    repro-paper lint syrk --format json
    repro-paper lint --fail-on warning # treat MAP/PERF warnings as fatal
    repro-paper transfers              # declared vs inferred transfer sizing
    repro-paper drift --launches 96    # drift sentinel scenario grid
    repro-paper replay --tiny          # traffic-replay chaos scenario grid
    repro-paper hedge --tiny           # hedged-dispatch budget x chaos grid
    repro-paper trace --format json -o trace.json   # Chrome trace of a sweep
    repro-paper trace --jobs 4                 # parallel sweep, same output
    repro-paper table1 --jobs 4                # same output over 4 workers
    repro-paper table1 --cache-dir .cache      # reuse sweep results across runs
    repro-paper cache stats                    # inspect the analysis cache
    repro-paper probe tlb|gpu|epcc
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .machines import POWER9, TESLA_V100, platform_by_name
from .parallel import JOBS_ENV, AnalysisCache, default_cache_dir
from .util import add_format_argument, emit_json, emit_rows

__all__ = ["main", "build_parser"]

_ARTEFACTS = (
    "table1",
    "table2",
    "table3",
    "figure3",
    "figure45",
    "figure6",
    "figure7",
    "figure8",
    "ablations",
    "summary",
    "crossgen",
    "faults",
)


def _render_artefact(name: str) -> tuple[str, tuple[str, ...]]:
    """Render one artefact, with the self-checks it fails (if any)."""
    from . import experiments as ex

    if name == "table1":
        return ex.run_table1().render(), ()
    if name == "table2":
        return ex.run_table2().render(), ()
    if name == "table3":
        return ex.run_table3().render(), ()
    if name == "figure3":
        return ex.run_figure3().render(), ()
    if name == "figure45":
        return ex.run_figure45().render(), ()
    if name == "figure6":
        return ex.run_figure6().render(), ()
    if name == "figure7":
        return ex.run_figure7().render(), ()
    if name == "figure8":
        return "\n\n".join(
            ex.run_figure8(mode).render() for mode in ("test", "benchmark")
        ), ()
    if name == "ablations":
        return "\n\n".join(
            ex.run_ablations(mode).render() for mode in ("test", "benchmark")
        ), ()
    if name == "summary":
        return ex.run_summary().render(), ()
    if name == "crossgen":
        return "\n\n".join(
            ex.run_crossgen(mode).render() for mode in ("test", "benchmark")
        ), ()
    if name == "faults":
        result = ex.run_faults()
        return result.render(), result.failures
    raise KeyError(name)  # pragma: no cover - argparse restricts choices


def _verdict(failures) -> int:
    """List every failed self-check on stderr; the exit code they imply."""
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _report(args, result) -> int:
    """The shared body of the grid commands (drift, transfers, replay,
    service, hedge): print the JSON payload or text table per
    ``--format`` (``-o`` writes it to a file instead), then the verdict.
    """
    out = emit_json(result.to_payload()) if args.format == "json" else result.render()
    output = getattr(args, "output", None)
    if output:
        with open(output, "w") as fh:
            fh.write(out + "\n")
        print(
            f"wrote {args.command} {args.format} report "
            f"({result.launches} requests/{args.unit}) to {output}"
        )
    else:
        print(out)
    return _verdict(result.failures)


def _cmd_artefact(args) -> int:
    names = _ARTEFACTS if args.artefact == "all" else (args.artefact,)
    failed = []
    for i, name in enumerate(names):
        if i:
            print()
        text, failures = _render_artefact(name)
        print(text)
        if _verdict(failures):
            failed.append(name)
    if failed:
        print(f"self-check FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_select(args) -> int:
    from .polybench import benchmark_by_name
    from .runtime import ModelGuided, OffloadingRuntime

    platform = platform_by_name(args.platform)
    spec = benchmark_by_name(args.benchmark)
    runtime = OffloadingRuntime(
        platform, policy=ModelGuided(), num_threads=args.threads
    )
    rows = []
    for region in spec.build():
        runtime.compile_region(region)
        rec = runtime.launch(region.name, spec.env(args.mode))
        rows.append(
            [
                region.name,
                f"{rec.prediction.cpu.seconds * 1e3:.3f}",
                f"{rec.prediction.gpu.seconds * 1e3:.3f}",
                rec.target,
                f"{rec.true_speedup:.2f}x",
                "ok" if rec.decision_correct else "MISS",
            ]
        )
    print(
        emit_rows(
            ["kernel", "pred cpu (ms)", "pred gpu (ms)", "chosen", "true", ""],
            rows,
            title=(
                f"{spec.name} on {platform.name} ({args.mode} datasets, "
                f"{args.threads or platform.host.hw_threads} threads)"
            ),
            fmt=args.format,
        )
    )
    return 0


def _cmd_lint(args) -> int:
    from .lint import lint_region, render_reports_text, reports_to_json
    from .polybench import SUITE, benchmark_by_name

    specs = (
        [benchmark_by_name(b) for b in args.benchmarks]
        if args.benchmarks
        else list(SUITE)
    )
    platform = platform_by_name(args.platform)
    reports = []
    for spec in specs:
        env = spec.env(args.mode)
        for region in spec.build():
            reports.append(lint_region(region, env=env, platform=platform))
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        print(render_reports_text(reports))
    if args.fail_on == "warning":
        return 1 if any(len(r) for r in reports) else 0
    return 1 if any(r.has_errors for r in reports) else 0


def _cmd_transfers(args) -> int:
    from . import experiments as ex

    return _report(
        args,
        ex.run_transfers(
            platform=platform_by_name(args.platform),
            mode=args.mode,
            num_threads=args.threads,
        ),
    )


def _cmd_drift(args) -> int:
    from . import experiments as ex

    return _report(
        args,
        ex.run_drift(
            platform=platform_by_name(args.platform),
            launches=args.launches,
            start=args.start,
        ),
    )


def _cmd_trace(args) -> int:
    from .experiments import run_trace

    result = run_trace(
        platform=args.platform,
        mode=args.mode,
        benchmarks=args.benchmarks or None,
        num_threads=args.threads,
        jobs=args.jobs,
    )
    out = result.chrome_json() if args.format == "json" else result.render()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
        print(
            f"wrote {args.format} trace ({len(result.tracer.spans)} spans, "
            f"{len(result.records)} launches) to {args.output}"
        )
    else:
        print(out)
    return _verdict(result.failures)


def _traffic_kwargs(args) -> dict:
    """The calibrated-trace arguments of replay, service and hedge."""
    kwargs = dict(
        launches=2_000 if args.tiny else args.launches,
        seed=args.seed,
        platform=platform_by_name(args.platform),
        utilization=args.utilization,
    )
    if getattr(args, "scenarios", None):
        kwargs["scenarios"] = tuple(
            s.strip() for s in args.scenarios.split(",") if s.strip()
        )
    if hasattr(args, "jobs"):  # hedge keeps its sequential loop
        kwargs.update(jobs=args.jobs)
    return kwargs


def _cmd_replay(args) -> int:
    from . import experiments as ex

    result = ex.run_replay(
        overload_utilization=args.overload_utilization,
        capacity=args.capacity,
        **_traffic_kwargs(args),
    )
    return _report(args, result)


def _cmd_service(args) -> int:
    from . import experiments as ex

    result = ex.run_service(
        tenants=args.tenants,
        burst_utilization=args.burst_utilization,
        **_traffic_kwargs(args),
    )
    return _report(args, result)


def _cmd_hedge(args) -> int:
    from . import experiments as ex

    return _report(args, ex.run_hedge(**_traffic_kwargs(args)))


def _cmd_cache(args) -> int:
    cache = AnalysisCache(args.cache_dir or default_cache_dir())
    if args.action == "clear":
        before = cache.entry_count()
        cache.clear()
        print(f"cleared {before} entries from {cache.cache_dir}")
        return 0
    stats = cache.stats()
    if args.format == "json":
        print(emit_json(stats))
    else:
        width = max(len(k) for k in stats)
        for k, value in stats.items():
            print(f"{k:<{width}}  {value}")
    return 0


def _cmd_probe(args) -> int:
    from . import calibrate as cal

    if args.what == "tlb":
        res = cal.probe_tlb(POWER9)
        print(
            f"{res.cpu_name}: {res.measured_entries} TLB entries, "
            f"{res.measured_miss_penalty_cycles:g}-cycle miss penalty"
        )
    elif args.what == "gpu":
        res = cal.probe_gpu_latencies(TESLA_V100)
        print(
            f"{res.gpu_name}: L1 {res.l1_latency:g} / L2 {res.l2_latency:g} "
            f"/ DRAM {res.dram_latency:g} cycles"
        )
    else:  # epcc
        for m in cal.overhead_curve(POWER9):
            print(
                f"{m.cpu_name} x{m.num_threads:<4d}: "
                f"{m.overhead_cycles:12,.0f} cycles ({m.overhead_us:8.1f} us)"
            )
    return 0


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    """``--jobs``/``--cache-dir`` knobs for sweep commands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for suite sweeps "
            f"(default: ${JOBS_ENV}, else 1 = sequential)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "activate the persistent analysis cache rooted at this "
            "directory (see also $REPRO_CACHE_DIR and 'repro-paper cache')"
        ),
    )


def _add_traffic_parser(
    sub, name: str, help: str, unit: str
) -> argparse.ArgumentParser:
    """A subcommand with the calibrated-trace flags replay, service and
    hedge share (``unit`` is what ``--launches`` counts requests per)."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(unit=unit)
    parser.add_argument("--platform", default="p9-v100")
    parser.add_argument(
        "--launches",
        type=int,
        default=20_000,
        help=f"requests per {unit} (default: 20000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--utilization",
        type=float,
        default=0.6,
        help="steady-state offered load (default: 0.6)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="2000-request smoke grid (the CI target)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report to a file instead of stdout",
    )
    add_format_argument(parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper",
        description="Reproduce Chikin et al. (IPDPSW 2019) artefacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    art = sub.add_parser("artefact", help="regenerate a paper table/figure")
    art.add_argument("artefact", choices=_ARTEFACTS + ("all",))
    _add_parallel_arguments(art)
    art.set_defaults(func=_cmd_artefact)
    # artefact names also work as top-level commands
    for name in _ARTEFACTS + ("all",):
        p = sub.add_parser(name, help=f"regenerate {name}")
        _add_parallel_arguments(p)
        p.set_defaults(func=_cmd_artefact, artefact=name)

    sel = sub.add_parser("select", help="run the selector on one benchmark")
    sel.add_argument("benchmark", help="polybench benchmark name (e.g. gemm)")
    sel.add_argument("--platform", default="p9-v100")
    sel.add_argument("--mode", default="benchmark", choices=("test", "benchmark"))
    sel.add_argument("--threads", type=int, default=None)
    add_format_argument(sel)
    sel.set_defaults(func=_cmd_select)

    lint = sub.add_parser(
        "lint",
        help="run the region lint passes (exit 1 on error-severity findings)",
    )
    lint.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmark names to lint (default: the whole suite)",
    )
    lint.add_argument("--platform", default="p9-v100")
    lint.add_argument("--mode", default="test", choices=("test", "benchmark"))
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning"),
        default="error",
        help=(
            "minimum finding severity that fails the command "
            "(default: error; 'warning' makes any finding fatal)"
        ),
    )
    add_format_argument(lint)
    lint.set_defaults(func=_cmd_lint)

    xfers = sub.add_parser(
        "transfers",
        help=(
            "compare declared vs dataflow-inferred transfer sizing "
            "(exit 1 when the self-check fails)"
        ),
    )
    xfers.add_argument("--platform", default="p9-v100")
    xfers.add_argument("--mode", default="test", choices=("test", "benchmark"))
    xfers.add_argument("--threads", type=int, default=None)
    add_format_argument(xfers)
    xfers.set_defaults(func=_cmd_transfers)

    drift = sub.add_parser(
        "drift",
        help=(
            "run the drift-sentinel scenario grid "
            "(exit 1 when a self-check fails)"
        ),
    )
    drift.add_argument("--platform", default="p9-v100")
    drift.add_argument(
        "--launches",
        type=int,
        default=96,
        help="launches per arm (default: 96)",
    )
    drift.add_argument(
        "--start",
        type=int,
        default=24,
        help="launch index at which the calibration skew begins (default: 24)",
    )
    add_format_argument(drift)
    drift.set_defaults(func=_cmd_drift)

    replay = _add_traffic_parser(
        sub,
        "replay",
        "replay a seeded traffic trace under the chaos scenario grid "
        "(exit 1 when a self-check fails)",
        unit="scenario",
    )
    replay.add_argument(
        "--overload-utilization",
        type=float,
        default=3.0,
        help="offered load of the overload scenarios (default: 3.0)",
    )
    replay.add_argument(
        "--capacity",
        type=int,
        default=32,
        help="admission-queue bound for the overload scenarios (default: 32)",
    )
    replay.add_argument(
        "--scenarios",
        default=None,
        help=(
            "comma-separated subset of the scenario grid "
            "(the steady baseline is always required)"
        ),
    )
    _add_parallel_arguments(replay)
    replay.set_defaults(func=_cmd_replay)

    service = _add_traffic_parser(
        sub,
        "service",
        "replay a multi-tenant trace through the offload service, "
        "twinned against the serial FIFO (exit 1 when a self-check fails)",
        unit="scenario",
    )
    service.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="concurrent tenants issuing the trace (default: 3)",
    )
    service.add_argument(
        "--burst-utilization",
        type=float,
        default=1.6,
        help="offered load of the burst scenarios (default: 1.6)",
    )
    service.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated subset of the tenant-mix × load-shape grid",
    )
    _add_parallel_arguments(service)
    service.set_defaults(func=_cmd_service)

    hedge = _add_traffic_parser(
        sub,
        "hedge",
        "replay chaos with and without speculative host backups over "
        "a deadline-budget sweep (exit 1 when a self-check fails)",
        unit="arm",
    )
    hedge.set_defaults(func=_cmd_hedge)

    trace = sub.add_parser(
        "trace",
        help=(
            "run an instrumented suite sweep and export the trace "
            "(json = Chrome trace-event format, open in Perfetto)"
        ),
    )
    trace.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmark names to trace (default: the whole suite)",
    )
    trace.add_argument("--platform", default="p9-v100")
    trace.add_argument("--mode", default="test", choices=("test", "benchmark"))
    trace.add_argument("--threads", type=int, default=None)
    trace.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the rendered trace to a file instead of stdout",
    )
    _add_parallel_arguments(trace)
    add_format_argument(trace)
    trace.set_defaults(func=_cmd_trace)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the persistent analysis cache",
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR, else user cache)",
    )
    add_format_argument(cache)
    cache.set_defaults(func=_cmd_cache)

    probe = sub.add_parser("probe", help="run a calibration microbenchmark")
    probe.add_argument("what", choices=("tlb", "gpu", "epcc"))
    probe.set_defaults(func=_cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``--jobs`` is exported as ``$REPRO_JOBS`` so every sweep the
    command runs (and every worker it forks) picks it up; ``--cache-dir``
    activates a persistent :class:`AnalysisCache` for the command's
    duration.  Both are restored afterwards so embedding callers (tests)
    see no leaked state.
    """
    args = build_parser().parse_args(argv)
    with contextlib.ExitStack() as stack:

        def export(env: str, value) -> None:
            prev = os.environ.get(env)
            os.environ[env] = str(value)
            stack.callback(
                lambda: (
                    os.environ.pop(env, None)
                    if prev is None
                    else os.environ.__setitem__(env, prev)
                )
            )

        if getattr(args, "jobs", None) is not None:
            export(JOBS_ENV, args.jobs)
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir and args.func is not _cmd_cache:
            stack.enter_context(AnalysisCache(cache_dir).activate())
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
