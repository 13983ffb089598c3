#!/usr/bin/env python3
"""Wall-clock benchmark of the CPU/GPU selection pipeline, end to end and per layer.

One workload, the way BENCHMARK.json runs it (the last line of output is
one JSON object; end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``)::

    python3 perfbench/bench_layers.py --workload decide --seed 0 --seconds 25 --trace 0

Every workload, each in a fresh process, with a table of all metrics::

    python3 perfbench/bench_layers.py --seed 0 -o runs.json
    python3 perfbench/bench_layers.py --seed 0,0,0,0,0 -o a.json   # five runs at seed 0
    python3 perfbench/bench_layers.py --compare a.json b.json
    python3 perfbench/bench_layers.py --quick           # about 1/20 length
    python3 perfbench/bench_layers.py --update-reference

Workloads, metrics and the layer map are described in perfbench/README.md.
``pytest perfbench/bench_layers.py`` runs :func:`test_quick_smoke`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import bracketed, factor, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = ROOT / "BENCHMARK.json"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
#: prefix of the line that carries a run's ungated numbers to an orchestrating parent
DETAIL = "perfbench-detail "
REFERENCE_SEED = 0
QUICK_SECONDS = 1.0
WORKLOAD_NAMES = ("decide", "suite-cold", "replay-steady", "service-storm")
#: the set-up phase layers whose share of set-up time is reported
SETUP_LAYERS = ("analysis.compile_region", "calibrate.fit_model_calibration")
RUN_TIMEOUT_S = 300


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``; fail when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_catalogue() -> dict:
    return json.loads(CATALOGUE.read_text())


def parse_seeds(text: str) -> list[int]:
    """``0``, ``0-9`` or ``0,3,5``; a seed listed twice is run twice."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


# -- one workload, in this process ------------------------------------------


def measure(workload, state, recorder, seconds: float, min_rounds: int, first: int):
    """Rounds while the next one fits in ``seconds``, and at least ``min_rounds``.

    A host-speed probe runs before the first round and after each, and a
    round that did not probe the host itself takes its ``speed`` from the
    probes on either side of it.
    """
    rounds = []
    before = probe()
    start = perf_counter()
    last_s = 0.0
    while len(rounds) < min_rounds or perf_counter() - start + last_s <= seconds:
        began = perf_counter()
        r = workload.round(state, recorder, first + len(rounds))
        after = probe()
        last_s = perf_counter() - began
        r.traced = recorder is not None
        if r.speed is None:
            r.speed = factor(before, after)
        before = after
        rounds.append(r)
    return rounds


def setup_in_child(name: str, seed: int, quick: bool) -> tuple[float, float]:
    """One set-up in a fresh process: (wall seconds, speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "setup",
           "--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["speed"]


def layer_metrics(workload, rounds, run_rec, setup_rec, setup_s, counters) -> dict:
    """The per-layer metrics of a traced run (see README: per-layer metrics)."""
    from spans import LAYERS, ROOT_PREFIX

    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    ops = sum(r.ops for r in traced) or math.nan
    roots = [n for n in run_rec.calls if n.startswith(ROOT_PREFIX)]
    root_ns = sum(sum(run_rec.durations[n]) for n in roots)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = run_rec.calls.get(layer, 0) / ops
        metrics[f"{layer}.self_pct"] = (
            100.0 * run_rec.self_ns.get(layer, 0) / root_ns if root_ns else math.nan
        )
    for layer in SETUP_LAYERS:
        # inclusive: the set-up cost is the whole call, children included;
        # both times are wall times of the same interval, so no speed scale
        inclusive_ns = sum(setup_rec.durations.get(layer, ()))
        metrics[f"{layer}.setup_pct"] = 100.0 * inclusive_ns / (setup_s * 1e9)
    for name in ("runtime.memo", "replay.policy_memo"):
        hits, attempts = counters.get(name, (0, 0))
        metrics[f"{name}.hit_ratio"] = hits / attempts if attempts else 0.0
    metrics["trace.coverage_pct"] = 100.0 * (
        1.0 - sum(run_rec.self_ns[n] for n in roots) / root_ns
    ) if root_ns else math.nan
    untraced_rate, traced_rate = workload.rate(untraced), workload.rate(traced)
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    return metrics


def layer_table(run_rec) -> str:
    from spans import LAYERS, ROOT_PREFIX
    from workloads import nearest_rank

    names = [n for n in run_rec.calls if n.startswith(ROOT_PREFIX)] + list(LAYERS)
    lines = [f"{'span':<34} {'calls':>9} {'self_s':>9} {'p50_us':>10} {'p99_us':>10}"]
    for name in names:
        durations = run_rec.durations.get(name)
        if not durations:
            lines.append(f"{name:<34} {0:>9} {0.0:>9.3f} {'-':>10} {'-':>10}")
            continue
        lines.append(
            f"{name:<34} {run_rec.calls[name]:>9} {run_rec.self_ns[name] / 1e9:>9.3f} "
            f"{nearest_rank(durations, 0.5) / 1e3:>10.1f} "
            f"{nearest_rank(durations, 0.99) / 1e3:>10.1f}"
        )
    return "\n".join(lines)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 update_reference: bool = False, spans_path: str | None = None) -> int:
    """Run, check and report one workload; returns the exit code."""
    from spans import Recorder, install
    from workloads import SCALES, WORKLOADS, median, rss_mb

    catalogue = load_catalogue()
    workload = WORKLOADS[name]
    scale = SCALES["quick" if quick else "full"]

    setup_rec = Recorder() if trace else None

    def set_up():
        # a traced set-up includes importing every traced layer's module
        remove = install(setup_rec) if trace else None
        return workload.setup(seed, scale), remove

    (state, remove), setup_s, speed = bracketed(set_up)
    setups = [(setup_s, speed)]
    if remove:
        remove()
    if not trace:
        setups += [setup_in_child(name, seed, quick) for _ in range(workload.setup_children)]

    untraced_budget = seconds / 2 if trace else seconds
    rounds = measure(workload, state, None, untraced_budget,
                     workload.min_rounds(scale, trace), 0)
    run_rec = counters = None
    if trace:
        run_rec = Recorder()
        before = workload.counters(state)
        remove = install(run_rec)
        rounds += measure(workload, state, run_rec, seconds - untraced_budget, 1, len(rounds))
        remove()
        counters = {k: (v[0] - before[k][0], v[1] - before[k][1])
                    for k, v in workload.counters(state).items()}
    report = workload.report(state, rounds)

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds) + report.failed_ops
    problems = list(report.problems)
    ref_path = REFERENCE_DIR / f"{name}.json"
    if update_reference:
        if seed != REFERENCE_SEED:
            raise SystemExit(f"perfbench: references are pinned at seed {REFERENCE_SEED}")
        pinned = json.loads(ref_path.read_text()) if ref_path.exists() else {}
        pinned.setdefault("seed", REFERENCE_SEED)
        pinned.setdefault("digests", {})[scale.name] = report.digest
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(f"{name}: pinned {scale.name} digest {report.digest[:16]} in {ref_path.name}")
    elif seed == REFERENCE_SEED:
        expected = None
        if ref_path.exists():
            expected = json.loads(ref_path.read_text())["digests"].get(scale.name)
        if expected != report.digest:
            problems.append(f"output digest {report.digest[:16]} != reference "
                            f"{(expected or 'missing')[:16]} at seed {REFERENCE_SEED}")
            failed += report.digest_ops
    failed = min(failed, attempted)

    setups = report.setup_samples or setups
    if trace:
        metrics = layer_metrics(workload, rounds, run_rec, setup_rec, setup_s, counters)
        wanted = catalogue["per_layer"]
    else:
        metrics = dict(report.metrics)
        metrics.setdefault("setup_s", median(wall * speed for wall, speed in setups))
        metrics.setdefault("peak_rss_mb", rss_mb())
        wanted = catalogue["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(metrics) - names or (names - set(metrics) and not problems):
        raise SystemExit(f"perfbench: {name} metrics do not match {CATALOGUE.name}: "
                         f"{sorted(set(metrics) ^ names)}")
    for key in names - set(metrics):
        # no round produced it; the failed check already marks the run
        metrics[key] = math.nan

    detail = {
        "workload": name,
        "seed": seed,
        "scale": scale.name,
        "rounds": len(rounds),
        "digest": report.digest,
        "failed_fraction": failed / attempted,
        "host_speed": median(r.speed for r in rounds),
        "wall_setup_s": median(wall for wall, _ in setups),
        "setup_samples": setups,
        # per-round times for sweeps and replays (a decide run has hundreds)
        "round_seconds": [r.seconds for r in rounds] if len(rounds) <= 100 else None,
        "round_speeds": [r.speed for r in rounds] if len(rounds) <= 100 else None,
        "problems": problems,
        **report.detail,
    }
    for spec in wanted:
        print(f"{name:<14} {spec['name']:<44} {metrics[spec['name']]:>14.6g} {spec['unit']}")
    for key in ("host_speed", "wall_setup_s", *report.detail):
        print(f"{name:<14} {key:<44} {detail[key]!s:>14} (ungated)")
    print(f"{name:<14} {'failed_fraction':<44} {failed / attempted:>14.6g} ({failed}/{attempted})")
    if trace:
        print(layer_table(run_rec))
        path = Path(spans_path) if spans_path else OUT_DIR / f"spans-{name}-seed{seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "request"],
            "spans": run_rec.spans,
            "dropped": run_rec.dropped,
        }))
        print(f"{name}: {len(run_rec.spans)} spans written to {path} "
              f"({run_rec.dropped} beyond the in-memory cap not kept)")
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    print(DETAIL + json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in wanted},
    }))
    return 1 if problems else 0


# -- several runs, each in a fresh process -------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int, quick: bool,
              extra: list[str] | None = None) -> dict:
    """One run in a fresh process; its result with the ungated detail."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += (["--quick"] if quick else []) + (extra or [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    detail = {}
    for line in lines[:-1]:
        if line.startswith(DETAIL):
            detail = json.loads(line[len(DETAIL):])
        elif trace:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
            "quick": quick, "exit_code": proc.returncode, **result, "detail": detail}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def summary_table(runs: list[dict], catalogue: dict) -> str:
    if not runs:
        return ""
    specs = catalogue["per_layer" if runs[0]["trace"] else "end_to_end"]
    if runs[0]["trace"]:
        specs = [s for s in specs if s["name"].startswith("trace.")]
    columns = [(f"{s['name']} ({s['unit']})",
                lambda run, name=s["name"]: run["metrics"].get(name, {}).get("value"))
               for s in specs]
    if not runs[0]["trace"]:
        # the ungated end-to-end numbers, from each run's detail
        columns += [(f"{key} ({unit}, ungated)", lambda run, key=key: run["detail"].get(key))
                    for key, unit in (("sim_completion_p99_ms", "sim ms"),
                                      ("failed_fraction", "ratio"))]
    widths = [max(14, len(label)) for label, _ in columns]
    header = f"{'workload':<14} {'seed':>4} " + " ".join(
        f"{label:>{width}}" for (label, _), width in zip(columns, widths)
    ) + "  failed/attempted  correct"
    lines = [header]
    for run in runs:
        values = " ".join(
            f"{value if value is not None else float('nan'):>{width}.6g}"
            for value, width in zip((get(run) for _, get in columns), widths)
        )
        lines.append(f"{run['workload']:<14} {run['seed']:>4} {values}  "
                     f"{run['failed']:>7}/{run['attempted']:<8}  {run['correct']}")
    return "\n".join(lines)


def orchestrate(args, names: list[str]) -> int:
    catalogue = load_catalogue()
    runs = []
    for seed in parse_seeds(args.seed):
        for name in names:
            run = run_child(name, seed, args.seconds, args.trace, args.quick)
            print(f"[{name} seed {seed}] correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']}", file=sys.stderr)
            runs.append(run)
    print(summary_table(runs, catalogue))
    if args.output:
        Path(args.output).write_text(json.dumps(
            {"environment": environment(), "runs": runs}, indent=1) + "\n")
        print(f"wrote {args.output}")
    ok = all(r["correct"] and r["exit_code"] == 0 for r in runs)
    return 0 if ok else 1


def update_references(names: list[str]) -> int:
    code = 0
    for name in names:
        for quick in (False, True):
            run = run_child(name, REFERENCE_SEED, QUICK_SECONDS, 0, quick,
                            extra=["--update-reference"])
            print(f"{name} ({'quick' if quick else 'full'}): pinned "
                  f"{run['detail'].get('digest')}, exit code {run['exit_code']}")
            code |= run["exit_code"]
    return code


def compare_files(a: str, b: str, output: str | None) -> int:
    from compare import compare, load_runs, passed, render

    result = compare(load_runs(a), load_runs(b), load_catalogue())
    print(render(result))
    verdicts = [row["verdict"] for row in result["rows"]]
    print(f"{len(verdicts)} rows: " + ", ".join(
        f"{verdicts.count(v)} {v}" for v in ("ok", "gain", "regression", "unresolved")))
    if output:
        Path(output).write_text(json.dumps(
            {"environment": environment(), "a": Path(a).name, "b": Path(b).name, **result},
            indent=1) + "\n")
        print(f"wrote {output}")
    return 0 if passed(result) else 1


# -- entry points -----------------------------------------------------------------


def child_main(args) -> int:
    """Work a parent process delegates: a set-up sample or one suite sweep."""
    from workloads import SCALES, WORKLOADS, sweep_child

    if args.child == "sweep":
        print(json.dumps(sweep_child(bool(args.trace))))
        return 0
    scale = SCALES["quick" if args.quick else "full"]
    _, setup_s, speed = bracketed(
        lambda: WORKLOADS[args.workload].setup(parse_seeds(args.seed)[0], scale))
    print(json.dumps({"setup_s": setup_s, "speed": speed}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", default="0",
                        help="a seed, a range 0-9 or a list 0,3 (0,0,0 runs seed 0 three times)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: time every layer and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="about 1/20 length; checks on, numbers not meant for gating")
    parser.add_argument("-o", "--output", help="write every run (or the comparison) as JSON")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--update-reference", action="store_true",
                        help=f"re-pin the seed-{REFERENCE_SEED} output digests")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", choices=("setup", "sweep"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare_files(*args.compare, args.output)
    use_checkout_sources()
    if args.child:
        return child_main(args)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(load_catalogue()["run_seconds"])
    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    if args.update_reference and len(names) > 1:
        return update_references(names)
    seeds = parse_seeds(args.seed)
    if len(names) == 1 and len(seeds) == 1 and not args.output:
        return run_workload(names[0], seeds[0], args.seconds, bool(args.trace), args.quick,
                            args.update_reference, args.spans)
    return orchestrate(args, names)


def test_quick_smoke():
    """Every workload, untraced and traced, at quick length with the checks on."""
    catalogue = load_catalogue()
    for trace in (0, 1):
        wanted = {m["name"] for m in catalogue["per_layer" if trace else "end_to_end"]}
        for name in WORKLOAD_NAMES:
            run = run_child(name, REFERENCE_SEED, QUICK_SECONDS, trace, quick=True)
            assert run["exit_code"] == 0, (name, trace, run["detail"].get("problems"))
            assert run["correct"] and run["failed"] == 0, (name, trace)
            assert set(run["metrics"]) == wanted, (name, trace)


if __name__ == "__main__":
    sys.exit(main())
