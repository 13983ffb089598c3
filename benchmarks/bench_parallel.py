"""Scores the parallel sweep engine and the persistent analysis cache.

Times the full suite sweep (both platforms, both dataset modes, measure +
predict) four ways — sequential, ``--jobs 2``, ``--jobs 4``, and
cold-vs-warm persistent cache — and writes the ``BENCH_parallel.json``
summary.  The headline invariant: a warm-cache sweep must be at least
``min_warm_speedup`` (2x) faster than the cold-cache sweep.  The
speedup comes from the only two kinds the cache holds, ``sim.measure``
and ``model.predict``, which replay whole cases from disk; the static
analyses run once per region on the compiled record and are not
cached.

``python benchmarks/bench_parallel.py --tiny`` runs a reduced grid (one
platform, test datasets) without enforcing the warm-cache floor — the
CI smoke target; the full run enforces it and exits 1 on a regression.

The parallel arms must be bit-identical to the sequential sweep; their
speedups are reported, not gated.  Each parallel arm computes its
sweep: without an active cache its workers run uncached, as the
sequential arm does.  Each run also carries forward the previous
``BENCH_parallel.json``'s ``parallel_speedup`` figures (as
``previous_parallel_speedup``) when that run swept the same grid on the
same host (the payload's ``host``: node name, CPU count and Python
version): on the full grid, a decline of more than
:data:`MAX_SPEEDUP_DECLINE` (10%) against the carried figure is a
failure; smaller declines — and any decline on the load-sensitive tiny
grid — stay warnings.

The pytest entry points double as the differential harness under the
benchmark runner: the parallel sweep must be bit-identical to the
sequential one.
"""

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.common import clear_caches, measure_suite, predict_suite
from repro.parallel import AnalysisCache

MIN_WARM_SPEEDUP = 2.0
MAX_SPEEDUP_DECLINE = 0.10  # tolerated drop vs the carried speedup (full grid)

FULL_GRID = [("p8-k80", "test"), ("p8-k80", "benchmark"),
             ("p9-v100", "test"), ("p9-v100", "benchmark")]
TINY_GRID = [("p9-v100", "test")]


def run_sweep(grid, jobs=None):
    """One full sweep over the grid; returns a canonical result listing."""
    rows = []
    for plat, mode in grid:
        for m in measure_suite(plat, mode, jobs=jobs):
            rows.append([
                plat, mode, m.case.name,
                m.cpu_seconds, m.gpu_kernel_seconds, m.gpu_transfer_seconds,
            ])
        for p in predict_suite(plat, mode, jobs=jobs):
            rows.append([plat, mode, p.cpu.seconds, p.gpu.seconds, p.winner])
    return rows


def this_host() -> dict:
    """The machine a run times: speedups from another one do not compare."""
    return {
        "node": platform.node(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def timed_sweep(grid, jobs=None, cache_dir=None):
    """(seconds, rows) for a from-scratch sweep, optionally cached.

    ``clear_caches(persistent=False)`` drops the in-process memos but
    leaves the worker pools warm — the steady-state configuration the
    parallel arms are meant to time (the first parallel arm still pays
    its own pool spin-up).
    """
    clear_caches(persistent=False)
    start = time.perf_counter()
    if cache_dir:
        with AnalysisCache(cache_dir).activate():
            rows = run_sweep(grid, jobs=jobs)
    else:
        rows = run_sweep(grid, jobs=jobs)
    return time.perf_counter() - start, rows


def score(grid):
    """Time every arm; returns (payload, failures)."""
    base_s, base_rows = timed_sweep(grid)
    arms = {"sequential": base_s}
    failures = []
    for jobs in (2, 4):
        par_s, par_rows = timed_sweep(grid, jobs=jobs)
        arms[f"jobs{jobs}"] = par_s
        if par_rows != base_rows:
            failures.append(f"jobs={jobs} sweep not bit-identical")
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_s, cold_rows = timed_sweep(grid, cache_dir=cache_dir)
        warm_s, warm_rows = timed_sweep(grid, cache_dir=cache_dir)
        stats = AnalysisCache(cache_dir).stats()
        stats["cache_dir"] = "<tmp>"
    arms["cold_cache"] = cold_s
    arms["warm_cache"] = warm_s
    if cold_rows != base_rows:
        failures.append("cold-cache sweep not bit-identical")
    if warm_rows != base_rows:
        failures.append("warm-cache sweep not bit-identical")
    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    payload = {
        "grid": [list(g) for g in grid],
        "host": this_host(),
        "seconds": {k: round(v, 4) for k, v in sorted(arms.items())},
        "warm_speedup": round(warm_speedup, 2),
        "parallel_speedup": {
            "jobs2": round(base_s / arms["jobs2"], 2),
            "jobs4": round(base_s / arms["jobs4"], 2),
        },
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "cache_entries": stats["entries"],
        "rows": len(base_rows),
    }
    return payload, failures, warm_speedup


def test_parallel_differential(benchmark):
    """Parallel sweep == sequential sweep, timed under pytest-benchmark."""
    clear_caches(persistent=False)
    base = run_sweep(TINY_GRID)
    clear_caches(persistent=False)
    rows = benchmark.pedantic(
        run_sweep, args=(TINY_GRID,), kwargs={"jobs": 2},
        rounds=1, iterations=1,
    )
    assert rows == base


def test_warm_cache_differential(benchmark):
    """Warm-cache sweep == uncached sweep, and hits dominate."""
    clear_caches(persistent=False)
    base = run_sweep(TINY_GRID)
    with tempfile.TemporaryDirectory() as cache_dir:
        clear_caches(persistent=False)
        with AnalysisCache(cache_dir).activate():
            run_sweep(TINY_GRID)  # populate
        clear_caches(persistent=False)
        warm = AnalysisCache(cache_dir)
        with warm.activate():
            rows = benchmark.pedantic(
                run_sweep, args=(TINY_GRID,), rounds=1, iterations=1
            )
        assert rows == base
        assert warm.hits > 0 and warm.misses == 0


def previous_speedups(path: Path, grid, host: dict) -> dict | None:
    """The prior run's ``parallel_speedup`` map, if one is on disk.

    Only a prior run over the same ``grid`` on the same ``host`` counts:
    a tiny-grid figure says nothing about a full-grid run, nor one
    machine's about another's.  A file that names no host is not carried.
    """
    if not path.exists():
        return None
    try:
        prior = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    if (
        not isinstance(prior, dict)
        or prior.get("grid") != [list(g) for g in grid]
        or prior.get("host") != host
    ):
        return None
    speedups = prior.get("parallel_speedup")
    return speedups if isinstance(speedups, dict) else None


def test_previous_speedups_need_the_same_grid(tmp_path):
    """A tiny-grid run's figures are carried into a tiny run only."""
    path = tmp_path / "BENCH_parallel.json"
    speedups = {"jobs2": 0.6, "jobs4": 1.3}
    path.write_text(json.dumps({
        "grid": [list(g) for g in TINY_GRID], "host": this_host(),
        "parallel_speedup": speedups,
    }))
    assert previous_speedups(path, FULL_GRID, this_host()) is None
    assert previous_speedups(path, TINY_GRID, this_host()) == speedups


def test_previous_speedups_need_the_same_host(tmp_path):
    """Another host's figures, or a file naming no host, are not carried."""
    path = tmp_path / "BENCH_parallel.json"
    prior = {"grid": [list(g) for g in TINY_GRID], "parallel_speedup": {"jobs2": 0.6}}
    path.write_text(json.dumps(prior))
    assert previous_speedups(path, TINY_GRID, this_host()) is None
    other = {**this_host(), "node": this_host()["node"] + "-other"}
    path.write_text(json.dumps({**prior, "host": other}))
    assert previous_speedups(path, TINY_GRID, this_host()) is None


def speedup_regressions(
    current: dict, previous: dict | None, tolerance: float = 0.0
) -> list[str]:
    """Per-jobs arms whose speedup declined vs the previous run.

    ``tolerance`` is the tolerated fractional drop: 0.0 flags any
    decline (the warning tripwire), :data:`MAX_SPEEDUP_DECLINE` flags
    only declines past the hard-gate threshold.
    """
    if previous is None:
        return []
    return [
        f"{arm} parallel speedup declined {previous[arm]:.2f}x -> "
        f"{current[arm]:.2f}x vs previous run"
        for arm in sorted(current)
        if isinstance(previous.get(arm), (int, float))
        and current[arm] < previous[arm] * (1.0 - tolerance)
    ]


def main(argv: list[str] | None = None) -> int:
    """Smoke entry point: no pytest-benchmark needed."""
    args = sys.argv[1:] if argv is None else argv
    tiny = "--tiny" in args
    grid = TINY_GRID if tiny else FULL_GRID
    payload, failures, warm_speedup = score(grid)
    if not tiny and warm_speedup < MIN_WARM_SPEEDUP:
        failures.append(
            f"warm cache speedup {warm_speedup:.2f}x < {MIN_WARM_SPEEDUP}x"
        )
    out = Path("BENCH_parallel.json")
    previous = previous_speedups(out, grid, payload["host"])
    payload["previous_parallel_speedup"] = previous
    declined = speedup_regressions(payload["parallel_speedup"], previous)
    hard = (
        []
        if tiny  # the tiny grid is too load-sensitive to hard-gate declines
        else speedup_regressions(
            payload["parallel_speedup"], previous, MAX_SPEEDUP_DECLINE
        )
    )
    failures.extend(hard)
    for warning in declined:
        if warning not in hard:
            print(f"WARNING: {warning}", file=sys.stderr)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
