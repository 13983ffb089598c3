"""Scores the offload service's per-device lanes against their serial-FIFO twins.

Checks the invariants the offload service promises (docs/ROBUSTNESS.md):

* every scenario keeps steady-state selection accuracy within the
  stored delta of its serial twin (the service may change *when*
  launches run, never *what* is selected);
* per-tenant p99 completion latency stays within the stored fairness
  ratio (max/min over tenants), uniform and skewed mixes alike;
* at least the stored number of scenarios show transfer/compute overlap
  beating the serial FIFO on the tail the scenario stresses
  (chaos-window p99 for fault storms, trace-wide p99 for bursts);
* every scenario's completion p99 is finite and both twins served the
  whole trace;
* a seeded rerun of the whole grid is byte-identical.

The thresholds live in ``benchmarks/traffic_thresholds.json`` so CI
fails on a regression without editing code.  ``python
benchmarks/bench_service.py`` runs the full grid at
``min_service_launches`` requests per scenario and writes
``BENCH_service.json``; ``--tiny`` is the 2000-request CI smoke target
(same checks, smaller trace).
"""

import json
import math
import sys
from pathlib import Path

from repro.experiments import run_service

THRESHOLDS_PATH = Path(__file__).resolve().parent / "traffic_thresholds.json"

_printed = False


def load_thresholds() -> dict:
    return json.loads(THRESHOLDS_PATH.read_text())


def check(result, thresholds: dict) -> list[str]:
    """Every threshold violation in the grid, as human-readable strings."""
    max_delta = thresholds["max_service_accuracy_delta"]
    max_fairness = thresholds["max_fairness_p99"]
    min_wins = thresholds["min_overlap_wins"]
    failures: list[str] = []
    for row in result.rows:
        s = row.score
        if not math.isfinite(s.completion_p99_s):
            failures.append(f"{row.scenario}: completion p99 not finite")
        if s.overhead_nonfinite:
            failures.append(
                f"{row.scenario}: {s.overhead_nonfinite} nonfinite "
                "dispatch-overhead observations"
            )
        if s.requests != row.legacy.requests or s.launches != row.legacy.launches:
            failures.append(
                f"{row.scenario}: twins disagree on served launches "
                f"({s.launches} vs {row.legacy.launches})"
            )
        if abs(row.accuracy_delta) > max_delta:
            failures.append(
                f"{row.scenario}: steady accuracy moved "
                f"{row.accuracy_delta:+.4f} vs the FIFO twin "
                f"(|delta| > {max_delta})"
            )
        if not (math.isfinite(s.fairness_p99) and s.fairness_p99 <= max_fairness):
            failures.append(
                f"{row.scenario}: tenant p99 fairness {s.fairness_p99:.3f} "
                f"> {max_fairness}"
            )
        if not s.tenants:
            failures.append(f"{row.scenario}: no per-tenant percentiles recorded")
    if result.overlap_wins < min_wins:
        failures.append(
            f"only {result.overlap_wins} overlap wins across the grid "
            f"(< {min_wins}): pipelining never beat the serial FIFO"
        )
    return failures


def _run():
    global _printed
    result = run_service()
    if not _printed:
        print()
        print(result.render())
        _printed = True
    return result


def test_service_regeneration(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert check(result, load_thresholds()) == []
    assert result.passed


def main(argv: list[str] | None = None) -> int:
    """Smoke entry point: full or tiny grid, no pytest-benchmark needed."""
    args = sys.argv[1:] if argv is None else argv
    thresholds = load_thresholds()
    launches = 2_000 if "--tiny" in args else thresholds["min_service_launches"]
    result = run_service(launches=launches)
    print(result.render())
    failures = check(result, thresholds)
    # determinism gate: the identical seeded invocation must serialize to
    # the exact same bytes
    rerun = run_service(launches=launches)
    first = json.dumps(result.to_payload(), sort_keys=True)
    second = json.dumps(rerun.to_payload(), sort_keys=True)
    identical = first == second
    if not identical:
        failures.append("seeded rerun is not byte-identical")
    payload = {
        **result.to_payload(),
        "thresholds": thresholds,
        "rerun_identical": identical,
    }
    out = Path("BENCH_service.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
