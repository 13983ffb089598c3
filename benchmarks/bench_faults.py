"""Scores every policy under the injected-fault scenario grid.

The checks are the grid's own, ``FaultsResult.failures`` (thresholds
beside them in ``repro/experiments/faults.py``, docs/ROBUSTNESS.md):

* fault-free runs suffer zero faults, retries and fallbacks;
* under the dead-GPU scenario every launch still completes (via host
  fallback) at a cost within a retry-overhead hair of always-cpu, and
  the circuit breaker ends away from CLOSED;
* under flaky transfers the health-aware model-guided selector stays at
  the degraded-oracle optimum while blind always-gpu pays for retries;
* the OOM-prone scenario's footprint trigger forces fallbacks.

``python benchmarks/bench_faults.py --tiny`` runs a reduced grid without
pytest — the CI smoke target.
"""

import sys

from repro.experiments import run_faults

_printed = False


def _run():
    global _printed
    result = run_faults()
    if not _printed:
        print()
        print(result.render())
        _printed = True
    return result


def test_faults_regeneration(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert not result.failures


def main(argv: list[str] | None = None) -> int:
    """Smoke entry point: tiny grid, no pytest-benchmark needed."""
    args = sys.argv[1:] if argv is None else argv
    result = run_faults(launches=4 if "--tiny" in args else 12)
    print(result.render())
    for failure in result.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
