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

``repro-paper faults`` prints the same grid and exits 1 on a failed
check — the CI smoke target.
"""

from repro.experiments import run_faults


def test_faults_regeneration(benchmark):
    result = benchmark.pedantic(run_faults, rounds=1, iterations=1)
    print()
    print(result.render())
    assert not result.failures
