"""Ablation benches: what each framework ingredient contributes."""

import pytest

from repro.experiments import run_ablations


@pytest.mark.parametrize("mode", ["test", "benchmark"])
def test_ablations(benchmark, mode):
    result = benchmark.pedantic(run_ablations, args=(mode,), rounds=1, iterations=1)
    print()
    print(result.render())
    full = result.score("full")
    # the full framework must be a usable selector
    assert full.decision_accuracy >= 0.6
    assert full.geomean_speedup > 1.0
    # dropping the microbenchmark calibration hurts the test-mode selector
    if mode == "test":
        nocal = result.score("no-calibration")
        assert nocal.geomean_speedup <= full.geomean_speedup + 1e-9
    # every variant stays within the oracle bound implicitly (>0) and
    # produces a sane accuracy
    for s in result.scores:
        assert 0.0 <= s.decision_accuracy <= 1.0
        assert s.geomean_speedup > 0.5
