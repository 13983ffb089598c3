"""Regenerates Figure 6: actual vs predicted speedup, test mode, 4 threads."""

from repro.experiments import run_figure6


def test_figure6_regeneration(benchmark):
    result = benchmark.pedantic(run_figure6, rounds=1, iterations=1)
    print()
    print(result.render())
    assert len(result.rows) == 24
    # the predictor must order kernels correctly (shape fidelity)
    assert result.rank_correlation_proxy > 0.8
    # and make the overwhelming majority of decisions correctly
    assert result.decision_accuracy >= 0.8
    # matmuls vs a 4-thread host: GPU wins big, and the model knows it
    rows = {r.kernel: r for r in result.rows}
    assert rows["gemm"].true_speedup > 10
    assert rows["gemm"].predicted_speedup > 10
