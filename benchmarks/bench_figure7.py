"""Regenerates Figure 7: actual vs predicted speedup, benchmark mode, 4 threads."""

from repro.experiments import run_figure7


def test_figure7_regeneration(benchmark):
    result = benchmark.pedantic(run_figure7, rounds=1, iterations=1)
    print()
    print(result.render())
    assert len(result.rows) == 24
    assert result.rank_correlation_proxy > 0.8
    assert result.decision_accuracy >= 0.8
    # transfer-heavy matvec kernels sit near the decision boundary
    rows = {r.kernel: r for r in result.rows}
    assert rows["mvt_k1"].true_speedup < 2.0
