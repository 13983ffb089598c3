"""The live claim scorecard: every shape-level paper claim must hold."""

from repro.experiments import run_summary


def test_summary_scorecard(benchmark):
    result = benchmark.pedantic(run_summary, rounds=1, iterations=1)
    print()
    print(result.render())
    assert len(result.claims) >= 9
    assert not result.failures
