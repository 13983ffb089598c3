"""Scores declared vs dataflow-inferred transfer sizing (docs/LINT.md).

The checks are the report's own, ``TransfersResult.failures``:

* the clean Polybench suite keeps byte-identical sizing and identical
  selector decisions under ``inferred_transfers=True``;
* every over-mapped scenario tightens (never widens) both directions;
* the defensively mapped vecadd recovers its copy-in (MAP002), and the
  dead debug buffer (MAP004) flips the selector decision onto the true
  oracle target while recovering real transfer seconds.

``repro-paper transfers`` prints the same report and exits 1 on a failed
check — the CI smoke target.
"""

from repro.experiments import run_transfers


def test_transfers_regeneration(benchmark):
    result = benchmark.pedantic(run_transfers, rounds=1, iterations=1)
    print()
    print(result.render())
    assert not result.failures
