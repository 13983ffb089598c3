"""Scores declared vs dataflow-inferred transfer sizing (docs/LINT.md).

The checks are the report's own, ``TransfersResult.failures``:

* the clean Polybench suite keeps byte-identical sizing and identical
  selector decisions under ``inferred_transfers=True``;
* every over-mapped scenario tightens (never widens) both directions;
* the defensively mapped vecadd recovers its copy-in (MAP002), and the
  dead debug buffer (MAP004) flips the selector decision onto the true
  oracle target while recovering real transfer seconds.

``python benchmarks/bench_transfers.py`` prints the report without
pytest — the CI smoke target.
"""

import sys

from repro.experiments import run_transfers

_printed = False


def _run():
    global _printed
    result = run_transfers()
    if not _printed:
        print()
        print(result.render())
        _printed = True
    return result


def test_transfers_regeneration(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert not result.failures


if __name__ == "__main__":
    result = _run()
    for failure in result.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"\nself-check: {'FAIL' if result.failures else 'PASS'}")
    sys.exit(1 if result.failures else 0)
