"""Scores the offload service's per-device lanes against their serial-FIFO twins.

The checks are the grid's own, ``ServiceResult.failures`` (thresholds
beside them in ``repro/experiments/service.py``, docs/ROBUSTNESS.md):
steady accuracy stays with the serial twin, per-tenant percentiles are
recorded and fair, both twins serve the whole trace, and pipelining
beats the serial FIFO on at least the stored number of stressed tails.
On top, a seeded rerun of the whole grid must be byte-identical.

``python benchmarks/bench_service.py`` runs the full grid at
:data:`MIN_SERVICE_LAUNCHES` requests per scenario and writes
``BENCH_service.json``; ``--tiny`` is the 2000-request CI smoke target
(same checks, smaller trace).
"""

import sys

from bench_replay import traffic_main

from repro.experiments import run_service
from repro.experiments.service import (
    MAX_FAIRNESS_P99,
    MAX_SERVICE_ACCURACY_DELTA,
    MIN_OVERLAP_WINS,
)

#: requests per scenario of the full (not --tiny) run
MIN_SERVICE_LAUNCHES = 20_000


def test_service_regeneration(benchmark):
    result = benchmark.pedantic(run_service, rounds=1, iterations=1)
    print()
    print(result.render())
    assert not result.failures


def main(argv: list[str] | None = None) -> int:
    thresholds = {
        "max_service_accuracy_delta": MAX_SERVICE_ACCURACY_DELTA,
        "max_fairness_p99": MAX_FAIRNESS_P99,
        "min_overlap_wins": MIN_OVERLAP_WINS,
        "min_service_launches": MIN_SERVICE_LAUNCHES,
    }
    return traffic_main(
        run_service, MIN_SERVICE_LAUNCHES, "BENCH_service.json", thresholds, argv
    )


if __name__ == "__main__":
    sys.exit(main())
