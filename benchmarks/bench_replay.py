"""Scores the traffic-replay chaos grid at production scale.

The checks are the grid's own, ``ReplayResult.failures`` (thresholds
beside them in ``repro/experiments/replay.py``, docs/ROBUSTNESS.md):
chaos scenarios keep steady-state accuracy, detect and recover each
window in time; dispatch-overhead and completion tails stay finite;
overload scenarios keep the queue bounded while visibly shedding; the
hedged-chaos arm wins and cuts the chaos p99 under bounded duplicated
work.  On top, a seeded rerun of the whole grid must be byte-identical.

``python benchmarks/bench_replay.py`` runs the full grid at
:data:`MIN_LAUNCHES` requests per scenario and writes
``BENCH_traffic.json``; ``--tiny`` is the 2000-request CI smoke target
(same checks, smaller trace).  :func:`traffic_main` is also the entry
point of ``bench_service.py``.
"""

import json
import sys
from pathlib import Path

from repro.experiments import run_replay
from repro.experiments.replay import (
    MAX_ACCURACY_DROP,
    MAX_HEDGE_EXTRA_FRACTION,
    MAX_TTD_FRACTION,
    MAX_TTR_S,
    MIN_HEDGE_WINS,
)

#: requests per scenario of the full (not --tiny) run
MIN_LAUNCHES = 100_000


def test_replay_regeneration(benchmark):
    result = benchmark.pedantic(run_replay, rounds=1, iterations=1)
    print()
    print(result.render())
    assert not result.failures


def traffic_main(run, launches: int, out: str, thresholds: dict, argv) -> int:
    """Smoke entry point of a traffic grid, no pytest-benchmark needed.

    Runs ``run`` at ``launches`` requests (2000 with ``--tiny``) twice,
    writes ``out`` with the payload, ``thresholds`` and the rerun
    verdict, and lists every failure on stderr; exit 1 on any.
    """
    args = sys.argv[1:] if argv is None else argv
    launches = 2_000 if "--tiny" in args else launches
    result = run(launches=launches)
    print(result.render())
    failures = list(result.failures)
    # determinism gate: the identical seeded invocation must serialize to
    # the exact same bytes
    first = json.dumps(result.to_payload(), sort_keys=True)
    identical = first == json.dumps(run(launches=launches).to_payload(), sort_keys=True)
    if not identical:
        failures.append("seeded rerun is not byte-identical")
    payload = {
        **result.to_payload(),
        "thresholds": thresholds,
        "rerun_identical": identical,
    }
    Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    thresholds = {
        "max_accuracy_drop": MAX_ACCURACY_DROP,
        "max_ttd_fraction": MAX_TTD_FRACTION,
        "max_ttr_s": MAX_TTR_S,
        "max_hedge_extra_fraction": MAX_HEDGE_EXTRA_FRACTION,
        "min_hedge_wins": MIN_HEDGE_WINS,
        "min_launches": MIN_LAUNCHES,
    }
    return traffic_main(run_replay, MIN_LAUNCHES, "BENCH_traffic.json", thresholds, argv)


if __name__ == "__main__":
    sys.exit(main())
