"""Scores the drift sentinel across the calibration-skew scenario grid.

The checks are the grid's own, ``DriftResult.failures`` (thresholds
beside them in ``repro/experiments/drift.py``, docs/ROBUSTNESS.md): the
zero-skew control stays bit-identical and never drifts, every skew is
detected within :data:`MAX_DETECTION_LATENCY` launches and healed to
within :data:`MAX_RECOVERY_GAP` of the unskewed baseline, and the
transient skew is re-promoted to CALIBRATED after it ends.

``python benchmarks/bench_drift.py --tiny`` runs a reduced grid without
pytest — the CI smoke target — and writes the ``BENCH_drift.json``
summary next to the working directory.
"""

import json
import sys
from pathlib import Path

from repro.experiments import run_drift
from repro.experiments.drift import MAX_DETECTION_LATENCY, MAX_RECOVERY_GAP

_printed = False


def _run():
    global _printed
    result = run_drift()
    if not _printed:
        print()
        print(result.render())
        _printed = True
    return result


def test_drift_regeneration(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert not result.failures


def main(argv: list[str] | None = None) -> int:
    """Smoke entry point: reduced grid, no pytest-benchmark needed."""
    args = sys.argv[1:] if argv is None else argv
    launches, start = (72, 18) if "--tiny" in args else (96, 24)
    result = run_drift(launches=launches, start=start)
    print(result.render())
    thresholds = {
        "max_detection_latency": MAX_DETECTION_LATENCY,
        "max_recovery_gap": MAX_RECOVERY_GAP,
    }
    payload = {**result.to_payload(), "thresholds": thresholds}
    out = Path("BENCH_drift.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    for failure in result.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
