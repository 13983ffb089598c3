"""Scores the drift sentinel across the calibration-skew scenario grid.

The checks are the grid's own, ``DriftResult.failures`` (thresholds
beside them in ``repro/experiments/drift.py``, docs/ROBUSTNESS.md): the
zero-skew control stays bit-identical and never drifts, every skew is
detected within :data:`MAX_DETECTION_LATENCY` launches and healed to
within :data:`MAX_RECOVERY_GAP` of the unskewed baseline, and the
transient skew is re-promoted to CALIBRATED after it ends.

``repro-paper drift --launches 72 --start 18`` runs a reduced grid and
exits 1 on a failed check — the CI smoke target; with ``--format json``
it prints the payload, both thresholds included.
"""

from repro.experiments import run_drift


def test_drift_regeneration(benchmark):
    result = benchmark.pedantic(run_drift, rounds=1, iterations=1)
    print()
    print(result.render())
    assert not result.failures
