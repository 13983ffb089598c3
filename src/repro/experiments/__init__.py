"""Experiment harness: one module per paper table/figure.

Each ``run_*`` function returns a result object with a ``render()`` method
producing the paper-style text artefact; the ``benchmarks/`` directory
wraps these in pytest-benchmark targets.

Every name is imported on first use, so a suite sweep
(``from repro.experiments import measure_suite, predict_suite``) loads
:mod:`.common` alone, not the traffic replays and probes the other
experiments need.
"""

from .._lazy import lazy_exports

#: public names by defining submodule, loaded on first use
_LAZY = {
    "common": ("KernelMeasurement", "clear_caches", "measure_suite", "predict_suite"),
    "table1": ("Table1Result", "Table1Row", "run_table1"),
    "table2": ("Table2Result", "run_table2"),
    "table3": ("Table3Result", "run_table3"),
    "figure3": ("Figure3Result", "run_figure3"),
    "faults": ("FaultScore", "FaultsResult", "run_faults"),
    "replay": ("REPLAY_SCENARIOS", "ReplayResult", "ReplayRow", "run_replay"),
    "service": ("SERVICE_SCENARIOS", "ServiceResult", "ServiceRow", "run_service"),
    "hedge": ("BUDGET_FACTORS", "HEDGE_FLAVOURS", "HedgeCell", "HedgeResult", "run_hedge"),
    "trace": ("TraceResult", "run_trace"),
    "transfers": ("ScenarioOutcome", "SuiteTransferRow", "TransfersResult", "run_transfers"),
    "drift": ("DriftResult", "DriftScore", "SkewScenario", "default_scenarios", "run_drift"),
    "figure45": ("Figure45Result", "RegimePoint", "run_figure45"),
    "figure67": ("Figure67Result", "PredictionRow", "run_figure6", "run_figure7"),
    "figure8": ("Figure8Result", "Figure8Row", "run_figure8"),
    "ablations": ("AblationResult", "AblationScore", "run_ablations"),
    "summary": ("Claim", "SummaryResult", "run_summary"),
    "crossgen": ("CrossGenResult", "GENERATIONS", "run_crossgen"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _LAZY)
