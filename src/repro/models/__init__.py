"""Analytical performance models (the paper's core contribution).

* :mod:`.cpu_model` — Liao & Chapman OpenMP cost model (Figure 3/Table II)
  with MCA-derived ``Machine_cycles_per_iter``;
* :mod:`.gpu_model` — Hong & Kim MWP/CWP model (Figures 4-5) extended with
  ``#OMP_Rep`` and IPDA coalescing;
* :mod:`.transfer` — interconnect cost;
* :mod:`.selector` — the combined lowest-predicted-time decision.
"""

from .transfer import TransferEstimate, estimate_transfer
from .cpu_model import CPUPrediction, predict_cpu_time
from .gpu_model import (
    DEPARTURE_DELAY_COAL,
    DEPARTURE_DELAY_UNCOAL,
    GPUPrediction,
    MWPCWPInputs,
    MWPCWPResult,
    mwp_cwp,
    predict_gpu_time,
)
from .selector import CalibrationLike, SelectionPrediction, predict_both
from .._lazy import lazy_exports

#: loaded on first use: only the split-execution extension predicts a split
_LAZY = {"split": ("SplitPrediction", "predict_split")}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "TransferEstimate",
        "estimate_transfer",
        "CPUPrediction",
        "predict_cpu_time",
        "DEPARTURE_DELAY_COAL",
        "DEPARTURE_DELAY_UNCOAL",
        "GPUPrediction",
        "MWPCWPInputs",
        "MWPCWPResult",
        "mwp_cwp",
        "predict_gpu_time",
        "CalibrationLike",
        "SelectionPrediction",
        "predict_both",
    ),
)
