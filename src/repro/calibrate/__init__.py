"""Microbenchmark calibration of model parameters.

The paper obtains its model constants from microbenchmarks: EPCC for the
OpenMP overheads (Table II), libhugetlbfs for the TLB penalty, Zhe Jia's
probes for the V100 latencies (Table III).  This package reproduces that
methodology against our simulated "hardware": probe kernels are run on the
simulators and model constants are fit from the measurements.
"""

from .kernels import (
    build_dot_rows,
    build_empty_body,
    build_strided_walk,
    build_triad,
)
from .model_fit import ModelCalibration, fit_model_calibration
from .._lazy import lazy_exports

#: the three probes, loaded on first use: only the probe commands,
#: Tables II-III and the summary run them
_LAZY = {
    "epcc": ("ParallelOverhead", "measure_parallel_overhead", "overhead_curve"),
    "tlb": ("TLBProbeResult", "probe_tlb", "simulate_page_walk"),
    "gpu_microbench": ("GPULatencyProbe", "chase_latency", "probe_gpu_latencies"),
}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "build_dot_rows",
        "build_empty_body",
        "build_strided_walk",
        "build_triad",
        "ModelCalibration",
        "fit_model_calibration",
    ),
)
