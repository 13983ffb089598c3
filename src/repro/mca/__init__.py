"""MCA substrate: an LLVM-MCA-style static machine-code analyzer.

Provides the Liao model's ``Machine_cycles_per_iter`` (Section IV.A.1) by
lowering a parallel loop body to machine ops and measuring steady-state
cycles per iteration on a port/latency scoreboard, replacing the OpenUH
inner-scheduler dependency the paper calls out.
"""

from .ops import MachineOp, OPCODE_PORT, UNPIPELINED, vector_opcode
from .scheduler import ScheduleResult, schedule_ops, steady_state_cycles, unroll
from .lowering import (
    LoopInfo,
    LoweredLevel,
    find_band_level,
    level_cycles_per_iteration,
    lower_region,
    machine_cycles_per_iter,
    vectorized_access_indices,
)
from .._lazy import lazy_exports

#: loaded on first use: the models and simulators need neither
_LAZY = {
    "report": ("MCAReport", "analyze_region"),
    "timeline": ("render_timeline",),
}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "MachineOp",
        "OPCODE_PORT",
        "UNPIPELINED",
        "vector_opcode",
        "ScheduleResult",
        "schedule_ops",
        "steady_state_cycles",
        "unroll",
        "LoopInfo",
        "LoweredLevel",
        "find_band_level",
        "level_cycles_per_iteration",
        "lower_region",
        "machine_cycles_per_iter",
        "vectorized_access_indices",
    ),
)
