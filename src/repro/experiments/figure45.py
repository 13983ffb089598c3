"""Figures 4 and 5 — the Hong & Kim MWP/CWP machinery.

The paper reproduces the model equations; the runnable artefact is a
regime sweep: for a memory-heavy and a compute-heavy synthetic workload,
vary the number of active warps per SM (N) and record MWP, CWP, the
selected Figure-4 case and the execution-cycle estimate — exposing the
memory-bound → balanced → compute-bound transitions, plus the ``#OMP_Rep``
multiplier the paper adds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import GPUDescriptor, TESLA_V100
from ..models import MWPCWPInputs, mwp_cwp
from ..util import render_table

__all__ = ["RegimePoint", "Figure45Result", "run_figure45"]


@dataclass(frozen=True)
class RegimePoint:
    n_warps: int
    mwp: float
    cwp: float
    case: str
    exec_cycles: float


@dataclass(frozen=True)
class Figure45Result:
    gpu_name: str
    memory_heavy: tuple[RegimePoint, ...]
    compute_heavy: tuple[RegimePoint, ...]

    def cases_seen(self) -> set[str]:
        return {p.case for p in self.memory_heavy + self.compute_heavy}

    def render(self) -> str:
        def table(points, title):
            rows = [
                [p.n_warps, f"{p.mwp:.1f}", f"{p.cwp:.1f}", p.case, f"{p.exec_cycles:,.0f}"]
                for p in points
            ]
            return render_table(
                ["N (warps/SM)", "MWP", "CWP", "Figure-4 case", "exec cycles"],
                rows,
                title=title,
            )

        return (
            table(
                self.memory_heavy,
                f"Figures 4+5: MWP/CWP sweep, memory-heavy kernel ({self.gpu_name})",
            )
            + "\n\n"
            + table(
                self.compute_heavy,
                f"Figures 4+5: MWP/CWP sweep, compute-heavy kernel ({self.gpu_name})",
            )
        )


def _sweep(
    gpu: GPUDescriptor,
    *,
    comp_cycles: float,
    mem_insts: float,
    mem_latency: float,
    n_values: tuple[int, ...],
) -> tuple[RegimePoint, ...]:
    points = []
    for n in n_values:
        inputs = MWPCWPInputs(
            n_active_warps=float(n),
            mem_latency=mem_latency,
            departure_delay=4.0,
            mem_cycles=mem_latency * mem_insts,
            comp_cycles=comp_cycles,
            mem_insts=mem_insts,
            load_bytes_per_warp=128.0,
            active_sms=gpu.num_sms,
        )
        res = mwp_cwp(inputs, gpu)
        points.append(
            RegimePoint(
                n_warps=n,
                mwp=res.mwp,
                cwp=res.cwp,
                case=res.case,
                exec_cycles=res.exec_cycles_one_wave,
            )
        )
    return tuple(points)


def run_figure45(gpu: GPUDescriptor = TESLA_V100) -> Figure45Result:
    """Sweep occupancy for the two canonical workload shapes."""
    n_values = (1, 2, 4, 8, 16, 32, 64)
    memory_heavy = _sweep(
        gpu,
        comp_cycles=2_000.0,
        mem_insts=1_000.0,
        mem_latency=float(gpu.mem_latency),
        n_values=n_values,
    )
    compute_heavy = _sweep(
        gpu,
        comp_cycles=200_000.0,
        mem_insts=50.0,
        mem_latency=float(gpu.l2_latency),
        n_values=n_values,
    )
    return Figure45Result(
        gpu_name=gpu.name,
        memory_heavy=memory_heavy,
        compute_heavy=compute_heavy,
    )
