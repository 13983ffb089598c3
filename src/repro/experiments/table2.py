"""Table II — CPU processor/parallel parameters of the execution model.

The parameters and where each comes from (the paper's provenance):

* CPU frequency — the machine configuration (both hosts at 3 GHz);
* TLB entries and miss penalty — the libhugetlbfs probe;
* loop overhead / schedule / synchronization / startup — EPCC
  microbenchmarks.

The experiment re-measures the measurable ones against the simulators and
prints them next to the descriptor (ground-truth) values.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calibrate import overhead_curve, probe_tlb
from ..machines import CPUDescriptor, POWER9
from ..util import render_kv, render_table

__all__ = ["Table2Result", "run_table2"]


@dataclass(frozen=True)
class Table2Result:
    cpu: CPUDescriptor
    measured_tlb_entries: int
    measured_tlb_penalty: float
    epcc_curve: tuple  # ParallelOverhead per team size

    def parameters(self) -> list[tuple[str, object]]:
        """The Table II rows."""
        return [
            ("CPU Frequency", f"{self.cpu.frequency_ghz:g} GHz"),
            ("TLB Entries", self.measured_tlb_entries),
            ("TLB Miss Penalty", f"{self.measured_tlb_penalty:g} Cycles"),
            (
                "Loop_overhead_per_iter",
                f"{self.cpu.loop_overhead_per_iter} Cycles",
            ),
            (
                "Par_Schedule_Overhead_static",
                f"{self.cpu.par_schedule_static_cycles} Cycles",
            ),
            ("Synchronization_Overhead", f"{self.cpu.sync_cycles} Cycles"),
            ("Par_Startup", f"{self.cpu.par_startup_cycles} Cycles"),
        ]

    def render(self) -> str:
        head = render_kv(
            self.parameters(),
            title=f"Table II: CPU processor/parallel parameters ({self.cpu.name})",
        )
        rows = [
            [m.num_threads, f"{m.overhead_cycles:,.0f}", f"{m.overhead_us:.1f}"]
            for m in self.epcc_curve
        ]
        curve = render_table(
            ["team size", "overhead (cycles)", "overhead (us)"],
            rows,
            title="EPCC parallel-for overhead vs team size",
        )
        return head + "\n\n" + curve


def run_table2(cpu: CPUDescriptor = POWER9) -> Table2Result:
    """Regenerate Table II by probing the simulated host."""
    tlb = probe_tlb(cpu)
    curve = tuple(overhead_curve(cpu))
    return Table2Result(
        cpu=cpu,
        measured_tlb_entries=tlb.measured_entries,
        measured_tlb_penalty=tlb.measured_miss_penalty_cycles,
        epcc_curve=curve,
    )
