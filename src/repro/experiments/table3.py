"""Table III — GPU device/bus parameters of the execution model.

Prints the V100 parameter set the model consumes (the paper's sources:
CUDA API queries, vendor manuals, Zhe Jia's microbenchmark report), with
the latency entries re-measured by the Jia-style pointer-chase probe
against the simulated device.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calibrate import probe_gpu_latencies
from ..machines import GPUDescriptor, InterconnectDescriptor, NVLINK2, TESLA_V100
from ..util import render_kv

__all__ = ["Table3Result", "run_table3"]


@dataclass(frozen=True)
class Table3Result:
    gpu: GPUDescriptor
    bus: InterconnectDescriptor
    measured_l1: float
    measured_l2: float
    measured_dram: float

    def parameters(self) -> list[tuple[str, object]]:
        g = self.gpu
        return [
            ("#SMs", g.num_sms),
            ("Processor Cores", g.total_cores),
            ("Processor Clock", f"{g.clock_ghz * 1000:.0f} MHz"),
            ("Memory Size", f"{g.mem_size_gib:g} GiB"),
            ("Memory Bandwidth", f"{g.mem_bandwidth_gbs:g} GB/s"),
            (
                f"{self.bus.name} Transfer Rate",
                f"{self.bus.bandwidth_gbs:g} GB/s",
            ),
            ("Max Warps/SM", g.max_warps_per_sm),
            ("Max Threads/SM", g.max_threads_per_sm),
            ("Issue Rate", f"{g.issue_rate}/scheduler x {g.warp_schedulers_per_sm}"),
            ("Int Cmpu Inst. Latency", f"{g.int_latency} Cycles"),
            ("Float Cmpu Inst. Latency", f"{g.fp_latency} Cycles"),
            ("Memory Access Latency", f"{self.measured_dram:g} Cycles"),
            ("Access on TLB Hit", f"{g.tlb_hit_latency} Cycles"),
            ("Access on L2 Hit", f"{self.measured_l2:g} Cycles"),
            ("Access on L1 Hit", f"{self.measured_l1:g} Cycles"),
        ]

    def render(self) -> str:
        return render_kv(
            self.parameters(),
            title=f"Table III: GPU device/bus parameters ({self.gpu.name})",
        )


def run_table3(
    gpu: GPUDescriptor = TESLA_V100,
    bus: InterconnectDescriptor = NVLINK2,
) -> Table3Result:
    """Regenerate Table III, re-measuring latencies with the chase probe."""
    probe = probe_gpu_latencies(gpu)
    return Table3Result(
        gpu=gpu,
        bus=bus,
        measured_l1=probe.l1_latency,
        measured_l2=probe.l2_latency,
        measured_dram=probe.dram_latency,
    )
