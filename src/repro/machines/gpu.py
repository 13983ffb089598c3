"""GPU machine descriptors.

A :class:`GPUDescriptor` supplies the Hong & Kim model parameters (Table III)
and everything the warp-level timing simulator needs.  Values for the V100
follow the paper's Table III sources — CUDA API queries, vendor manuals and
Zhe Jia's micro-architectural report; the K80 (Kepler) entry uses the specs
the paper quotes in Section III (480 GB/s peak bandwidth) plus published
Kepler latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUDescriptor", "TESLA_K80", "TESLA_P100", "TESLA_V100"]


@dataclass(frozen=True)
class GPUDescriptor:
    """Parameters of a CUDA-class SIMT accelerator."""

    name: str
    arch: str  # "kepler" | "pascal" | "volta"
    num_sms: int
    cores_per_sm: int
    clock_ghz: float  # processor (SM) clock
    mem_size_gib: float
    mem_bandwidth_gbs: float  # peak DRAM bandwidth
    max_warps_per_sm: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    # issue machinery
    warp_schedulers_per_sm: int
    issue_rate: int  # instructions issued per scheduler per cycle
    # latencies (cycles)
    int_latency: int
    fp_latency: int
    sfu_latency: int  # div/sqrt/exp special-function path
    mem_latency: int  # DRAM access (the Hong model's Mem_L for uncoalesced)
    tlb_hit_latency: int
    l2_latency: int
    l1_latency: int
    # memory system
    l1_kib_per_sm: int
    l2_kib: int
    l2_bandwidth_gbs: float  # aggregate L2→SM bandwidth
    sector_bytes: int  # memory transaction granularity
    dram_burst_bytes: int
    # kernel machinery
    launch_overhead_us: float
    #: Latency of a global atomic combine (reduction tails).
    atomic_cycles: int = 60
    warp_size: int = 32

    def __post_init__(self):
        if self.num_sms <= 0 or self.cores_per_sm <= 0:
            raise ValueError("SM geometry must be positive")
        if self.warp_size != 32:
            raise ValueError("only 32-wide warps are modelled")

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def peak_gflops_fp32(self) -> float:
        """Peak single-precision GFLOP/s (2 flops/FMA per core per cycle)."""
        return self.total_cores * self.clock_ghz * 2.0

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.clock_ghz * 1e9)

    def warps_per_block(self, threads_per_block: int) -> int:
        return -(-threads_per_block // self.warp_size)


#: NVIDIA Tesla K80 (Kepler GK210 pair; the paper quotes 480 GB/s peak).
TESLA_K80 = GPUDescriptor(
    name="Tesla K80",
    arch="kepler",
    num_sms=26,
    cores_per_sm=192,
    clock_ghz=0.875,  # boost clock used in compute benchmarks
    mem_size_gib=24.0,
    mem_bandwidth_gbs=480.0,
    max_warps_per_sm=64,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    warp_schedulers_per_sm=4,
    issue_rate=2,
    int_latency=9,
    fp_latency=9,
    sfu_latency=32,
    mem_latency=340,
    tlb_hit_latency=280,
    l2_latency=222,
    l1_latency=35,
    l1_kib_per_sm=48,
    l2_kib=1536,
    l2_bandwidth_gbs=1000.0,
    sector_bytes=32,
    dram_burst_bytes=128,
    launch_overhead_us=9.0,
)

#: NVIDIA Tesla P100 (Pascal) — an intermediate generation for cross-gen
#: studies beyond the paper's two platforms.
TESLA_P100 = GPUDescriptor(
    name="Tesla P100",
    arch="pascal",
    num_sms=56,
    cores_per_sm=64,
    clock_ghz=1.328,
    mem_size_gib=16.0,
    mem_bandwidth_gbs=732.0,
    max_warps_per_sm=64,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    warp_schedulers_per_sm=2,
    issue_rate=2,
    int_latency=6,
    fp_latency=6,
    sfu_latency=24,
    mem_latency=380,
    tlb_hit_latency=320,
    l2_latency=216,
    l1_latency=30,
    l1_kib_per_sm=24,
    l2_kib=4096,
    l2_bandwidth_gbs=1800.0,
    sector_bytes=32,
    dram_burst_bytes=64,
    launch_overhead_us=6.0,
)

#: NVIDIA Tesla V100 (Volta) — Table III of the paper.
TESLA_V100 = GPUDescriptor(
    name="Tesla V100",
    arch="volta",
    num_sms=80,
    cores_per_sm=64,
    clock_ghz=1.530,
    mem_size_gib=16.0,
    mem_bandwidth_gbs=900.0,
    max_warps_per_sm=64,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    warp_schedulers_per_sm=4,
    issue_rate=1,
    int_latency=4,
    fp_latency=4,
    sfu_latency=16,
    mem_latency=400,  # DRAM path (Jia: ~375-437 cycles TLB-hit)
    tlb_hit_latency=375,
    l2_latency=193,  # Jia's measured L2 hit latency
    l1_latency=28,  # Jia's measured L1 hit latency
    l1_kib_per_sm=128,
    l2_kib=6144,
    l2_bandwidth_gbs=2500.0,
    sector_bytes=32,
    dram_burst_bytes=64,
    launch_overhead_us=4.0,
)
