"""CPU machine descriptors.

A :class:`CPUDescriptor` carries everything the MCA substrate, the CPU timing
simulator and the Liao/Chapman analytical model need: issue-port structure
and instruction latencies (for the scoreboard), the cache/TLB hierarchy (for
the simulator only — the paper's predictor deliberately has no cache model),
and the OpenMP runtime overheads of Table II.

The POWER8/POWER9 values follow the paper's experimental setup (both hosts
clocked at 3 GHz, 20 cores x SMT-8 = 160 hardware threads) and public POWER
documentation; they are inputs to a simulator, not claims about silicon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

__all__ = ["CPUDescriptor", "POWER8", "POWER9", "GENERIC_X86"]


def _frozen(d: dict) -> Mapping:
    return MappingProxyType(dict(d))


@dataclass(frozen=True)
class CPUDescriptor:
    """Parameters of a multicore SMT CPU.

    Port classes used by the machine-op lowering:

    ``FX``  integer/address arithmetic pipes per core,
    ``LS``  load/store pipes per core,
    ``FP``  scalar floating point pipes per core,
    ``VSX`` vector pipes per core (used when a loop vectorizes),
    ``BR``  branch pipe.
    """

    name: str
    cores: int
    smt: int
    frequency_ghz: float
    dispatch_width: int
    ports: Mapping[str, int]
    latencies: Mapping[str, int]
    vector_width_bits: int
    vector_pipes: int
    has_fma: bool
    # cache hierarchy (simulator only)
    cacheline_bytes: int
    l1_kib: int
    l2_kib: int
    l3_kib_per_core: int
    l1_latency: int
    l2_latency: int
    l3_latency: int
    dram_latency: int
    dram_bw_gbs: float
    # TLB (Table II)
    tlb_entries: int
    tlb_miss_penalty: int
    page_bytes: int
    # OpenMP overheads in cycles (Table II)
    par_startup_cycles: int
    par_schedule_static_cycles: int
    sync_cycles: int
    loop_overhead_per_iter: int
    #: Cost of one dynamic-schedule chunk dispatch (a runtime queue pop;
    #: EPCC's "schedule(dynamic)" overhead) — paid per chunk, per thread.
    par_schedule_dynamic_cycles: int = 180
    #: Cost of one combining step of an OpenMP reduction tree (Liao's
    #: Reduction_c is ceil(log2(team)) of these per reduction clause).
    reduction_step_cycles: int = 150
    #: Whether the compiler can vectorize non-innermost loops on this core
    #: (outer-loop / band vectorization).  POWER9's VSX-3 "broader vector
    #: operation support" (Section III) enables it; POWER8 vectorizes only
    #: innermost stride-1 loops.
    outer_loop_vectorization: bool = True
    #: Fraction of peak DRAM bandwidth a fully-threaded streaming OpenMP
    #: loop sustains (SMT contention, page crossings, RFO traffic).
    stream_efficiency: float = 0.5
    #: Per-core L2→L1 refill bandwidth (GB/s); caps cache-resident kernels.
    l2_refill_gbs_per_core: float = 180.0
    #: Per-core L3→L1/L2 refill bandwidth (GB/s).
    l3_refill_gbs_per_core: float = 90.0
    # SMT throughput scaling: per-core throughput multiplier at a given SMT
    # level relative to single-thread (values beyond the last entry clamp).
    smt_scaling: Mapping[int, float] = field(
        default_factory=lambda: _frozen({1: 1.0, 2: 1.45, 4: 1.8, 8: 2.05})
    )

    def __post_init__(self):
        if self.cores <= 0 or self.smt <= 0:
            raise ValueError("cores and smt must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        object.__setattr__(self, "ports", _frozen(dict(self.ports)))
        object.__setattr__(self, "latencies", _frozen(dict(self.latencies)))
        object.__setattr__(self, "smt_scaling", _frozen(dict(self.smt_scaling)))

    @property
    def hw_threads(self) -> int:
        """Total hardware threads (cores × SMT ways)."""
        return self.cores * self.smt

    def latency(self, op_class: str) -> int:
        """Latency in cycles of a machine-op class; raises on unknown class."""
        try:
            return self.latencies[op_class]
        except KeyError as exc:
            raise KeyError(
                f"{self.name} has no latency for op class {op_class!r}"
            ) from exc

    def team_overhead_scale(self, num_threads: int) -> float:
        """Fork/barrier cost multiplier for a team of ``num_threads``.

        Wake-up fan-out and barrier contention grow superlinearly with the
        team; the Table II constants are the 8-thread EPCC baselines, and
        EPCC measurements at wider teams follow this curve.  Both the
        "hardware" (simulator) and the analytical model consult it — the
        paper obtains the model's overhead parameters from EPCC runs at
        the experiment's thread count.
        """
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        return max(1.0, (num_threads / 8.0) ** 1.8)

    def smt_throughput(self, threads_per_core: int) -> float:
        """Per-core throughput multiplier for a given SMT occupancy."""
        if threads_per_core < 1:
            raise ValueError("threads_per_core must be >= 1")
        levels = sorted(self.smt_scaling)
        best = self.smt_scaling[levels[0]]
        for lv in levels:
            if threads_per_core >= lv:
                best = self.smt_scaling[lv]
        return best

    def vector_lanes(self, elem_bytes: int) -> int:
        """SIMD lanes for an element size (e.g. 128-bit VSX / f32 = 4)."""
        return max(1, self.vector_width_bits // (elem_bytes * 8))

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.frequency_ghz * 1e9)


_POWER_COMMON_LAT = {
    # scalar op latencies in cycles (POWER8/9 user manual orders of magnitude)
    "iadd": 1,
    "imul": 4,
    "fadd": 6,
    "fmul": 6,
    "fma": 6,
    "fdiv": 27,
    "fsqrt": 32,
    "fexp": 48,  # libm call approximation
    "fmin": 2,
    "fabs": 1,
    "fneg": 1,
    "fsel": 2,
    "vfsel": 2,
    "cmp": 1,
    "br": 1,
    "load": 3,  # L1-hit base; the cache model adds miss penalties
    "store": 1,
    "vload": 3,
    "vstore": 1,
    "vfadd": 6,
    "vfmul": 6,
    "vfma": 6,
    "vfdiv": 31,
    "vfsqrt": 38,
}

#: POWER8 host of the paper's Table I platform 1 (K80 machine).
POWER8 = CPUDescriptor(
    name="POWER8",
    cores=20,
    smt=8,
    frequency_ghz=3.0,
    dispatch_width=8,
    ports=_frozen({"FX": 2, "LS": 2, "FP": 2, "VSX": 2, "BR": 1}),
    latencies=_frozen(_POWER_COMMON_LAT),
    vector_width_bits=128,
    vector_pipes=2,
    has_fma=True,
    cacheline_bytes=128,
    l1_kib=64,
    l2_kib=512,
    l3_kib_per_core=8192,
    l1_latency=3,
    l2_latency=13,
    l3_latency=27,
    dram_latency=320,
    dram_bw_gbs=110.0,
    tlb_entries=1024,
    tlb_miss_penalty=14,
    page_bytes=65536,  # 64 KiB pages, the ppc64le default
    par_startup_cycles=3000,
    par_schedule_static_cycles=10154,
    sync_cycles=4000,
    loop_overhead_per_iter=4,
    outer_loop_vectorization=False,  # VSX-2: innermost loops only
    stream_efficiency=0.45,
)

#: POWER9 host of platform 2 (AC922 + V100); broader vector support (VSX-3).
POWER9 = CPUDescriptor(
    name="POWER9",
    cores=20,
    smt=8,
    frequency_ghz=3.0,
    dispatch_width=8,
    # 4 execution slices with VSX per SMT-8 core pair: double the vector pipes
    ports=_frozen({"FX": 3, "LS": 2, "FP": 2, "VSX": 4, "BR": 1}),
    latencies=_frozen(
        {
            **_POWER_COMMON_LAT,
            # VSX-3 improved vector op latencies
            "vfadd": 5,
            "vfmul": 5,
            "vfma": 5,
            "vfdiv": 26,
            "vfsqrt": 32,
        }
    ),
    vector_width_bits=128,
    vector_pipes=4,
    has_fma=True,
    cacheline_bytes=128,
    l1_kib=32,
    l2_kib=512,
    l3_kib_per_core=10240,
    l1_latency=3,
    l2_latency=12,
    l3_latency=25,
    dram_latency=300,
    dram_bw_gbs=140.0,
    tlb_entries=1024,
    tlb_miss_penalty=14,
    page_bytes=65536,
    par_startup_cycles=3000,
    par_schedule_static_cycles=10154,
    sync_cycles=4000,
    loop_overhead_per_iter=4,
)

#: A plain 8-core AVX2 workstation; used by examples to show portability.
GENERIC_X86 = CPUDescriptor(
    name="generic-x86",
    cores=8,
    smt=2,
    frequency_ghz=3.6,
    dispatch_width=4,
    ports=_frozen({"FX": 4, "LS": 2, "FP": 2, "VSX": 2, "BR": 1}),
    latencies=_frozen(
        {
            **_POWER_COMMON_LAT,
            "fadd": 4,
            "fmul": 4,
            "fma": 4,
            "fdiv": 14,
            "fsqrt": 18,
            "load": 5,
            "vfadd": 4,
            "vfmul": 4,
            "vfma": 4,
            "vfdiv": 14,
            "vfsqrt": 20,
        }
    ),
    vector_width_bits=256,
    vector_pipes=2,
    has_fma=True,
    cacheline_bytes=64,
    l1_kib=32,
    l2_kib=256,
    l3_kib_per_core=2048,
    l1_latency=4,
    l2_latency=12,
    l3_latency=40,
    dram_latency=250,
    dram_bw_gbs=40.0,
    tlb_entries=1536,
    tlb_miss_penalty=20,
    page_bytes=4096,
    par_startup_cycles=4000,
    par_schedule_static_cycles=9000,
    sync_cycles=3500,
    loop_overhead_per_iter=4,
    smt_scaling=_frozen({1: 1.0, 2: 1.3}),
)
