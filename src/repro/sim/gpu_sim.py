"""Warp-level semi-analytic GPU timing simulator (the "measured" GPU time).

Plays the role of the K80/V100 silicon.  Where the Hong-model predictor
abstracts, this simulator resolves:

* **actual trip counts** per thread (no 128-iteration assumption);
* a **cache hierarchy** — per-access reuse analysis at sector granularity,
  with warp-shared footprints recognised (small inter-thread strides put a
  whole warp on the same lines);
* **exact transactions** per warp access from the bound IPDA strides;
* a device-wide **DRAM bandwidth roofline**, an issue-throughput bound, and
  a Little's-law memory bound: with N resident warps each keeping one
  request in flight, an SM retires at most ``N / latency`` requests per
  cycle, capped by the per-request service occupancy (transactions ×
  sector-service time).  Small N therefore exposes latency — the same
  physics MWP models, computed here with cache-aware latencies.

Kernel time = max(issue bound, memory bound) per wave × waves, floored by
the DRAM roofline, plus launch overhead.  Transfers are simulated
separately (:mod:`repro.sim.interconnect_sim`).  A caller holding the
region's compiled record passes it whole, so a launch only evaluates its
trip plan, loadout monomials and strides against the sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..analysis import RegionAttributes
from ..codegen import GPULaunchPlan, plan_gpu_launch
from ..ipda import analyze_region
from ..ir import Region
from ..machines import GPUDescriptor
from ..obs.tracer import current_tracer
from .locality import (
    AccessLocality,
    AccessSpec,
    CacheLevel,
    LoopExtent,
    MemoryHierarchy,
    analyze_access,
)

__all__ = ["GPUSimResult", "simulate_gpu_kernel"]

#: Cycles to service one extra 32B sector of an already-issued request.
SECTOR_SERVICE_CYCLES = 2.0

#: Issue-cycle weight of special-function instructions (few SFU lanes).
SFU_ISSUE_WEIGHT = 8.0

#: Memory-level parallelism per warp: compilers unroll and hoist loads, so
#: one warp keeps several independent requests in flight between uses.
WARP_MLP = 6.0


@dataclass(frozen=True)
class GPUSimResult:
    """Simulated device execution of one kernel (excluding transfers)."""

    region_name: str
    gpu_name: str
    plan: GPULaunchPlan
    issue_seconds: float  # issue-throughput bound (per whole kernel)
    memory_seconds: float  # Little's-law memory bound (latency/occupancy)
    bandwidth_seconds: float  # DRAM roofline
    l2_bandwidth_seconds: float  # L2→SM roofline
    launch_seconds: float
    dram_bytes: float
    seconds: float

    @property
    def bound(self) -> str:
        terms = {
            "issue": self.issue_seconds,
            "memory": self.memory_seconds,
            "bandwidth": self.bandwidth_seconds,
            "l2": self.l2_bandwidth_seconds,
        }
        return max(terms, key=terms.get)


def _gpu_hierarchy(
    gpu: GPUDescriptor, l1_div: float, l2_div: float
) -> MemoryHierarchy:
    """Sector-granular cache stack with per-level capacity-share divisors.

    L1 is per-SM (shared by that SM's resident warps); L2 is device-wide
    (shared by every resident warp on every active SM).  The divisors say
    how many *distinct* footprints compete for each level for this access.
    """
    l1_cap = max(64.0, gpu.l1_kib_per_sm * 1024 / l1_div)
    l2_cap = max(l1_cap + 1.0, gpu.l2_kib * 1024 / l2_div)
    return MemoryHierarchy(
        levels=(
            CacheLevel("L1", l1_cap, gpu.l1_latency),
            CacheLevel("L2", l2_cap, gpu.l2_latency),
        ),
        dram_latency_cycles=gpu.mem_latency,
        line_bytes=gpu.sector_bytes,
    )


def simulate_gpu_kernel(
    region: Region | RegionAttributes,
    gpu: GPUDescriptor,
    env: Mapping[str, int],
) -> GPUSimResult:
    """Simulate one kernel launch with actual sizes and real coalescing.

    ``region`` is the region's compiled record
    (:class:`~repro.analysis.RegionAttributes`), whose IPDA result, trip
    plan and loadout monomials the attribute database keeps; a bare
    region is compiled here first.
    """
    attrs = (
        region
        if isinstance(region, RegionAttributes)
        else RegionAttributes(region, analyze_region(region))
    )
    tracer = current_tracer()
    if not tracer.enabled:
        return _simulate_gpu_kernel(attrs, gpu, env)
    with tracer.span("sim.gpu", region=attrs.region.name, gpu=gpu.name) as sp:
        result = _simulate_gpu_kernel(attrs, gpu, env)
        sp.set("seconds", result.seconds)
        return result


def _simulate_gpu_kernel(
    attrs: RegionAttributes,
    gpu: GPUDescriptor,
    env: Mapping[str, int],
) -> GPUSimResult:
    parallel_iters = int(attrs.parallel_iterations.evaluate(env))
    plan = plan_gpu_launch(parallel_iters, gpu)
    trip_of = attrs.trip_plan.trips(env)
    loadout = attrs.loadout_plan.evaluate(trip_of)
    bound_ipda = attrs.ipda.bind(
        env, sector_bytes=gpu.sector_bytes, warp_size=gpu.warp_size
    )
    n_warps = plan.active_warps_per_sm
    total_threads = plan.total_threads

    # --- per-access locality at sector granularity -----------------------
    specs: list[AccessSpec] = []
    hierarchies: list[MemoryHierarchy] = []
    for bound, weight in zip(bound_ipda.accesses, loadout.access_weights):
        acc = bound.stride.access
        loops: list[LoopExtent] = []
        for lp in reversed(acc.loop_path):
            if lp.parallel:
                continue  # the band is the thread space on the device
            coeff = bound.stride.loop_strides.get(lp.var.name)
            stride = None if coeff is None else float(coeff.evaluate(env))
            loops.append(LoopExtent(stride, max(1.0, trip_of(lp))))
        # an OMP_Rep > 1 thread revisits the body with a huge index jump
        if plan.omp_rep > 1:
            ts = bound.thread_stride_elems
            rep_stride = None if ts is None else float(ts * total_threads)
            loops.append(LoopExtent(rep_stride, float(plan.omp_rep)))
        count = weight.weight * plan.omp_rep
        array_bytes = (
            float(acc.array.element_count().evaluate(env)) * acc.dtype.size
        )
        specs.append(
            AccessSpec(
                elem_bytes=acc.dtype.size,
                loops=tuple(loops),
                dynamic_count=count,
                array_bytes=array_bytes,
                is_store=acc.is_store,
            )
        )
        # Capacity sharing depends on how thread footprints relate:
        # uniform (stride 0) data is one footprint device-wide; a small
        # inter-thread stride makes the warp share one footprint (but each
        # warp still has its own); large strides give every thread its own.
        ts = bound.thread_stride_elems
        device_warps = float(max(1, n_warps * plan.active_sms))
        if ts == 0:
            l1_div, l2_div = 1.0, 1.0
        elif ts is not None and abs(ts) * acc.dtype.size < gpu.sector_bytes * 2:
            l1_div, l2_div = float(n_warps), device_warps
        else:
            l1_div, l2_div = float(n_warps) * gpu.warp_size, device_warps * gpu.warp_size
        hierarchies.append(_gpu_hierarchy(gpu, l1_div, l2_div))

    localities: dict[int, AccessLocality] = {}
    for group in attrs.access_groups:
        leader = group[0]
        loc = analyze_access(specs[leader], hierarchies[leader])
        localities[leader] = loc
        for other in group[1:]:
            localities[other] = AccessLocality(
                avg_latency_cycles=hierarchies[other].l1_latency,
                dram_bytes=0.0,
                cold_fraction=0.0,
                repeat_fraction=0.0,
                source="L1",
                repeat_level="L1",
            )

    # --- per-warp time components ----------------------------------------
    issue_cycles_per_inst = max(
        0.5,
        gpu.warp_size * gpu.warp_schedulers_per_sm / gpu.cores_per_sm / gpu.issue_rate,
    )
    comp_insts = (
        loadout.fp_insts
        + loadout.int_insts
        + loadout.branch_insts
        + SFU_ISSUE_WEIGHT * loadout.sfu_insts
    ) * plan.omp_rep
    mem_insts = loadout.mem_insts * plan.omp_rep

    lat_weighted = 0.0  # Σ count × latency (per warp, all requests)
    svc_weighted = 0.0  # Σ count × service occupancy
    device_dram_bytes = 0.0
    device_l2_bytes = 0.0  # traffic crossing the L2→SM interface
    l2_bytes = gpu.l2_kib * 1024.0
    for i, (bound, weight, spec) in enumerate(
        zip(bound_ipda.accesses, loadout.access_weights, specs)
    ):
        loc = localities[i]
        txn = bound.transactions_per_access
        count = weight.weight * plan.omp_rep
        miss = loc.cold_fraction + loc.repeat_fraction
        lat_weighted += count * (
            loc.avg_latency_cycles + (txn - 1) * SECTOR_SERVICE_CYCLES * miss
        )
        # the memory pipe is only occupied for sectors actually fetched; an
        # L1 hit costs a single slot
        svc_weighted += count * (1.0 + txn * SECTOR_SERVICE_CYCLES * miss)
        access_bytes = loc.dram_bytes * txn * plan.total_warps
        if spec.array_bytes <= l2_bytes:
            # an L2-resident array is fetched from DRAM at most once per
            # wave, however many warps walk it
            access_bytes = min(access_bytes, spec.array_bytes * plan.rep)
        device_dram_bytes += access_bytes
        # everything sourced at or below L2 crosses the L2→SM interface
        l2_frac = loc.cold_fraction
        if loc.repeat_level == "L2":
            l2_frac += loc.repeat_fraction
        device_l2_bytes += (
            count * l2_frac * txn * gpu.sector_bytes * plan.total_warps
        )

    issue_per_wave = (comp_insts + mem_insts) * issue_cycles_per_inst * n_warps

    # Little's law: N warps with WARP_MLP requests in flight each retire at
    # most N*MLP/avg_latency requests per cycle; the memory pipe serves at
    # most one request per service-occupancy.  The slower rate prices the
    # wave.
    if mem_insts > 0:
        avg_lat = lat_weighted / mem_insts
        avg_svc = svc_weighted / mem_insts
        per_request = max(avg_lat / (n_warps * WARP_MLP), avg_svc)
        mem_per_wave = mem_insts * n_warps * per_request
    else:
        mem_per_wave = 0.0

    waves = plan.rep
    kernel_cycles = max(issue_per_wave, mem_per_wave) * waves
    n_red = attrs.reductions
    if n_red:
        # block combining tree + one global atomic per block
        tree = math.log2(max(2, plan.threads_per_block)) * gpu.fp_latency
        kernel_cycles += n_red * (
            tree * waves + plan.num_blocks * gpu.atomic_cycles / 16.0
        )
    issue_seconds = gpu.cycles_to_seconds(issue_per_wave * waves)
    memory_seconds = gpu.cycles_to_seconds(mem_per_wave * waves)

    total_dram = device_dram_bytes
    bandwidth_seconds = total_dram / (gpu.mem_bandwidth_gbs * 1e9)
    l2_bandwidth_seconds = device_l2_bytes / (gpu.l2_bandwidth_gbs * 1e9)

    launch_seconds = gpu.launch_overhead_us * 1e-6
    seconds = (
        max(
            gpu.cycles_to_seconds(kernel_cycles),
            bandwidth_seconds,
            l2_bandwidth_seconds,
        )
        + launch_seconds
    )
    return GPUSimResult(
        region_name=attrs.region.name,
        gpu_name=gpu.name,
        plan=plan,
        issue_seconds=issue_seconds,
        memory_seconds=memory_seconds,
        bandwidth_seconds=bandwidth_seconds,
        l2_bandwidth_seconds=l2_bandwidth_seconds,
        launch_seconds=launch_seconds,
        dram_bytes=total_dram,
        seconds=seconds,
    )
