"""Semi-analytic CPU timing simulator (the "measured" host time).

Plays the role of the POWER8/POWER9 silicon in the paper's experiments.
Compared to the analytical predictor it adds exactly the detail the paper
says its model lacks:

* a **cache/TLB hierarchy** — per-access average latencies and DRAM traffic
  from the reuse model of :mod:`repro.sim.locality`, injected into the MCA
  scoreboard as load-latency overrides;
* **actual trip counts** — no 128-iteration abstraction;
* a **DRAM bandwidth roofline** shared by all threads;
* **SMT issue sharing** per hardware thread.

Time is per target region (the quantity the paper's tables report for the
host), fork/join/schedule overheads included, no data transfer.

The simulator takes the region's compile-time products the way the
predictor does: a caller holding the compiled record
(:class:`~repro.analysis.RegionAttributes`) passes it whole, so a launch
only evaluates its trip plan, strides and access groups against the sizes
and prices its lowered loop nest.  A bare region is compiled here first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..analysis import RegionAttributes
from ..codegen import CPUPlan, OMPSchedule, plan_cpu_execution
from ..ipda import analyze_region
from ..ir import Region
from ..machines import CPUDescriptor
from ..obs.tracer import current_tracer
from ..mca import (
    MachineOp,
    find_band_level,
    level_cycles_per_iteration,
    lower_region,
    vectorized_access_indices,
)
from .locality import (
    AccessLocality,
    AccessSpec,
    CacheLevel,
    LoopExtent,
    MemoryHierarchy,
    analyze_access,
)

__all__ = ["CPUSimResult", "simulate_cpu", "cpu_memory_hierarchy"]


@dataclass(frozen=True)
class CPUSimResult:
    """Simulated host execution of one region."""

    region_name: str
    cpu_name: str
    plan: CPUPlan
    cycles_per_iteration: float
    compute_seconds: float
    bandwidth_seconds: float  # DRAM roofline term
    l2_refill_seconds: float  # L2→L1 refill roofline
    l3_refill_seconds: float  # L3 refill roofline
    overhead_seconds: float  # fork/schedule/join
    dram_bytes: float
    seconds: float

    @property
    def bound(self) -> str:
        """Which roofline term limits this kernel."""
        terms = {
            "compute": self.compute_seconds,
            "bandwidth": self.bandwidth_seconds,
            "l2": self.l2_refill_seconds,
            "l3": self.l3_refill_seconds,
        }
        return max(terms, key=terms.get)


def cpu_memory_hierarchy(
    cpu: CPUDescriptor, threads_per_core: int
) -> MemoryHierarchy:
    """Per-thread effective cache stack (SMT threads share core caches)."""
    share = max(1, threads_per_core)
    return MemoryHierarchy(
        levels=(
            CacheLevel("L1", cpu.l1_kib * 1024 / share, cpu.l1_latency),
            CacheLevel("L2", cpu.l2_kib * 1024 / share, cpu.l2_latency),
            CacheLevel("L3", cpu.l3_kib_per_core * 1024 / share, cpu.l3_latency),
        ),
        dram_latency_cycles=cpu.dram_latency,
        line_bytes=cpu.cacheline_bytes,
    )


def _access_specs(
    attrs: RegionAttributes,
    env: Mapping[str, int],
    plan: CPUPlan,
    trip_of,
) -> list[AccessSpec]:
    """Build per-thread access specs for the region's IPDA accesses."""
    band_vars = [lp.var.name for lp in attrs.band]

    # Per-thread trips of each band loop: inner band dims run fully; the
    # outermost band dim is divided by the thread count.
    band_extents = {
        lp.var.name: float(lp.count.evaluate(env)) for lp in attrs.band
    }
    inner_product = 1.0
    for name in band_vars[1:]:
        inner_product *= band_extents[name]
    chunk = float(plan.iterations_per_thread)
    outer_trips = max(1.0, chunk / max(1.0, inner_product))

    specs: list[AccessSpec] = []
    for stride_info in attrs.ipda.accesses:
        acc = stride_info.access
        loops: list[LoopExtent] = []
        for lp in reversed(acc.loop_path):  # innermost first
            coeff = stride_info.loop_strides.get(lp.var.name)
            stride = None if coeff is None else float(coeff.evaluate(env))
            if lp.parallel:
                if lp.var.name == band_vars[0]:
                    trips = outer_trips
                else:
                    trips = min(band_extents[lp.var.name], max(1.0, chunk))
            else:
                trips = max(1.0, trip_of(lp))
            loops.append(LoopExtent(stride, trips))
        count = 1.0
        for le in loops:
            count *= le.trips
        count *= 0.5**acc.cond_depth
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
    return specs


def simulate_cpu(
    region: Region | RegionAttributes,
    cpu: CPUDescriptor,
    env: Mapping[str, int],
    *,
    num_threads: int | None = None,
    vectorize: bool = True,
    schedule: OMPSchedule = OMPSchedule.STATIC,
    chunk_size: int | None = None,
) -> CPUSimResult:
    """Simulate host-parallel execution of a region with actual sizes.

    ``region`` is the region's compiled record
    (:class:`~repro.analysis.RegionAttributes`), whose IPDA result, trip
    plan and loop nest lowered for ``cpu`` the attribute database keeps,
    so a launch only binds values; a bare region is compiled here first.
    """
    attrs = (
        region
        if isinstance(region, RegionAttributes)
        else RegionAttributes(region, analyze_region(region))
    )
    tracer = current_tracer()
    if not tracer.enabled:
        return _simulate_cpu(
            attrs, cpu, env, num_threads=num_threads, vectorize=vectorize,
            schedule=schedule, chunk_size=chunk_size,
        )
    with tracer.span("sim.cpu", region=attrs.region.name, cpu=cpu.name) as sp:
        result = _simulate_cpu(
            attrs, cpu, env, num_threads=num_threads, vectorize=vectorize,
            schedule=schedule, chunk_size=chunk_size,
        )
        sp.set("seconds", result.seconds)
        return result


def _simulate_cpu(
    attrs: RegionAttributes,
    cpu: CPUDescriptor,
    env: Mapping[str, int],
    *,
    num_threads: int | None,
    vectorize: bool,
    schedule: OMPSchedule,
    chunk_size: int | None,
) -> CPUSimResult:
    region = attrs.region
    parallel_iters = int(attrs.parallel_iterations.evaluate(env))
    plan = plan_cpu_execution(
        parallel_iters,
        cpu,
        num_threads=num_threads,
        schedule=schedule,
        chunk_size=chunk_size,
    )
    mem = cpu_memory_hierarchy(cpu, plan.threads_per_core)
    trips = attrs.trip_plan.trips(env)

    specs = _access_specs(attrs, env, plan, trips)
    localities: dict[int, AccessLocality] = {}
    for group in attrs.access_groups:
        leader = group[0]
        localities[leader] = analyze_access(specs[leader], mem)
        for other in group[1:]:
            localities[other] = AccessLocality(
                avg_latency_cycles=mem.l1_latency,
                dram_bytes=0.0,
                cold_fraction=0.0,
                repeat_fraction=0.0,
                source="L1",
                repeat_level="L1",
            )

    def latency_of(op: MachineOp) -> float:
        if op.opcode in ("load", "vload") and " acc:" in op.tag:
            idx = int(op.tag.rsplit("acc:", 1)[1])
            return localities[idx].avg_latency_cycles
        return float(cpu.latency(op.opcode))

    if vectorize:
        band = attrs.band_level(cpu)
        vectorized_accesses = attrs.vectorized_accesses(cpu)
    else:
        lowered = lower_region(region, cpu, vectorize=False)
        band = find_band_level(lowered)
        vectorized_accesses = vectorized_access_indices(lowered)
    per_iter = level_cycles_per_iteration(
        band, cpu, trips, latency_of=latency_of
    )

    tpc = plan.threads_per_core
    smt_penalty = tpc / cpu.smt_throughput(tpc)
    compute_cycles = per_iter * plan.iterations_per_thread * smt_penalty
    compute_seconds = cpu.cycles_to_seconds(compute_cycles)

    busy_threads = min(plan.num_threads, parallel_iters)
    outer_band_var = attrs.band[0].var.name
    total_dram = 0.0
    l2_traffic = 0.0  # per-thread bytes refilled from L2
    l3_traffic = 0.0  # per-thread bytes refilled from L3 (or passing it)
    line = float(cpu.cacheline_bytes)
    for i, (spec_, astride) in enumerate(zip(specs, attrs.ipda.accesses)):
        loc = localities[i]
        # Cross-thread sharing: static chunking slices the *outermost* band
        # dimension across threads, so an access invariant along it (e.g.
        # GEMM's B) is one team-wide stream the threads walk in loose
        # lockstep — DRAM sees it roughly once, not once per thread.
        coeff = astride.loop_strides.get(outer_band_var)
        chunk_stride = None if coeff is None else coeff.evaluate(env)
        share = float(busy_threads) if chunk_stride == 0 else 1.0
        total_dram += loc.dram_bytes * busy_threads / share
        # Cold traffic counts distinct lines (already line-granular in the
        # locality fractions); repeat traffic is per re-fetch, and vector
        # loads re-fetch a line once per `lanes` elements.
        lanes_eff = (
            cpu.vector_lanes(spec_.elem_bytes)
            if i in vectorized_accesses
            else 1
        )
        cold_line_bytes = spec_.dynamic_count * loc.cold_fraction * line
        repeat_line_bytes = (
            spec_.dynamic_count / lanes_eff * loc.repeat_fraction * line
        )
        # cold lines transit every level on the way in
        l3_traffic += cold_line_bytes
        l2_traffic += cold_line_bytes
        if loc.repeat_level == "L3":
            l3_traffic += repeat_line_bytes
            l2_traffic += repeat_line_bytes
        elif loc.repeat_level == "L2":
            l2_traffic += repeat_line_bytes

    effective_bw = cpu.dram_bw_gbs * cpu.stream_efficiency * 1e9
    bandwidth_seconds = total_dram / effective_bw
    cores_used = max(1, min(cpu.cores, -(-busy_threads // cpu.smt)))
    l3_refill_seconds = (l3_traffic * busy_threads) / (
        cpu.l3_refill_gbs_per_core * 1e9 * cores_used
    )
    l2_refill_seconds = (l2_traffic * busy_threads) / (
        cpu.l2_refill_gbs_per_core * 1e9 * cores_used
    )

    # Fork and barrier costs grow superlinearly with the team size (wake-up
    # fan-out, barrier contention, SMT oversubscription).
    team_scale = cpu.team_overhead_scale(plan.num_threads)
    per_schedule = (
        cpu.par_schedule_static_cycles
        if plan.schedule is OMPSchedule.STATIC
        else cpu.par_schedule_dynamic_cycles
    )
    reduction_cycles = (
        attrs.reductions
        * math.ceil(math.log2(max(2, plan.num_threads)))
        * cpu.reduction_step_cycles
    )
    overhead_cycles = (
        cpu.par_startup_cycles * team_scale
        + plan.schedule_times * per_schedule
        + cpu.sync_cycles * team_scale
        + cpu.loop_overhead_per_iter * plan.iterations_per_thread
        + reduction_cycles
    )
    overhead_seconds = cpu.cycles_to_seconds(overhead_cycles)

    seconds = (
        max(
            compute_seconds,
            bandwidth_seconds,
            l2_refill_seconds,
            l3_refill_seconds,
        )
        + overhead_seconds
    )
    return CPUSimResult(
        region_name=region.name,
        cpu_name=cpu.name,
        plan=plan,
        cycles_per_iteration=per_iter,
        compute_seconds=compute_seconds,
        bandwidth_seconds=bandwidth_seconds,
        l2_refill_seconds=l2_refill_seconds,
        l3_refill_seconds=l3_refill_seconds,
        overhead_seconds=overhead_seconds,
        dram_bytes=total_dram,
        seconds=seconds,
    )
