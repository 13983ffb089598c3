"""The OpenMP CPU cost model of Liao & Chapman (Figure 3, Table II).

Implements the parallel-region equations the paper derives from the OpenUH
model, specialised — like the paper's kernels — to strictly parallel-for
work-sharing::

    Parallel_Region_c = Fork_c
                      + max_i(Thread_i_exe)   (one work-shared loop)
                      + Join_c
    Parallel_for_c    = Schedule_times × (Schedule_c + Loop_chunk_c)
    Loop_chunk_c      = Machine_cycles_per_iter × Chunk_size
                      + Cache_c + Loop_overhead_c

``Machine_cycles_per_iter`` comes from the MCA substrate (Section IV.A.1),
replacing the OpenUH inner-scheduler coupling.  ``Cache_c`` is the TLB-cost
estimate of Table II (the model deliberately has *no* data-cache hierarchy
— the limitation Section IV.A.1 names as primary future work); everything
else is the Table II overhead constants carried by the CPU descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
from typing import Callable, Mapping

from ..analysis import InstructionLoadout, RegionAttributes
from ..analysis.tripcount import PAPER_LOOP_TRIPS
from ..codegen import CPUPlan, OMPSchedule, plan_cpu_execution
from ..ipda import IPDAResult, analyze_region
from ..ir import Region
from ..machines import CPUDescriptor
from ..mca import (
    MachineOp,
    find_band_level,
    level_cycles_per_iteration,
    lower_region,
)
from ..symbolic import EvalError

__all__ = ["CPUPrediction", "predict_cpu_time"]


@dataclass(frozen=True)
class CPUPrediction:
    """Predicted host execution time with its Figure-3 breakdown."""

    region_name: str
    cpu_name: str
    plan: CPUPlan
    machine_cycles_per_iter: float
    fork_cycles: float
    schedule_cycles: float
    chunk_cycles: float
    cache_cycles: float  # the TLB term
    loop_overhead_cycles: float
    reduction_cycles: float
    join_cycles: float
    seconds: float

    @property
    def total_cycles(self) -> float:
        return (
            self.fork_cycles
            + self.schedule_cycles
            + self.chunk_cycles
            + self.cache_cycles
            + self.loop_overhead_cycles
            + self.reduction_cycles
            + self.join_cycles
        )

    def breakdown(self) -> dict[str, float]:
        """Component cycles keyed by the Figure-3 term names."""
        return {
            "Fork_c": self.fork_cycles,
            "Schedule_c": self.schedule_cycles,
            "Machine_cycles x Chunk": self.chunk_cycles,
            "Cache_c (TLB)": self.cache_cycles,
            "Loop_overhead_c": self.loop_overhead_cycles,
            "Reduction_c": self.reduction_cycles,
            "Join_c": self.join_cycles,
        }


def predict_cpu_time(
    region: Region | RegionAttributes,
    loadout: InstructionLoadout,
    parallel_iterations: int,
    cpu: CPUDescriptor,
    *,
    num_threads: int | None = None,
    env: dict | None = None,
    vectorize: bool = True,
    schedule: OMPSchedule = OMPSchedule.STATIC,
    chunk_size: int | None = None,
) -> CPUPrediction:
    """Evaluate the Liao model for one region launch.

    ``env`` carries whatever runtime values the attribute database supplied;
    inner-loop trip counts missing from it keep the paper's 128-iteration
    abstraction.  The execution time of the parallel region is that of the
    most loaded thread between the fork and the join.  A dynamic schedule
    pays Liao's ``Schedule_times × Schedule_c`` with the per-chunk dispatch
    cost instead of the one-off static partitioning cost.

    ``region`` is the region's compiled record
    (:class:`~repro.analysis.RegionAttributes`), whose IPDA result, trip
    plan, reduction count and innermost parallel band lowered for ``cpu``
    the attribute database keeps, so a launch only binds values; a bare
    region is compiled here first.
    """
    attrs = (
        region
        if isinstance(region, RegionAttributes)
        else RegionAttributes(region, analyze_region(region))
    )
    plan = plan_cpu_execution(
        parallel_iterations,
        cpu,
        num_threads=num_threads,
        schedule=schedule,
        chunk_size=chunk_size,
    )
    trip_of = attrs.trip_plan.trips(env or {}, default=PAPER_LOOP_TRIPS)
    if vectorize:
        band = attrs.band_level(cpu)
    else:
        band = find_band_level(lower_region(attrs.region, cpu, vectorize=False))
    classes = _classify_accesses(attrs.ipda, env or {}, cpu, trip_of)
    latency_of = _ipda_load_latency(classes, cpu)
    mc_per_iter = level_cycles_per_iteration(
        band, cpu, trip_of, latency_of=latency_of
    )
    # SMT sharing: with T threads per core, each thread sees a slice of the
    # core's issue capacity.  The critical-path thread therefore pays
    # T / smt_throughput(T) times its single-thread cycles.
    tpc = plan.threads_per_core
    smt_penalty = tpc / cpu.smt_throughput(tpc)

    chunk_iters = plan.iterations_per_thread
    chunk_cycles = mc_per_iter * chunk_iters * smt_penalty
    loop_overhead = cpu.loop_overhead_per_iter * chunk_iters
    # SMT threads on a core contend for the shared refill path
    busy_cores = min(cpu.cores, plan.num_threads)
    cache_cycles = _tlb_cost(loadout, chunk_iters, cpu) + _refill_cost(
        classes, loadout, chunk_iters, cpu, busy_cores, tpc
    ) * float(tpc)
    per_schedule = (
        cpu.par_schedule_static_cycles
        if plan.schedule is OMPSchedule.STATIC
        else cpu.par_schedule_dynamic_cycles
    )
    schedule_cycles = float(plan.schedule_times * per_schedule)
    # Table II overheads are EPCC-measured at the team size in use
    team_scale = cpu.team_overhead_scale(plan.num_threads)
    fork = cpu.par_startup_cycles * team_scale
    join = cpu.sync_cycles * team_scale
    # Liao's Reduction_c: a log2(team)-deep combining tree per clause
    n_red = attrs.reductions
    reduction_cycles = (
        n_red * math.ceil(math.log2(max(2, plan.num_threads)))
        * cpu.reduction_step_cycles
        if n_red
        else 0.0
    )

    total = (
        fork
        + schedule_cycles
        + chunk_cycles
        + cache_cycles
        + loop_overhead
        + reduction_cycles
        + join
    )
    return CPUPrediction(
        region_name=attrs.region.name,
        cpu_name=cpu.name,
        plan=plan,
        machine_cycles_per_iter=mc_per_iter,
        fork_cycles=fork,
        schedule_cycles=schedule_cycles,
        chunk_cycles=chunk_cycles,
        cache_cycles=cache_cycles,
        loop_overhead_cycles=loop_overhead,
        reduction_cycles=reduction_cycles,
        join_cycles=join,
        seconds=cpu.cycles_to_seconds(total),
    )


@dataclass(frozen=True)
class _AccessClass:
    """IPDA-derived memory class of one static access (predictor view)."""

    new_line_fraction: float  # fraction of executions starting a new line
    class_latency: float  # latency of the level the array maps to
    beyond_l1: bool  # whether refills actually leave L1
    l3_resident: bool  # whole array fits the socket's aggregate L3 (warm)
    sweep_bytes: float  # footprint of one innermost-stride sweep


def _classify_accesses(
    ipda: IPDAResult,
    env: Mapping[str, float],
    cpu: CPUDescriptor,
    trip_of=None,
) -> list[_AccessClass]:
    """The predictor's ``Cache_c`` memory classes (Section II.C).

    The hybrid analysis uses IPDA strides and runtime array sizes to
    estimate, per access, how often a new cache line is touched, which
    level the array's size maps it to, and how big one innermost sweep is.
    No reuse-distance analysis, no stencil grouping, no repeat detection —
    the detailed hierarchy remains the simulator's (and real hardware's)
    edge, the gap Section IV.A.1 calls the model's primary limitation.
    """
    line = float(cpu.cacheline_bytes)
    aggregate_l3 = cpu.l3_kib_per_core * 1024.0 * cpu.cores
    out: list[_AccessClass] = []
    for acc in ipda.accesses:
        elem = acc.elem_bytes
        # innermost enclosing loop with a non-zero resolvable stride
        stride_bytes = 0.0
        sweep_trips = 1.0
        for lp in reversed(acc.access.loop_path):
            coeff = acc.loop_strides.get(lp.var.name)
            if coeff is None:
                continue
            try:
                val = abs(float(coeff.evaluate(env))) * elem
            except EvalError:
                continue
            if val > 0:
                stride_bytes = val
                if trip_of is not None:
                    sweep_trips = float(trip_of(lp))
                else:
                    try:
                        sweep_trips = float(lp.count.evaluate(env))
                    except EvalError:
                        sweep_trips = 128.0  # the static abstraction
                break
        try:
            array_bytes = (
                float(acc.access.array.element_count().evaluate(env)) * elem
            )
        except EvalError:
            array_bytes = float("inf")
        beyond_l1 = array_bytes > cpu.l1_kib * 1024
        l3_resident = array_bytes <= aggregate_l3
        if not beyond_l1:
            class_lat = float(cpu.l1_latency)
        elif array_bytes <= cpu.l2_kib * 1024:
            class_lat = float(cpu.l2_latency)
        elif l3_resident:
            class_lat = float(cpu.l3_latency)
        else:
            # streaming big arrays: hardware prefetch hides most of DRAM
            class_lat = float(cpu.l3_latency) + 0.25 * (
                cpu.dram_latency - cpu.l3_latency
            )
        new_line = min(1.0, stride_bytes / line) if stride_bytes else 0.0
        sweep_bytes = sweep_trips * min(line, max(stride_bytes, elem))
        out.append(
            _AccessClass(new_line, class_lat, beyond_l1, l3_resident, sweep_bytes)
        )
    return out


def _ipda_load_latency(
    classes: list[_AccessClass], cpu: CPUDescriptor
) -> Callable[[MachineOp], float]:
    """Per-load latency override for the MCA scoreboard."""
    latencies = {
        i: cpu.l1_latency + c.new_line_fraction * (c.class_latency - cpu.l1_latency)
        for i, c in enumerate(classes)
    }

    def latency_of(op: MachineOp) -> float:
        if op.opcode in ("load", "vload") and " acc:" in op.tag:
            idx = int(op.tag.rsplit("acc:", 1)[1])
            if idx in latencies:
                return latencies[idx]
        return float(cpu.latency(op.opcode))

    return latency_of


def _refill_cost(
    classes: list[_AccessClass],
    loadout: InstructionLoadout,
    chunk_iters: int,
    cpu: CPUDescriptor,
    busy_cores: int,
    threads_per_core: int,
) -> float:
    """The throughput half of ``Cache_c``: line-refill occupancy cycles.

    The scoreboard hides refill *latency* behind independent work, but a
    line crossing L1 still occupies a refill path for
    ``line_bytes / refill_rate`` cycles — unhidable for walks that touch a
    new line per element.  The rate depends on where the lines come from:

    * an L3-resident (warm) array refills at the L3 rate;
    * a *dense* line-crossing walk whose sweep fits this thread's L3 share
      re-visits cached lines (L3 rate); the overhanging fraction of a
      too-big sweep spills to DRAM;
    * a *sparse* spatial stream over a big array fetches fresh lines at
      this core's share of sustained DRAM bandwidth.
    """
    l3_bytes_per_cycle = cpu.l3_refill_gbs_per_core / cpu.frequency_ghz
    dram_share_gbs = min(
        cpu.l3_refill_gbs_per_core,
        cpu.dram_bw_gbs * cpu.stream_efficiency / max(1, busy_cores),
    )
    dram_bytes_per_cycle = dram_share_gbs / cpu.frequency_ghz
    l3_share = cpu.l3_kib_per_core * 1024.0 / max(1, threads_per_core)
    line = float(cpu.cacheline_bytes)
    per_iter = 0.0
    for w, cls in zip(loadout.access_weights, classes):
        if not cls.beyond_l1:
            continue
        # Dense walks re-fetch a line per access event; with outer-loop
        # vectorization one vector load covers `lanes` elements, so the
        # event count shrinks.  Sparse streams are priced by *bytes*
        # (line granularity), which vectorization does not change.
        lanes = (
            cpu.vector_lanes(4) if cpu.outer_loop_vectorization else 1
        )
        if cls.l3_resident:
            cycles_per_refill = line / l3_bytes_per_cycle / lanes
        elif cls.new_line_fraction >= 0.99:
            fit = min(1.0, l3_share / max(1.0, cls.sweep_bytes))
            cycles_per_refill = (
                line * fit / l3_bytes_per_cycle / lanes
                + line * (1.0 - fit) / dram_bytes_per_cycle
            )
        else:
            cycles_per_refill = line / dram_bytes_per_cycle
        per_iter += w.weight * cls.new_line_fraction * cycles_per_refill
    return per_iter * chunk_iters


def _tlb_cost(
    loadout: InstructionLoadout, chunk_iters: int, cpu: CPUDescriptor
) -> float:
    """Table II's TLB-miss estimate (the model's only memory-system term).

    A thread's chunk touches roughly ``bytes_per_iter × chunk`` of data;
    every page beyond what the TLB covers costs one miss penalty.
    """
    bytes_per_iter = sum(
        w.weight * w.elem_bytes for w in loadout.access_weights
    )
    chunk_bytes = bytes_per_iter * chunk_iters
    pages = chunk_bytes / cpu.page_bytes
    covered = float(cpu.tlb_entries)
    misses = max(0.0, pages - covered)
    return misses * cpu.tlb_miss_penalty
