"""Reuse-distance locality model for affine loop nests.

The timing simulators need what the paper's analytical predictor lacks by
design: a memory-hierarchy model.  For each static memory access this
module estimates, from its per-loop strides and trip counts, where its data
is served from — giving an average access latency and the DRAM traffic it
generates.

The model classifies each dynamic execution of an access into three reuse
populations:

* **line hits** — the previous iteration of the innermost non-zero-stride
  ("carrier") loop touched the same cache line (spatial locality);
* **sweep repeats** — an enclosing loop with (near-)zero stride re-walks
  the same footprint; these hit in the smallest cache level that holds one
  sweep's footprint;
* **cold accesses** — first touches, served from the level that holds the
  whole array (warm caches across repetitions) or DRAM.

Accesses that differ only by a constant offset (stencil neighbours) are
grouped (:meth:`repro.ipda.IPDAResult.access_groups`): one group member
pays the full miss profile, the rest hit L1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CacheLevel",
    "MemoryHierarchy",
    "LoopExtent",
    "AccessSpec",
    "AccessLocality",
    "analyze_access",
]


@dataclass(frozen=True)
class CacheLevel:
    """One cache level as the locality model sees it."""

    name: str
    capacity_bytes: float  # effective capacity for the analysed entity
    latency_cycles: float

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")


@dataclass(frozen=True)
class MemoryHierarchy:
    """An ordered cache stack (L1 outward) plus the DRAM endpoint."""

    levels: tuple[CacheLevel, ...]
    dram_latency_cycles: float
    line_bytes: int

    def __post_init__(self):
        if not self.levels:
            raise ValueError("at least one cache level required")
        caps = [lv.capacity_bytes for lv in self.levels]
        if caps != sorted(caps):
            raise ValueError("cache levels must be ordered smallest first")

    @property
    def l1_latency(self) -> float:
        return self.levels[0].latency_cycles

    def level_holding(self, nbytes: float) -> CacheLevel | None:
        """Smallest level whose capacity covers ``nbytes`` (None = DRAM)."""
        for lv in self.levels:
            if nbytes <= lv.capacity_bytes:
                return lv
        return None

    def latency_for_footprint(self, nbytes: float) -> float:
        lv = self.level_holding(nbytes)
        return lv.latency_cycles if lv is not None else self.dram_latency_cycles


@dataclass(frozen=True)
class LoopExtent:
    """One enclosing loop from the access's perspective, innermost first.

    ``stride_elems`` is the element stride of the access along this loop's
    induction variable (``None`` = non-affine / unknown).
    """

    stride_elems: float | None
    trips: float

    def __post_init__(self):
        if self.trips < 1:
            raise ValueError("trips must be >= 1")


@dataclass(frozen=True)
class AccessSpec:
    """Everything the locality model needs about one static access."""

    elem_bytes: int
    loops: tuple[LoopExtent, ...]  # innermost first
    dynamic_count: float  # executions per analysed entity (thread/warp)
    array_bytes: float
    is_store: bool = False


@dataclass(frozen=True)
class AccessLocality:
    """Locality verdict for one static access."""

    avg_latency_cycles: float
    dram_bytes: float  # DRAM traffic over all dynamic executions
    cold_fraction: float
    repeat_fraction: float
    source: str  # where cold accesses are served from
    repeat_level: str  # where sweep repeats hit

    @property
    def l1_fraction(self) -> float:
        return max(0.0, 1.0 - self.cold_fraction - self.repeat_fraction)


def analyze_access(spec: AccessSpec, mem: MemoryHierarchy) -> AccessLocality:
    """Classify one access's dynamic executions into reuse populations."""
    line = mem.line_bytes
    e = spec.elem_bytes

    # Non-affine somewhere: conservatively random — every access cold.
    if any(lp.stride_elems is None for lp in spec.loops):
        return AccessLocality(
            avg_latency_cycles=mem.dram_latency_cycles,
            dram_bytes=spec.dynamic_count * line,
            cold_fraction=1.0,
            repeat_fraction=0.0,
            source="DRAM",
            repeat_level="-",
        )

    carrier_idx = None
    for i, lp in enumerate(spec.loops):
        if lp.stride_elems != 0:
            carrier_idx = i
            break

    if carrier_idx is None:
        # Fully loop-invariant: one cold touch, then a register/L1 resident.
        total = max(1.0, spec.dynamic_count)
        cold = 1.0 / total
        src_lat = mem.latency_for_footprint(spec.array_bytes)
        src = _name_for(mem, spec.array_bytes)
        avg = mem.l1_latency + cold * (src_lat - mem.l1_latency)
        return AccessLocality(
            avg_latency_cycles=avg,
            dram_bytes=(line if src == "DRAM" else 0.0),
            cold_fraction=cold,
            repeat_fraction=0.0,
            source=src,
            repeat_level="-",
        )

    carrier = spec.loops[carrier_idx]
    s_bytes = abs(carrier.stride_elems) * e
    if s_bytes >= line:
        lines_per_sweep = carrier.trips
    else:
        lines_per_sweep = max(1.0, math.ceil(carrier.trips * s_bytes / line))
    spatial_miss = min(1.0, lines_per_sweep / carrier.trips)
    footprint = lines_per_sweep * line

    # Walk outward: zero-stride loops repeat the sweep; sub-line strides
    # quasi-repeat it (line-granularity revisits); large strides stream.
    # A repeat only earns reuse while the footprint being revisited is
    # comparable to the largest cache — revisiting a sweep 4x bigger than
    # every cache is a re-stream, not a reuse; in between, a fraction
    # proportional to capacity/footprint survives eviction.
    max_capacity = mem.levels[-1].capacity_bytes
    repeats = 1.0
    innermost_repeat_footprint: float | None = None
    for lp in spec.loops[carrier_idx + 1 :]:
        s_o = abs(lp.stride_elems) * e
        if s_o == 0:
            if footprint > 4.0 * max_capacity:
                break
            if innermost_repeat_footprint is None:
                innermost_repeat_footprint = footprint
            repeats *= lp.trips
        elif s_o < line:
            if footprint > 4.0 * max_capacity:
                break
            if innermost_repeat_footprint is None:
                innermost_repeat_footprint = footprint
            repeats *= min(lp.trips, line / s_o)
            footprint = min(
                spec.array_bytes, footprint * max(1.0, lp.trips * s_o / line)
            )
        else:
            footprint = min(spec.array_bytes, footprint * lp.trips)
            break  # streaming: reuse beyond this loop is dead

    cold_fraction = spatial_miss / repeats
    repeat_fraction = spatial_miss - cold_fraction

    if innermost_repeat_footprint is not None:
        lv = mem.level_holding(innermost_repeat_footprint)
        if lv is not None:
            fit = 1.0
            repeat_lat = lv.latency_cycles
            repeat_name = lv.name
        else:
            # partially cache-resident sweep: the surviving fraction hits
            # the largest level, the rest spills to the cold source
            fit = max_capacity / innermost_repeat_footprint
            repeat_lat = mem.levels[-1].latency_cycles
            repeat_name = mem.levels[-1].name
        spill = repeat_fraction * (1.0 - fit)
        repeat_fraction -= spill
        cold_fraction += spill
    else:
        repeat_lat = mem.l1_latency
        repeat_name = "-"

    src_bytes = min(spec.array_bytes, footprint)
    src_lat = mem.latency_for_footprint(src_bytes)
    src_name = _name_for(mem, src_bytes)

    l1 = mem.l1_latency
    avg = (
        l1
        + cold_fraction * (src_lat - l1)
        + repeat_fraction * (repeat_lat - l1)
    )
    dram_bytes = (
        spec.dynamic_count * cold_fraction * line if src_name == "DRAM" else 0.0
    )
    if spec.is_store:
        # write-allocate + writeback: dirty lines return to DRAM eventually
        dram_bytes *= 2.0
    return AccessLocality(
        avg_latency_cycles=avg,
        dram_bytes=dram_bytes,
        cold_fraction=cold_fraction,
        repeat_fraction=repeat_fraction,
        source=src_name,
        repeat_level=repeat_name,
    )


def _name_for(mem: MemoryHierarchy, nbytes: float) -> str:
    lv = mem.level_holding(nbytes)
    return lv.name if lv is not None else "DRAM"
