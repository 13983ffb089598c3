"""The Program Attribute Database (Figure 2).

At "compile" time, the framework stores the static products of analysis for
every outlined target region: the symbolic IPDA strides, the instruction
loadout compiled to per-loop trip expressions and per-op-class monomials,
the symbolic parallel-iteration count, the reduction count, the grouping of
accesses the locality model shares misses over and, once per host CPU, the
lowered loop nest and its parallel band the MCA scoreboard prices.  At
execution time, the OpenMP runtime queries the entry by region key, binds
the missing runtime values, and hands completed model inputs to the
performance models; the simulators that stand in for the hardware price
the same record.  Every per-launch pass only evaluates these products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from ..ir import Loop, Region, count_reductions, validate_region
from ..ir.dataflow import RegionDataflow, analyze_transfers
from ..ipda import BoundIPDA, IPDAResult, analyze_region
from ..machines import CPUDescriptor
from ..mca import (
    LoweredLevel,
    find_band_level,
    lower_region,
    vectorized_access_indices,
)
from ..obs.tracer import current_tracer
from ..symbolic import Expr
from .features import InstructionLoadout, LoadoutPlan
from .tripcount import PAPER_LOOP_TRIPS, TripPlan, paper_trip_abstraction

__all__ = ["RegionAttributes", "BoundAttributes", "ProgramAttributeDatabase"]


@dataclass(frozen=True)
class RegionAttributes:
    """Compile-time record for one target region.

    Built from the region and its IPDA result.  Every other product
    depends on those two alone, so each is derived on first use and kept,
    outside the record's equality and repr; the lowered loop nest is kept
    once per host CPU.  A simulator or model handed a bare region builds
    a record it does not keep, so a bare call and a compiled one price
    the same products.
    """

    region: Region
    ipda: IPDAResult
    #: "declared" prices transfers from the map clauses (the default,
    #: bit-identical to the historical behaviour); "inferred" prices them
    #: from the dataflow analysis (drops provably wasted directions)
    transfer_mode: str = "declared"
    #: (host descriptor, its lowered tree, the tree's band level, the
    #: tree's vector-moved access indices) entries filled by ``_lowering``
    _bands: list[
        tuple[CPUDescriptor, LoweredLevel, LoweredLevel, frozenset[int]]
    ] = field(default_factory=list, init=False, compare=False, repr=False)

    @cached_property
    def band(self) -> tuple[Loop, ...]:
        """The parallel band, outermost first."""
        return tuple(self.region.parallel_band())

    @cached_property
    def parallel_iterations(self) -> Expr:
        """The symbolic number of parallel work items."""
        return self.region.parallel_iterations()

    @cached_property
    def _parallel_symbols(self) -> frozenset[str]:
        return self.parallel_iterations.free_symbols()

    @cached_property
    def required_symbols(self) -> frozenset[str]:
        """Every parameter the region reads."""
        return self.region.free_symbols()

    @cached_property
    def trip_plan(self) -> TripPlan:
        """The loop nest's trip expressions, in walk order."""
        return TripPlan.of(self.region)

    @cached_property
    def loadout_plan(self) -> LoadoutPlan:
        """The instruction loadout's per-op-class monomials over the trips."""
        return LoadoutPlan.of(self.region)

    @cached_property
    def static_loadout(self) -> InstructionLoadout:
        """The loadout under the paper's 128-iteration abstraction."""
        return self.loadout_plan.evaluate(paper_trip_abstraction)

    @cached_property
    def reductions(self) -> int:
        """Band-wide reduction statements (OpenMP reduction clauses)."""
        return count_reductions(self.region)

    @cached_property
    def access_groups(self) -> tuple[tuple[int, ...], ...]:
        """IPDA access indices that share one miss profile."""
        return self.ipda.access_groups()

    @cached_property
    def dataflow(self) -> RegionDataflow:
        """Array liveness and transfer directions (:mod:`repro.ir.dataflow`).

        Run on first read and kept: only ``transfer_mode == "inferred"``
        and the transfers experiment consult it.
        """
        return analyze_transfers(self.region)

    def _lowering(
        self, cpu: CPUDescriptor
    ) -> tuple[LoweredLevel, LoweredLevel, frozenset[int]]:
        """The region lowered for ``cpu``, its band level and its vector
        accesses, memoized.

        Lowering is compile-time work: it depends on the region and the
        host descriptor only, so each record lowers once per descriptor
        and every launch reuses the tree.  Descriptors are matched by
        value, not by name: a same-name variant built with
        ``dataclasses.replace`` (an ablation, a test) gets its own tree.
        """
        for known, tree, level, vectorized in self._bands:
            if known is cpu or known == cpu:
                return tree, level, vectorized
        tree = lower_region(self.region, cpu)
        level = find_band_level(tree)
        vectorized = vectorized_access_indices(tree)
        self._bands.append((cpu, tree, level, vectorized))
        return tree, level, vectorized

    def lowered(self, cpu: CPUDescriptor) -> LoweredLevel:
        """The region's whole loop nest lowered for ``cpu`` (vectorized).

        The CPU simulator prices this tree: ``simulate_cpu(attrs, cpu,
        env)``.
        """
        return self._lowering(cpu)[0]

    def band_level(self, cpu: CPUDescriptor) -> LoweredLevel:
        """The innermost parallel band level of :meth:`lowered` for ``cpu``."""
        return self._lowering(cpu)[1]

    def vectorized_accesses(self, cpu: CPUDescriptor) -> frozenset[int]:
        """IPDA access indices :meth:`lowered` moves with vector memory ops."""
        return self._lowering(cpu)[2]

    def bind(self, env: Mapping[str, int]) -> "BoundAttributes":
        """Complete the record with runtime values (Figure 2, runtime side).

        ``env`` binds region parameters (array extents / trip counts).
        Missing *inner* trip counts are tolerated — the paper's abstraction
        covers them — but the parallel iteration count must resolve.
        """
        missing = self._parallel_symbols - set(env)
        if missing:
            raise KeyError(
                f"region {self.region.name!r}: parallel iteration count needs "
                f"unbound symbols {sorted(missing)}"
            )
        runtime_loadout = self.loadout_plan.evaluate(
            self.trip_plan.trips(env, default=PAPER_LOOP_TRIPS)
        )
        bound_ipda = self.ipda.bind(env)
        if self.transfer_mode == "inferred":
            to_dev, to_host = self.dataflow.transfer_bytes(env)
        else:
            to_dev, to_host = self.region.transfer_bytes(env)
        return BoundAttributes(
            attributes=self,
            env=dict(env),
            parallel_iterations=int(self.parallel_iterations.evaluate(env)),
            loadout=runtime_loadout,
            ipda=bound_ipda,
            bytes_to_device=to_dev,
            bytes_to_host=to_host,
            transfer_mode=self.transfer_mode,
        )


@dataclass(frozen=True)
class BoundAttributes:
    """Runtime-completed model inputs for one region instance."""

    attributes: RegionAttributes
    env: Mapping[str, int]
    parallel_iterations: int
    loadout: InstructionLoadout
    ipda: BoundIPDA
    bytes_to_device: int
    bytes_to_host: int
    #: where the byte counts came from: "declared" map clauses or the
    #: "inferred" dataflow directions
    transfer_mode: str = "declared"

    @property
    def region(self) -> Region:
        return self.attributes.region


class ProgramAttributeDatabase:
    """Keyed store of compile-time attributes, queried by the runtime.

    Keys are region names (standing in for the paper's "program and
    location" index).

    ``inferred_transfers=True`` opts the database into pricing transfers
    from the array-liveness dataflow analysis instead of the declared map
    clauses: every record compiled here is stamped ``transfer_mode=
    "inferred"`` and ``bind`` drops the provably wasted directions.  The
    default (off) is bit-identical to the historical behaviour.
    """

    def __init__(self, *, inferred_transfers: bool = False) -> None:
        self._entries: dict[str, RegionAttributes] = {}
        self.inferred_transfers = inferred_transfers

    def compile_region(self, region: Region) -> RegionAttributes:
        """Run all static analyses on a region and store the record."""
        if region.name in self._entries:
            raise KeyError(f"region {region.name!r} already compiled")
        tracer = current_tracer()
        with tracer.span("compile", region=region.name):
            validate_region(region)
            with tracer.span("analyse", region=region.name) as sp:
                attrs = RegionAttributes(
                    region=region,
                    ipda=analyze_region(region),
                    transfer_mode=(
                        "inferred" if self.inferred_transfers else "declared"
                    ),
                )
                if tracer.enabled:
                    sp.set("accesses", len(attrs.ipda.accesses))
        self._entries[region.name] = attrs
        return attrs

    def lookup(self, region_name: str) -> RegionAttributes:
        """Fetch the compile-time record for a region; raises when absent."""
        try:
            return self._entries[region_name]
        except KeyError as exc:
            raise KeyError(
                f"no compiled attributes for region {region_name!r}"
            ) from exc

    def __contains__(self, region_name: str) -> bool:
        return region_name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def region_names(self) -> list[str]:
        return sorted(self._entries)
