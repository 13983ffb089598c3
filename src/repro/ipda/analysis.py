"""Iteration Point Difference Analysis (IPDA).

Reimplementation of the inter-thread stride analysis of Chikin et al. [12]
as applied in Section IV.C of the paper: for every memory access in an
OpenMP parallel loop, build the *symbolic difference* between the addresses
touched by two adjacent GPU threads.

For the paper's running example::

    #pragma omp teams distribute parallel for
    for (int a = 0; a < max; a++)
        A[max * a] = ...

the flattened index is ``max * a``; with thread ``t`` executing iteration
``a = t``, the inter-thread difference is

    IPD_th = [max]*(t+1) - [max]*t = [max]

a *symbolic* stride that the runtime resolves right before kernel launch.

Thread mapping
--------------
The outermost contiguous parallel band is collapsed row-major into a linear
thread space (this mirrors the compiler's ``collapse`` lowering).  Adjacent
threads therefore differ by +1 in the *innermost* band variable, so the
inter-thread difference of an affine index is exactly the coefficient of
that variable in the affine decomposition.  (Threads on a collapse boundary
wrap around; they are a 1/extent fraction of warps and are ignored, as in
the original IPDA formulation.)

Besides the GPU inter-thread stride, the analysis also records, per access,
the stride along each *sequential* loop — the CPU model uses the innermost
sequential stride for vectorization/cache behaviour, and the CPU false-
sharing indicator mentioned in Section II.C falls out of the same math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from ..ir import Region
from ..ir.visit import MemoryAccess, memory_accesses
from ..obs.tracer import current_tracer
from ..symbolic import Expr, NonAffineError, decompose_affine
from .coalescing import CoalescingClass, classify_stride, transactions_per_warp_access

__all__ = [
    "AccessStride",
    "BoundAccess",
    "IPDAResult",
    "BoundIPDA",
    "analyze_region",
    "group_accesses",
]


@dataclass(frozen=True)
class AccessStride:
    """Symbolic stride information for one static memory access.

    ``thread_stride`` is the inter-thread element stride (``None`` when the
    index is non-affine in the band variables); ``loop_strides`` maps every
    enclosing loop variable — parallel band variables included — to the
    element stride along it (the locality model consumes all of them).
    """

    access: MemoryAccess
    thread_stride: Expr | None
    loop_strides: Mapping[str, Expr]

    @property
    def is_store(self) -> bool:
        return self.access.is_store

    @property
    def elem_bytes(self) -> int:
        return self.access.dtype.size

    def innermost_sequential_stride(self) -> Expr | None:
        """Stride along the innermost enclosing sequential loop, if any."""
        for lp in reversed(self.access.loop_path):
            if not lp.parallel:
                return self.loop_strides.get(lp.var.name)
        return None


@dataclass(frozen=True)
class BoundAccess:
    """An access with its stride resolved to numbers (post runtime binding)."""

    stride: AccessStride
    thread_stride_elems: int | None
    coalescing: CoalescingClass
    transactions_per_access: int
    false_sharing_risk: bool

    @property
    def is_coalesced(self) -> bool:
        return self.coalescing.is_coalesced


@dataclass(frozen=True)
class IPDAResult:
    """Compile-time product of IPDA over one region.

    Stored in the Program Attribute Database; :meth:`bind` is what the
    OpenMP runtime calls when the region is reached and the unknowns (array
    extents, trip counts) are finally known.
    """

    region_name: str
    band_vars: tuple[str, ...]
    accesses: tuple[AccessStride, ...]

    def free_symbols(self) -> frozenset[str]:
        syms: set[str] = set()
        for a in self.accesses:
            if a.thread_stride is not None:
                syms |= a.thread_stride.free_symbols()
        return frozenset(syms)

    def access_groups(self) -> tuple[tuple[int, ...], ...]:
        """Indices of the accesses that share one miss profile.

        Accesses to one array with equal strides along every enclosing
        loop (stencil neighbours) touch the same lines modulo a constant
        offset; the locality model prices the first of each group.
        """
        keys = [
            (
                a.access.array.name,
                tuple(
                    (lp.var.name, repr(a.loop_strides.get(lp.var.name)))
                    for lp in a.access.loop_path
                ),
            )
            for a in self.accesses
        ]
        return tuple(tuple(group) for group in group_accesses(keys))

    def bind(
        self,
        env: Mapping[str, int],
        *,
        warp_size: int = 32,
        sector_bytes: int = 32,
        cacheline_bytes: int = 128,
    ) -> "BoundIPDA":
        """Resolve all symbolic strides with runtime values.

        ``env`` must bind every free symbol; this is the Figure-2 step where
        the runtime feeds dynamic values into the stored expressions.
        """
        bound: list[BoundAccess] = []
        for a in self.accesses:
            if a.thread_stride is None:
                stride_val: int | None = None
            else:
                stride_val = int(a.thread_stride.evaluate(env))
            cls = classify_stride(stride_val, a.elem_bytes, sector_bytes=sector_bytes)
            if stride_val is None:
                txn = warp_size  # worst case: one transaction per lane
            else:
                txn = transactions_per_warp_access(
                    stride_val * a.elem_bytes,
                    a.elem_bytes,
                    warp_size=warp_size,
                    sector_bytes=sector_bytes,
                )
            false_sharing = bool(
                a.is_store
                and stride_val is not None
                and 0 < abs(stride_val) * a.elem_bytes < cacheline_bytes
            )
            bound.append(
                BoundAccess(
                    stride=a,
                    thread_stride_elems=stride_val,
                    coalescing=cls,
                    transactions_per_access=txn,
                    false_sharing_risk=false_sharing,
                )
            )
        return BoundIPDA(self.region_name, tuple(bound))


@dataclass(frozen=True)
class BoundIPDA:
    """Runtime-resolved coalescing characteristics of a region."""

    region_name: str
    accesses: tuple[BoundAccess, ...]

    def counts(self) -> tuple[int, int]:
        """(#coalesced, #uncoalesced) static memory instructions."""
        coal = sum(1 for a in self.accesses if a.is_coalesced)
        return coal, len(self.accesses) - coal


def group_accesses(keys: Sequence[Hashable]) -> list[list[int]]:
    """Group access indices whose keys match, in first-seen order."""
    table: dict[Hashable, list[int]] = {}
    for i, k in enumerate(keys):
        table.setdefault(k, []).append(i)
    return list(table.values())


def analyze_region(region: Region) -> IPDAResult:
    """Run IPDA over a region at compile time.

    Returns symbolic strides; unknowns stay as ``[sym]`` placeholders, to be
    bound by :meth:`IPDAResult.bind` at kernel-launch time.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return _analyze_region(region)
    with tracer.span("ipda.analyze", region=region.name) as sp:
        result = _analyze_region(region)
        sp.set("accesses", len(result.accesses))
        return result


def _analyze_region(region: Region) -> IPDAResult:
    band = region.parallel_band()
    band_vars = tuple(lp.var.name for lp in band)
    innermost_band = band_vars[-1]

    out: list[AccessStride] = []
    for acc in memory_accesses(region):
        ivars = frozenset(lp.var.name for lp in acc.loop_path)
        flat = acc.flat_index()
        try:
            form = decompose_affine(flat, ivars)
        except NonAffineError:
            out.append(AccessStride(acc, None, {}))
            continue
        # Inter-thread stride = coefficient of the innermost band variable.
        # Accesses hoisted above the band (none in our IR shape, since the
        # band is outermost) would be uniform.
        if innermost_band in ivars:
            thread_stride: Expr | None = form.coefficient(innermost_band)
        else:  # pragma: no cover - band is always outermost in valid regions
            thread_stride = None
        loop_strides = {
            lp.var.name: form.coefficient(lp.var.name) for lp in acc.loop_path
        }
        out.append(AccessStride(acc, thread_stride, loop_strides))
    return IPDAResult(region.name, band_vars, tuple(out))
