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
from typing import Mapping

from ..ir import Region
from ..ir.parser import parse_index
from ..ir.printer import region_to_text
from ..ir.visit import MemoryAccess, memory_accesses
from ..obs.tracer import current_tracer
from ..parallel.cache import current_cache
from ..symbolic import Expr, NonAffineError, decompose_affine
from .coalescing import CoalescingClass, classify_stride, transactions_per_warp_access

__all__ = [
    "AccessStride",
    "BoundAccess",
    "IPDAResult",
    "BoundIPDA",
    "analyze_region",
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

    def coalesced_fraction(self) -> float:
        """Fraction of static accesses that coalesce (1.0 when no accesses)."""
        if not self.accesses:
            return 1.0
        coal, _ = self.counts()
        return coal / len(self.accesses)

    def mean_transactions(self) -> float:
        """Average transactions per warp-level memory access."""
        if not self.accesses:
            return 1.0
        return sum(a.transactions_per_access for a in self.accesses) / len(
            self.accesses
        )


def analyze_region(region: Region) -> IPDAResult:
    """Run IPDA over a region at compile time.

    Returns symbolic strides; unknowns stay as ``[sym]`` placeholders, to be
    bound by :meth:`IPDAResult.bind` at kernel-launch time.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return _cached_analyze(region)
    with tracer.span("ipda.analyze", region=region.name) as sp:
        result = _cached_analyze(region)
        sp.set("accesses", len(result.accesses))
        return result


def _cached_analyze(region: Region) -> IPDAResult:
    """Consult the persistent analysis cache before running IPDA.

    Cached entries store only the *symbolic strides* (as ``Expr`` reprs,
    which round-trip exactly through :func:`repro.ir.parse_index`); the
    per-access ``MemoryAccess`` handles are rehydrated from the region
    itself — :func:`memory_accesses` enumerates them in a fixed order —
    so the expensive affine decomposition is what gets skipped.  An
    entry whose access count no longer matches the region is treated as
    corrupt: recomputed, never trusted.
    """
    cache = current_cache()
    if not cache.enabled:
        return _analyze_region(region)
    text = region_to_text(region)
    entry = cache.get_or_compute(
        "ipda.analyze",
        text,
        None,
        lambda: _encode_ipda(_analyze_region(region)),
        validate=_valid_ipda_entry,
    )
    result = _decode_ipda(region, entry)
    if result is None:  # stale shape: recompute and overwrite
        result = _analyze_region(region)
    return result


def _encode_ipda(result: IPDAResult) -> dict:
    return {
        "band_vars": list(result.band_vars),
        "accesses": [
            {
                "thread_stride": (
                    None if a.thread_stride is None else repr(a.thread_stride)
                ),
                "loop_strides": {
                    var: repr(e) for var, e in sorted(a.loop_strides.items())
                },
            }
            for a in result.accesses
        ],
    }


def _valid_ipda_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("band_vars"), list)
        and isinstance(entry.get("accesses"), list)
        and all(
            isinstance(a, dict) and isinstance(a.get("loop_strides"), dict)
            for a in entry["accesses"]
        )
    )


def _decode_ipda(region: Region, entry: dict) -> IPDAResult | None:
    accesses = list(memory_accesses(region))
    if len(accesses) != len(entry["accesses"]):
        return None
    out: list[AccessStride] = []
    for acc, stored in zip(accesses, entry["accesses"]):
        ts = stored["thread_stride"]
        out.append(
            AccessStride(
                acc,
                None if ts is None else parse_index(ts),
                {
                    var: parse_index(e)
                    for var, e in stored["loop_strides"].items()
                },
            )
        )
    return IPDAResult(region.name, tuple(entry["band_vars"]), tuple(out))


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
