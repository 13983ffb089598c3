"""Memory-transaction math for warp accesses.

Given the inter-thread stride (in bytes) that IPDA derives for an access,
these helpers compute how many memory transactions one warp-wide access
generates, which is what turns a stride into the Hong model's
``#Coal_Mem_insts`` / ``#Uncoal_Mem_insts`` split and the simulator's DRAM
traffic.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["CoalescingClass", "transactions_per_warp_access", "classify_stride"]


class CoalescingClass(Enum):
    """Coalescing quality of one static memory access."""

    UNIFORM = "uniform"  # stride 0: all threads hit one address
    COALESCED = "coalesced"  # adjacent threads, adjacent elements
    PARTIAL = "partial"  # small stride: few transactions per warp
    UNCOALESCED = "uncoalesced"  # one transaction per thread
    UNKNOWN = "unknown"  # non-affine: assume worst case

    @property
    def is_coalesced(self) -> bool:
        """Whether the Hong model should count this as a coalesced access."""
        return self in (CoalescingClass.UNIFORM, CoalescingClass.COALESCED)


def transactions_per_warp_access(
    stride_bytes: int,
    elem_bytes: int,
    *,
    warp_size: int = 32,
    sector_bytes: int = 32,
) -> int:
    """Number of ``sector_bytes`` transactions one warp access generates.

    Assumes a sector-aligned base address (the compiler aligns array
    allocations), and counts the distinct sectors touched by ``warp_size``
    lanes reading ``elem_bytes`` each at byte offsets ``lane * stride_bytes``.
    """
    if elem_bytes <= 0 or warp_size <= 0 or sector_bytes <= 0:
        raise ValueError("sizes must be positive")
    stride_bytes = abs(int(stride_bytes))
    if stride_bytes % elem_bytes == 0 and sector_bytes % elem_bytes == 0:
        # Every lane's element then sits inside one sector, lane l's being
        # (l * stride) // sector: a stride of a sector or more gives each
        # lane its own, a shorter one advances by at most one per lane.
        # Strides IPDA reports are whole elements, so launches take this.
        if stride_bytes >= sector_bytes:
            return warp_size
        return (warp_size - 1) * stride_bytes // sector_bytes + 1
    sectors: set[int] = set()
    for lane in range(warp_size):
        first = (lane * stride_bytes) // sector_bytes
        last = (lane * stride_bytes + elem_bytes - 1) // sector_bytes
        sectors.update(range(first, last + 1))
    return len(sectors)


def classify_stride(
    stride_elems: int | None,
    elem_bytes: int,
    *,
    sector_bytes: int = 32,
) -> CoalescingClass:
    """Map an element stride to a coalescing class.

    ``None`` means IPDA could not build an affine difference (non-affine
    addressing) — the conservative answer is UNKNOWN/worst-case.
    """
    if stride_elems is None:
        return CoalescingClass.UNKNOWN
    stride_elems = int(stride_elems)
    if stride_elems == 0:
        return CoalescingClass.UNIFORM
    if abs(stride_elems) == 1:
        return CoalescingClass.COALESCED
    if abs(stride_elems) * elem_bytes <= sector_bytes:
        return CoalescingClass.PARTIAL
    return CoalescingClass.UNCOALESCED
