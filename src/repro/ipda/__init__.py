"""IPDA: Iteration Point Difference Analysis (inter-thread stride analysis).

The hybrid-analysis improvement of Section IV.C: symbolic inter-thread
stride expressions built at compile time, resolved with runtime values, and
turned into coalescing classes / memory-transaction counts for the GPU
performance model.
"""

from .analysis import (
    AccessStride,
    BoundAccess,
    BoundIPDA,
    IPDAResult,
    analyze_region,
    group_accesses,
)
from .coalescing import (
    CoalescingClass,
    classify_stride,
    transactions_per_warp_access,
)

__all__ = [
    "AccessStride",
    "BoundAccess",
    "BoundIPDA",
    "IPDAResult",
    "analyze_region",
    "group_accesses",
    "CoalescingClass",
    "classify_stride",
    "transactions_per_warp_access",
]
