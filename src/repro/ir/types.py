"""Scalar data types of the kernel IR.

Polybench/ACC GPU codes use ``DATA_TYPE float`` by default, so ``f32`` is the
workhorse type; ``f64``/integers exist for completeness and for index
computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DType", "f32", "f64", "i32", "i64"]


@dataclass(frozen=True)
class DType:
    """A scalar element type.

    Attributes
    ----------
    name:
        Short LLVM-like name (``f32``, ``i64``...).
    size:
        Width in bytes — drives memory-traffic and coalescing computations.
    is_float:
        Whether arithmetic on this type goes to the FP pipes.
    """

    name: str
    size: int
    is_float: bool

    @property
    def np(self) -> np.dtype:
        """The matching numpy dtype (for the functional executor)."""
        import numpy as np

        return np.dtype(
            {
                "f32": np.float32,
                "f64": np.float64,
                "i32": np.int32,
                "i64": np.int64,
            }[self.name]
        )

    def __repr__(self) -> str:
        return self.name


f32 = DType("f32", 4, True)
f64 = DType("f64", 8, True)
i32 = DType("i32", 4, False)
i64 = DType("i64", 8, False)
