"""Symmetric rank-k updates: SYRK, SYR2K.

Both kernels read ``A[j][k]`` with the *band* variable ``j`` scaling a row
stride — the uncoalesced access pattern the paper's Section IV.E discusses
for the SYRK/SYR2K prediction outliers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..ir import Region
from .base import BenchmarkSpec, square_sizes

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SYRK", "SYR2K"]


def _build_syrk() -> list[Region]:
    r = Region("syrk")
    n, m = r.param_tuple("n", "m")
    A = r.array("A", (n, m))
    C = r.array("C", (n, n), inout=True)
    alpha, beta = r.scalars("alpha", "beta")
    with r.parallel_loop("i", n) as i:
        with r.parallel_loop("j", n) as j:
            acc = r.local("acc", C[i, j] * beta)
            with r.loop("k", m) as k:
                r.assign(acc, acc + alpha * A[i, k] * A[j, k])
            r.store(C[i, j], acc)
    return [r]


def _ref_syrk(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    A, C = arrays["A"], arrays["C"]
    C[:] = scalars["alpha"] * (A @ A.T) + scalars["beta"] * C


SYRK = BenchmarkSpec(
    name="syrk",
    build=_build_syrk,
    sizes=square_sizes("n", "m"),
    scalars_for=lambda env: {"alpha": 1.5, "beta": 1.2},
    reference=_ref_syrk,
    description="C = alpha*A*A^T + beta*C",
)


def _build_syr2k() -> list[Region]:
    r = Region("syr2k")
    n, m = r.param_tuple("n", "m")
    A = r.array("A", (n, m))
    B = r.array("B", (n, m))
    C = r.array("C", (n, n), inout=True)
    alpha, beta = r.scalars("alpha", "beta")
    with r.parallel_loop("i", n) as i:
        with r.parallel_loop("j", n) as j:
            acc = r.local("acc", C[i, j] * beta)
            with r.loop("k", m) as k:
                r.assign(acc, acc + alpha * A[i, k] * B[j, k])
                r.assign(acc, acc + alpha * B[i, k] * A[j, k])
            r.store(C[i, j], acc)
    return [r]


def _ref_syr2k(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    A, B, C = arrays["A"], arrays["B"], arrays["C"]
    C[:] = (
        scalars["alpha"] * (A @ B.T)
        + scalars["alpha"] * (B @ A.T)
        + scalars["beta"] * C
    )


SYR2K = BenchmarkSpec(
    name="syr2k",
    build=_build_syr2k,
    sizes=square_sizes("n", "m"),
    scalars_for=lambda env: {"alpha": 1.5, "beta": 1.2},
    reference=_ref_syr2k,
    description="C = alpha*(A*B^T + B*A^T) + beta*C",
)
