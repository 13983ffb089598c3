"""Convolution stencils: 2DCONV, 3DCONV.

Low arithmetic intensity, fully streaming — the kernels whose offloading
profitability flips between GPU generations in the paper's Table I (3DCONV:
2.1x slowdown on K80/PCIe, 4.41x speedup on V100/NVLink).

The 3-D convolution uses cubic grids (the only suite members whose dataset
extents are not 1100/9600; see DESIGN.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..ir import Region
from .base import BenchmarkSpec, square_sizes

if TYPE_CHECKING:
    import numpy as np

__all__ = ["CONV2D", "CONV3D", "CONV3D_TEST_SIZE", "CONV3D_BENCHMARK_SIZE"]

# Polybench-GPU convolution coefficients.
C11, C12, C13 = +0.2, -0.3, +0.4
C21, C22, C23 = +0.5, +0.6, +0.7
C31, C32, C33 = -0.8, -0.9, +0.10

CONV3D_TEST_SIZE = 256
CONV3D_BENCHMARK_SIZE = 640


def _build_conv2d() -> list[Region]:
    r = Region("2dconv")
    ni, nj = r.param_tuple("ni", "nj")
    A = r.array("A", (ni, nj))
    B = r.array("B", (ni, nj), output=True)
    with r.parallel_loop("i", ni - 2, start=1) as i:
        with r.parallel_loop("j", nj - 2, start=1) as j:
            r.store(
                B[i, j],
                C11 * A[i - 1, j - 1]
                + C12 * A[i + 0, j - 1]
                + C13 * A[i + 1, j - 1]
                + C21 * A[i - 1, j + 0]
                + C22 * A[i + 0, j + 0]
                + C23 * A[i + 1, j + 0]
                + C31 * A[i - 1, j + 1]
                + C32 * A[i + 0, j + 1]
                + C33 * A[i + 1, j + 1],
            )
    return [r]


def _ref_conv2d(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    import numpy as np

    A, B = arrays["A"], arrays["B"]
    acc = np.zeros_like(A[1:-1, 1:-1], dtype=np.float64)
    coeffs = {
        (-1, -1): C11, (0, -1): C12, (1, -1): C13,
        (-1, 0): C21, (0, 0): C22, (1, 0): C23,
        (-1, 1): C31, (0, 1): C32, (1, 1): C33,
    }
    n0, n1 = A.shape
    for (di, dj), c in coeffs.items():
        acc += np.float32(c) * A[1 + di : n0 - 1 + di, 1 + dj : n1 - 1 + dj].astype(
            np.float64
        )
    B[1:-1, 1:-1] = acc.astype(B.dtype)


CONV2D = BenchmarkSpec(
    name="2dconv",
    build=_build_conv2d,
    sizes=square_sizes("ni", "nj"),
    scalars_for=lambda env: {},
    reference=_ref_conv2d,
    description="3x3 convolution over a 2-D grid",
)


def _build_conv3d() -> list[Region]:
    r = Region("3dconv")
    ni, nj, nk = r.param_tuple("ni", "nj", "nk")
    A = r.array("A", (ni, nj, nk))
    B = r.array("B", (ni, nj, nk), output=True)
    with r.parallel_loop("i", ni - 2, start=1) as i:
        with r.parallel_loop("j", nj - 2, start=1) as j:
            with r.loop("k", nk - 2, start=1) as k:
                r.store(
                    B[i, j, k],
                    C11 * A[i - 1, j - 1, k - 1]
                    + C13 * A[i + 1, j - 1, k - 1]
                    + C21 * A[i - 1, j - 1, k - 1]
                    + C23 * A[i + 1, j - 1, k - 1]
                    + C31 * A[i - 1, j - 1, k - 1]
                    + C33 * A[i + 1, j - 1, k - 1]
                    + C12 * A[i + 0, j - 1, k + 0]
                    + C22 * A[i + 0, j + 0, k + 0]
                    + C32 * A[i + 0, j + 1, k + 0]
                    + C11 * A[i - 1, j - 1, k + 1]
                    + C13 * A[i + 1, j - 1, k + 1]
                    + C21 * A[i - 1, j + 0, k + 1]
                    + C23 * A[i + 1, j + 0, k + 1]
                    + C31 * A[i - 1, j + 1, k + 1]
                    + C33 * A[i + 1, j + 1, k + 1],
                )
    return [r]


def _ref_conv3d(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    import numpy as np

    A, B = arrays["A"], arrays["B"]
    terms = [
        (C11, (-1, -1, -1)), (C13, (1, -1, -1)),
        (C21, (-1, -1, -1)), (C23, (1, -1, -1)),
        (C31, (-1, -1, -1)), (C33, (1, -1, -1)),
        (C12, (0, -1, 0)), (C22, (0, 0, 0)), (C32, (0, 1, 0)),
        (C11, (-1, -1, 1)), (C13, (1, -1, 1)),
        (C21, (-1, 0, 1)), (C23, (1, 0, 1)),
        (C31, (-1, 1, 1)), (C33, (1, 1, 1)),
    ]
    n0, n1, n2 = A.shape
    acc = np.zeros_like(A[1:-1, 1:-1, 1:-1], dtype=np.float64)
    for c, (di, dj, dk) in terms:
        acc += np.float32(c) * A[
            1 + di : n0 - 1 + di, 1 + dj : n1 - 1 + dj, 1 + dk : n2 - 1 + dk
        ].astype(np.float64)
    B[1:-1, 1:-1, 1:-1] = acc.astype(B.dtype)


CONV3D = BenchmarkSpec(
    name="3dconv",
    build=_build_conv3d,
    sizes={
        "test": {p: CONV3D_TEST_SIZE for p in ("ni", "nj", "nk")},
        "benchmark": {p: CONV3D_BENCHMARK_SIZE for p in ("ni", "nj", "nk")},
    },
    scalars_for=lambda env: {},
    reference=_ref_conv3d,
    description="27-point-style convolution over a 3-D grid",
)
