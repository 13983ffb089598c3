"""Matrix-vector benchmarks: ATAX, BICG, MVT, GESUMMV.

1-D parallel bands with a sequential contraction loop per work item — the
kernels whose transposed variants (ATAX k2, BICG k1, MVT k2) walk matrix
columns and exercise the coalescing/caching asymmetry between devices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..ir import Region
from .base import BenchmarkSpec, square_sizes

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ATAX", "BICG", "MVT", "GESUMMV"]


def _build_atax() -> list[Region]:
    # kernel 1: tmp = A x  (row walk, parallel over rows)
    k1 = Region("atax_k1")
    nx, ny = k1.param_tuple("nx", "ny")
    A = k1.array("A", (nx, ny))
    x = k1.array("x", (ny,))
    tmp = k1.array("tmp", (nx,), output=True)
    with k1.parallel_loop("i", nx) as i:
        acc = k1.local("acc", 0.0)
        with k1.loop("j", ny) as j:
            k1.assign(acc, acc + A[i, j] * x[j])
        k1.store(tmp[i], acc)

    # kernel 2: y = A^T tmp  (column walk, parallel over columns)
    k2 = Region("atax_k2")
    nx2, ny2 = k2.param_tuple("nx", "ny")
    A2 = k2.array("A", (nx2, ny2))
    tmp2 = k2.array("tmp", (nx2,))
    y = k2.array("y", (ny2,), output=True)
    with k2.parallel_loop("j", ny2) as j:
        acc = k2.local("acc", 0.0)
        with k2.loop("i", nx2) as i:
            k2.assign(acc, acc + A2[i, j] * tmp2[i])
        k2.store(y[j], acc)
    return [k1, k2]


def _ref_atax(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    A, x = arrays["A"], arrays["x"]
    arrays["tmp"][:] = A @ x
    arrays["y"][:] = A.T @ arrays["tmp"]


ATAX = BenchmarkSpec(
    name="atax",
    build=_build_atax,
    sizes=square_sizes("nx", "ny"),
    scalars_for=lambda env: {},
    reference=_ref_atax,
    description="y = A^T (A x) (two kernels)",
)


def _build_bicg() -> list[Region]:
    # kernel 1: s = r^T A (column walk, parallel over columns)
    k1 = Region("bicg_k1")
    nx, ny = k1.param_tuple("nx", "ny")
    A = k1.array("A", (nx, ny))
    rv = k1.array("r", (nx,))
    s = k1.array("s", (ny,), output=True)
    with k1.parallel_loop("j", ny) as j:
        acc = k1.local("acc", 0.0)
        with k1.loop("i", nx) as i:
            k1.assign(acc, acc + rv[i] * A[i, j])
        k1.store(s[j], acc)

    # kernel 2: q = A p (row walk, parallel over rows)
    k2 = Region("bicg_k2")
    nx2, ny2 = k2.param_tuple("nx", "ny")
    A2 = k2.array("A", (nx2, ny2))
    p = k2.array("p", (ny2,))
    q = k2.array("q", (nx2,), output=True)
    with k2.parallel_loop("i", nx2) as i:
        acc = k2.local("acc", 0.0)
        with k2.loop("j", ny2) as j:
            k2.assign(acc, acc + A2[i, j] * p[j])
        k2.store(q[i], acc)
    return [k1, k2]


def _ref_bicg(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    A = arrays["A"]
    arrays["s"][:] = arrays["r"] @ A
    arrays["q"][:] = A @ arrays["p"]


BICG = BenchmarkSpec(
    name="bicg",
    build=_build_bicg,
    sizes=square_sizes("nx", "ny"),
    scalars_for=lambda env: {},
    reference=_ref_bicg,
    description="s = r A; q = A p (two kernels)",
)


def _build_mvt() -> list[Region]:
    # kernel 1: x1 += A y1
    k1 = Region("mvt_k1")
    n = k1.param("n")
    A = k1.array("A", (n, n))
    y1 = k1.array("y1", (n,))
    x1 = k1.array("x1", (n,), inout=True)
    with k1.parallel_loop("i", n) as i:
        acc = k1.local("acc", x1[i])
        with k1.loop("j", n) as j:
            k1.assign(acc, acc + A[i, j] * y1[j])
        k1.store(x1[i], acc)

    # kernel 2: x2 += A^T y2 (column walk per work item)
    k2 = Region("mvt_k2")
    n2 = k2.param("n")
    A2 = k2.array("A", (n2, n2))
    y2 = k2.array("y2", (n2,))
    x2 = k2.array("x2", (n2,), inout=True)
    with k2.parallel_loop("i", n2) as i:
        acc = k2.local("acc", x2[i])
        with k2.loop("j", n2) as j:
            k2.assign(acc, acc + A2[j, i] * y2[j])
        k2.store(x2[i], acc)
    return [k1, k2]


def _ref_mvt(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    A = arrays["A"]
    arrays["x1"][:] = arrays["x1"] + A @ arrays["y1"]
    arrays["x2"][:] = arrays["x2"] + A.T @ arrays["y2"]


MVT = BenchmarkSpec(
    name="mvt",
    build=_build_mvt,
    sizes=square_sizes("n"),
    scalars_for=lambda env: {},
    reference=_ref_mvt,
    description="x1 += A y1; x2 += A^T y2 (two kernels)",
)


def _build_gesummv() -> list[Region]:
    r = Region("gesummv")
    n = r.param("n")
    A = r.array("A", (n, n))
    B = r.array("B", (n, n))
    x = r.array("x", (n,))
    y = r.array("y", (n,), output=True)
    alpha, beta = r.scalars("alpha", "beta")
    with r.parallel_loop("i", n) as i:
        ta = r.local("ta", 0.0)
        tb = r.local("tb", 0.0)
        with r.loop("j", n) as j:
            r.assign(ta, ta + A[i, j] * x[j])
            r.assign(tb, tb + B[i, j] * x[j])
        r.store(y[i], alpha * ta + beta * tb)
    return [r]


def _ref_gesummv(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    A, B, x = arrays["A"], arrays["B"], arrays["x"]
    arrays["y"][:] = scalars["alpha"] * (A @ x) + scalars["beta"] * (B @ x)


GESUMMV = BenchmarkSpec(
    name="gesummv",
    build=_build_gesummv,
    sizes=square_sizes("n"),
    scalars_for=lambda env: {"alpha": 1.5, "beta": 1.2},
    reference=_ref_gesummv,
    description="y = alpha*A*x + beta*B*x",
)
