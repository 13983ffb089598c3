"""Matrix-multiplication benchmarks: GEMM, 2MM, 3MM.

All use the Polybench-ACC OpenMP-offload parallelization: the 2-D output
space is a collapse(2) parallel band, the contraction loop stays inside
each thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..ir import Region
from .base import BenchmarkSpec, square_sizes

if TYPE_CHECKING:
    import numpy as np

__all__ = ["GEMM", "TWO_MM", "THREE_MM"]


def _build_gemm() -> list[Region]:
    r = Region("gemm")
    ni, nj, nk = r.param_tuple("ni", "nj", "nk")
    A = r.array("A", (ni, nk))
    B = r.array("B", (nk, nj))
    C = r.array("C", (ni, nj), inout=True)
    alpha, beta = r.scalars("alpha", "beta")
    with r.parallel_loop("i", ni) as i:
        with r.parallel_loop("j", nj) as j:
            acc = r.local("acc", C[i, j] * beta)
            with r.loop("k", nk) as k:
                r.assign(acc, acc + alpha * A[i, k] * B[k, j])
            r.store(C[i, j], acc)
    return [r]


def _ref_gemm(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    A, B, C = arrays["A"], arrays["B"], arrays["C"]
    C[:] = scalars["alpha"] * (A @ B) + scalars["beta"] * C


GEMM = BenchmarkSpec(
    name="gemm",
    build=_build_gemm,
    sizes=square_sizes("ni", "nj", "nk"),
    scalars_for=lambda env: {"alpha": 1.5, "beta": 1.2},
    reference=_ref_gemm,
    description="C = alpha*A*B + beta*C",
)


def _build_2mm() -> list[Region]:
    # kernel 1: tmp = alpha * A * B
    k1 = Region("2mm_k1")
    ni, nj, nk = k1.param_tuple("ni", "nj", "nk")
    A = k1.array("A", (ni, nk))
    B = k1.array("B", (nk, nj))
    tmp = k1.array("tmp", (ni, nj), output=True)
    alpha = k1.scalar("alpha")
    with k1.parallel_loop("i", ni) as i:
        with k1.parallel_loop("j", nj) as j:
            acc = k1.local("acc", 0.0)
            with k1.loop("k", nk) as k:
                k1.assign(acc, acc + alpha * A[i, k] * B[k, j])
            k1.store(tmp[i, j], acc)

    # kernel 2: D = tmp * C + beta * D
    k2 = Region("2mm_k2")
    ni2, nj2, nl = k2.param_tuple("ni", "nj", "nl")
    tmp2 = k2.array("tmp", (ni2, nj2))
    C = k2.array("C", (nj2, nl))
    D = k2.array("D", (ni2, nl), inout=True)
    beta = k2.scalar("beta")
    with k2.parallel_loop("i", ni2) as i:
        with k2.parallel_loop("j", nl) as j:
            acc = k2.local("acc", D[i, j] * beta)
            with k2.loop("k", nj2) as k:
                k2.assign(acc, acc + tmp2[i, k] * C[k, j])
            k2.store(D[i, j], acc)
    return [k1, k2]


def _ref_2mm(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    A, B, C, D = arrays["A"], arrays["B"], arrays["C"], arrays["D"]
    arrays["tmp"][:] = scalars["alpha"] * (A @ B)
    D[:] = arrays["tmp"] @ C + scalars["beta"] * D


TWO_MM = BenchmarkSpec(
    name="2mm",
    build=_build_2mm,
    sizes=square_sizes("ni", "nj", "nk", "nl"),
    scalars_for=lambda env: {"alpha": 1.5, "beta": 1.2},
    reference=_ref_2mm,
    description="D = alpha*A*B*C + beta*D (two kernels)",
)


def _build_3mm() -> list[Region]:
    # E = A * B
    k1 = Region("3mm_k1")
    ni, nj, nk = k1.param_tuple("ni", "nj", "nk")
    A = k1.array("A", (ni, nk))
    B = k1.array("B", (nk, nj))
    E = k1.array("E", (ni, nj), output=True)
    with k1.parallel_loop("i", ni) as i:
        with k1.parallel_loop("j", nj) as j:
            acc = k1.local("acc", 0.0)
            with k1.loop("k", nk) as k:
                k1.assign(acc, acc + A[i, k] * B[k, j])
            k1.store(E[i, j], acc)

    # F = C * D
    k2 = Region("3mm_k2")
    nj2, nl, nm = k2.param_tuple("nj", "nl", "nm")
    C = k2.array("C", (nj2, nm))
    Dm = k2.array("D", (nm, nl))
    F = k2.array("F", (nj2, nl), output=True)
    with k2.parallel_loop("i", nj2) as i:
        with k2.parallel_loop("j", nl) as j:
            acc = k2.local("acc", 0.0)
            with k2.loop("k", nm) as k:
                k2.assign(acc, acc + C[i, k] * Dm[k, j])
            k2.store(F[i, j], acc)

    # G = E * F
    k3 = Region("3mm_k3")
    ni3, nj3, nl3 = k3.param_tuple("ni", "nj", "nl")
    E3 = k3.array("E", (ni3, nj3))
    F3 = k3.array("F", (nj3, nl3))
    G = k3.array("G", (ni3, nl3), output=True)
    with k3.parallel_loop("i", ni3) as i:
        with k3.parallel_loop("j", nl3) as j:
            acc = k3.local("acc", 0.0)
            with k3.loop("k", nj3) as k:
                k3.assign(acc, acc + E3[i, k] * F3[k, j])
            k3.store(G[i, j], acc)
    return [k1, k2, k3]


def _ref_3mm(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    arrays["E"][:] = arrays["A"] @ arrays["B"]
    arrays["F"][:] = arrays["C"] @ arrays["D"]
    arrays["G"][:] = arrays["E"] @ arrays["F"]


THREE_MM = BenchmarkSpec(
    name="3mm",
    build=_build_3mm,
    sizes=square_sizes("ni", "nj", "nk", "nl", "nm"),
    scalars_for=lambda env: {},
    reference=_ref_3mm,
    description="G = (A*B)*(C*D) (three kernels)",
)
