"""Datamining benchmarks: COVAR (3 kernels), CORR (4 kernels).

These are the paper's POWER9-favouring cases: every kernel carries
sequential inner loops "well-suited for SIMD vectorization" (Section III),
which our band-vectorizing lowering maps to the wider VSX capability of the
POWER9 descriptor.

Deviation from Polybench: the triangular ``j2 >= j1`` loops are made
rectangular (the full symmetric matrix is computed on both devices), and
CORR computes the full correlation matrix including the diagonal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..ir import Region, cmp, select, sqrt
from .base import BenchmarkSpec, square_sizes

if TYPE_CHECKING:
    import numpy as np

__all__ = ["COVAR", "CORR", "CORR_EPS"]

CORR_EPS = 0.1


def _mean_kernel(prefix: str) -> Region:
    r = Region(f"{prefix}_mean")
    n, m = r.param_tuple("n", "m")
    data = r.array("data", (n, m))
    mean = r.array("mean", (m,), output=True)
    float_n = r.scalar("float_n")
    with r.parallel_loop("j", m) as j:
        acc = r.local("acc", 0.0)
        with r.loop("i", n) as i:
            r.assign(acc, acc + data[i, j])
        r.store(mean[j], acc / float_n)
    return r


def _build_covar() -> list[Region]:
    k1 = _mean_kernel("covar")

    # kernel 2: centre the data
    k2 = Region("covar_reduce")
    n, m = k2.param_tuple("n", "m")
    data = k2.array("data", (n, m), inout=True)
    mean = k2.array("mean", (m,))
    with k2.parallel_loop("i", n) as i:
        with k2.parallel_loop("j", m) as j:
            k2.store(data[i, j], data[i, j] - mean[j])

    # kernel 3: symmat = data^T data (full symmetric matrix)
    k3 = Region("covar_covar")
    n3, m3 = k3.param_tuple("n", "m")
    data3 = k3.array("data", (n3, m3))
    symmat = k3.array("symmat", (m3, m3), output=True)
    with k3.parallel_loop("j1", m3) as j1:
        with k3.loop("j2", m3) as j2:
            acc = k3.local("acc", 0.0)
            with k3.loop("i", n3) as i:
                k3.assign(acc, acc + data3[i, j1] * data3[i, j2])
            k3.store(symmat[j1, j2], acc)
    return [k1, k2, k3]


def _ref_covar(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    import numpy as np

    data = arrays["data"]
    arrays["mean"][:] = data.sum(axis=0) / np.float32(scalars["float_n"])
    data -= arrays["mean"]
    arrays["symmat"][:] = data.T @ data


COVAR = BenchmarkSpec(
    name="covar",
    build=_build_covar,
    sizes=square_sizes("n", "m"),
    scalars_for=lambda env: {"float_n": float(env["n"])},
    reference=_ref_covar,
    description="covariance matrix (mean, centre, covar kernels)",
)


def _build_corr() -> list[Region]:
    k1 = _mean_kernel("corr")

    # kernel 2: per-column standard deviation with the epsilon guard
    k2 = Region("corr_std")
    n, m = k2.param_tuple("n", "m")
    data = k2.array("data", (n, m))
    mean = k2.array("mean", (m,))
    stddev = k2.array("stddev", (m,), output=True)
    float_n = k2.scalar("float_n")
    eps = k2.scalar("eps")
    with k2.parallel_loop("j", m) as j:
        acc = k2.local("acc", 0.0)
        with k2.loop("i", n) as i:
            d = k2.local("d", data[i, j] - mean[j])
            k2.assign(acc, acc + d * d)
        s = k2.local("s", sqrt(acc / float_n))
        k2.store(stddev[j], select(cmp("le", s, eps), 1.0, s))
    return_std = k2

    # kernel 3: centre and scale
    k3 = Region("corr_reduce")
    n3, m3 = k3.param_tuple("n", "m")
    data3 = k3.array("data", (n3, m3), inout=True)
    mean3 = k3.array("mean", (m3,))
    std3 = k3.array("stddev", (m3,))
    float_n3 = k3.scalar("float_n")
    with k3.parallel_loop("i", n3) as i:
        with k3.parallel_loop("j", m3) as j:
            k3.store(
                data3[i, j],
                (data3[i, j] - mean3[j]) / (sqrt(float_n3) * std3[j]),
            )

    # kernel 4: symmat = data^T data (full correlation matrix)
    k4 = Region("corr_corr")
    n4, m4 = k4.param_tuple("n", "m")
    data4 = k4.array("data", (n4, m4))
    symmat = k4.array("symmat", (m4, m4), output=True)
    with k4.parallel_loop("j1", m4) as j1:
        with k4.loop("j2", m4) as j2:
            acc = k4.local("acc", 0.0)
            with k4.loop("i", n4) as i:
                k4.assign(acc, acc + data4[i, j1] * data4[i, j2])
            k4.store(symmat[j1, j2], acc)
    return [k1, return_std, k3, k4]


def _ref_corr(arrays: dict[str, np.ndarray], scalars: Mapping[str, float]) -> None:
    import numpy as np

    data = arrays["data"]
    float_n = np.float32(scalars["float_n"])
    mean = data.sum(axis=0) / float_n
    arrays["mean"][:] = mean
    std = np.sqrt(((data - mean) ** 2).sum(axis=0) / float_n)
    std = np.where(std <= np.float32(scalars["eps"]), np.float32(1.0), std)
    arrays["stddev"][:] = std
    data -= mean
    data /= np.sqrt(float_n) * std
    arrays["symmat"][:] = data.T @ data


CORR = BenchmarkSpec(
    name="corr",
    build=_build_corr,
    sizes=square_sizes("n", "m"),
    scalars_for=lambda env: {"float_n": float(env["n"]), "eps": CORR_EPS},
    reference=_ref_corr,
    description="correlation matrix (mean, std, reduce, corr kernels)",
)
