"""Polybench suite infrastructure.

Each benchmark is described by a :class:`BenchmarkSpec`: a builder that
returns its target regions (kernels) in program order, the ``test`` /
``benchmark`` dataset sizes of the paper (1100² and 9600² "in most
programs"; the 3-D convolution uses cubic grids), scalar arguments, and a
numpy reference oracle used by the correctness tests.

Deviations from Polybench/ACC, recorded here and in DESIGN.md:

* data type is ``float`` (f32), the Polybench-GPU default;
* the triangular ``j2 >= j1`` loops of COVAR/CORR are made rectangular
  (full symmetric matrix computed) — identical work on both devices, so
  relative CPU/GPU results are unaffected;
* each kernel is a single ``target`` region with the parallelization
  Polybench-ACC's OpenMP-offload codes use (collapse(2) for 2-D outputs,
  1-D ``parallel for`` for vector outputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from ..ir import Region

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BenchmarkSpec", "KernelCase", "MODES", "TEST_SIZE", "BENCHMARK_SIZE"]

#: The paper's two execution modes and their square-matrix extents.
TEST_SIZE = 1100
BENCHMARK_SIZE = 9600
MODES = ("test", "benchmark")


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Polybench benchmark: kernels + datasets + oracle."""

    name: str
    build: Callable[[], list[Region]]
    sizes: Mapping[str, Mapping[str, int]]  # mode -> size params
    scalars_for: Callable[[Mapping[str, int]], dict[str, float]]
    reference: Callable[[dict[str, np.ndarray], Mapping[str, float]], None]
    description: str = ""

    def env(self, mode: str) -> dict[str, int]:
        """Size-parameter bindings for a mode ('test' or 'benchmark')."""
        if mode not in self.sizes:
            raise KeyError(f"{self.name} has no dataset {mode!r}")
        return dict(self.sizes[mode])

    def kernels(self, mode: str) -> list["KernelCase"]:
        """Fresh kernel cases (region + bindings) for one mode."""
        env = self.env(mode)
        scalars = self.scalars_for(env)
        return [
            KernelCase(
                benchmark=self.name,
                mode=mode,
                region=region,
                env=env,
                scalars=scalars,
            )
            for region in self.build()
        ]


@dataclass(frozen=True)
class KernelCase:
    """One kernel of one benchmark at one dataset size."""

    benchmark: str
    mode: str
    region: Region
    env: Mapping[str, int]
    scalars: Mapping[str, float]

    @property
    def name(self) -> str:
        return self.region.name

    def __repr__(self) -> str:
        return f"<{self.name} [{self.mode}]>"


def square_sizes(*params: str) -> dict[str, dict[str, int]]:
    """test/benchmark size maps binding every param to the square extents."""
    return {
        "test": {p: TEST_SIZE for p in params},
        "benchmark": {p: BENCHMARK_SIZE for p in params},
    }
