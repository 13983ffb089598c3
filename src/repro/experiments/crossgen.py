"""Cross-generation sweep (the Section III study, generalized).

The paper compares two platform generations; with descriptors for Kepler,
Pascal and Volta the study generalizes: fix the host (POWER9), sweep the
attached accelerator and its bus, and watch offloading profitability evolve
kernel by kernel — "the idea is to underscore the need for accurate
analytical performance models and to provide insights in the evolution of
GPU accelerators".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import (
    AcceleratorSlot,
    NVLINK2,
    PCIE3_X16,
    POWER9,
    Platform,
    TESLA_K80,
    TESLA_P100,
    TESLA_V100,
)
from ..util import geomean, render_table
from .common import _database, _measure_case

__all__ = ["CrossGenResult", "run_crossgen", "GENERATIONS"]

#: The swept accelerator generations (device + the bus of its era).
GENERATIONS: tuple[Platform, ...] = (
    Platform("Kepler/PCIe", POWER9, (AcceleratorSlot(TESLA_K80, PCIE3_X16),)),
    Platform("Pascal/PCIe", POWER9, (AcceleratorSlot(TESLA_P100, PCIE3_X16),)),
    Platform("Volta/NVLink", POWER9, (AcceleratorSlot(TESLA_V100, NVLINK2),)),
)


@dataclass(frozen=True)
class CrossGenResult:
    mode: str
    generations: tuple[str, ...]
    rows: tuple[tuple[str, tuple[float, ...]], ...]  # kernel -> speedups

    def geomeans(self) -> tuple[float, ...]:
        return tuple(
            geomean([speedups[g] for _, speedups in self.rows])
            for g in range(len(self.generations))
        )

    def flips(self) -> list[str]:
        """Kernels whose offloading decision changes along the sweep."""
        out = []
        for kernel, speedups in self.rows:
            decisions = [s > 1.0 for s in speedups]
            if len(set(decisions)) > 1:
                out.append(kernel)
        return out

    def monotone_kernels(self) -> int:
        """Kernels whose speedup strictly improves with every generation."""
        return sum(
            1
            for _, sp in self.rows
            if all(b > a for a, b in zip(sp, sp[1:]))
        )

    def render(self) -> str:
        body = [
            [kernel] + [f"{s:.2f}x" for s in speedups]
            for kernel, speedups in self.rows
        ]
        body.append(["geomean"] + [f"{g:.2f}x" for g in self.geomeans()])
        table = render_table(
            ["kernel"] + list(self.generations),
            body,
            title=(
                f"Cross-generation offloading sweep on a {POWER9.name} host "
                f"({self.mode} datasets, 160 threads)"
            ),
        )
        return (
            table
            + f"\ndecision flips along the sweep: {', '.join(self.flips()) or 'none'}"
            + f"\nstrictly improving kernels: {self.monotone_kernels()}"
            f"/{len(self.rows)}"
        )


def run_crossgen(mode: str = "benchmark") -> CrossGenResult:
    """Sweep the three accelerator generations over the suite.

    Every generation prices the suite's compiled records, so each region
    runs IPDA and its POWER9 lowering once for the whole sweep.
    """
    db, cases = _database(mode)
    rows = []
    for case in cases:
        attrs = db.lookup(case.name)
        speedups = tuple(
            _measure_case(attrs, case, plat, None).true_speedup
            for plat in GENERATIONS
        )
        rows.append((case.name, speedups))
    return CrossGenResult(
        mode=mode,
        generations=tuple(p.name for p in GENERATIONS),
        rows=tuple(rows),
    )


if __name__ == "__main__":  # pragma: no cover
    for mode in ("test", "benchmark"):
        print(run_crossgen(mode).render())
        print()
