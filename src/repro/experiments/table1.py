"""Table I — GPU offloading benefit across GPU generations.

Per Polybench kernel, the speedup of GPU offloading (transfers included)
over the 160-thread host, on POWER8+K80 (PCI-E) and POWER9+V100 (NVLink 2),
in both ``test`` and ``benchmark`` execution modes.

The paper's anchor observations this experiment must reproduce in shape:

* 3DCONV (benchmark) is a *slowdown* on the K80 platform but a clear
  *speedup* on the V100 platform (paper: 0.48x → 4.41x);
* the CORR/COVAR main kernels are far better offloading candidates on the
  POWER8 host than on the POWER9 host (the host's wider vector units claw
  the kernel back);
* magnitudes shift drastically between generations even where the decision
  is unchanged (paper's ATAX2 test: 1.24x → 40.69x).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import PLATFORM_P8_K80, PLATFORM_P9_V100
from ..polybench import MODES
from ..util import geomean, render_table
from .common import measure_suite

__all__ = ["Table1Row", "Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Row:
    """Offloading speedups of one kernel on both platforms and modes."""

    benchmark: str
    kernel: str
    speedup: dict[tuple[str, str], float]  # (mode, platform name) -> speedup

    def get(self, mode: str, platform_name: str) -> float:
        return self.speedup[(mode, platform_name)]


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[Table1Row, ...]
    platforms: tuple[str, str]

    def geomeans(self) -> dict[tuple[str, str], float]:
        out = {}
        for mode in MODES:
            for plat in self.platforms:
                out[(mode, plat)] = geomean(
                    [r.get(mode, plat) for r in self.rows]
                )
        return out

    def decision_flips(self) -> list[str]:
        """Kernels whose offloading decision differs across generations."""
        flips = []
        for row in self.rows:
            for mode in MODES:
                a = row.get(mode, self.platforms[0]) > 1.0
                b = row.get(mode, self.platforms[1]) > 1.0
                if a != b:
                    flips.append(f"{row.kernel} [{mode}]")
        return flips

    def render(self) -> str:
        headers = ["kernel"] + [
            f"{mode}/{plat}" for mode in MODES for plat in self.platforms
        ]
        body = []
        for row in self.rows:
            body.append(
                [row.kernel]
                + [
                    f"{row.get(mode, plat):.2f}x"
                    for mode in MODES
                    for plat in self.platforms
                ]
            )
        gms = self.geomeans()
        body.append(
            ["geomean"]
            + [f"{gms[(mode, plat)]:.2f}x" for mode in MODES for plat in self.platforms]
        )
        table = render_table(
            headers,
            body,
            title=(
                "Table I: GPU offloading speedup over the 160-thread host "
                "(transfers included)"
            ),
        )
        flips = self.decision_flips()
        return table + "\ncross-generation decision flips: " + (
            ", ".join(flips) if flips else "none"
        )


def run_table1() -> Table1Result:
    """Regenerate Table I from the simulators."""
    platforms = (PLATFORM_P8_K80, PLATFORM_P9_V100)
    per_kernel: dict[str, dict[tuple[str, str], float]] = {}
    meta: dict[str, str] = {}
    for mode in MODES:
        for plat in platforms:
            for m in measure_suite(plat, mode):
                per_kernel.setdefault(m.case.name, {})[(mode, plat.name)] = (
                    m.true_speedup
                )
                meta[m.case.name] = m.case.benchmark
    rows = tuple(
        Table1Row(benchmark=meta[name], kernel=name, speedup=sp)
        for name, sp in per_kernel.items()
    )
    return Table1Result(rows=rows, platforms=tuple(p.name for p in platforms))
