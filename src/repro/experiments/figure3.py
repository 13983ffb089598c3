"""Figure 3 — the Liao & Chapman cost-model equations in action.

The figure in the paper lists the equations; the reproducible artefact is
their evaluation: a component-by-component breakdown of the predicted host
time for every suite kernel, showing how Fork/Schedule/Machine-cycles/
Cache/Loop-overhead/Join compose (and which term dominates where).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machines import CPUDescriptor, POWER9
from ..polybench import all_kernel_cases
from ..analysis import ProgramAttributeDatabase
from ..models import predict_cpu_time
from ..util import render_table

__all__ = ["Figure3Result", "run_figure3"]

_COMPONENTS = [
    "Fork_c",
    "Schedule_c",
    "Machine_cycles x Chunk",
    "Cache_c (TLB)",
    "Loop_overhead_c",
    "Reduction_c",
    "Join_c",
]


@dataclass(frozen=True)
class Figure3Result:
    cpu_name: str
    mode: str
    num_threads: int | None
    rows: tuple[tuple[str, dict[str, float]], ...]  # kernel -> component cycles

    def dominant_component(self, kernel: str) -> str:
        for name, comps in self.rows:
            if name == kernel:
                return max(comps, key=comps.get)
        raise KeyError(kernel)

    def render(self) -> str:
        body = []
        for name, comps in self.rows:
            total = sum(comps.values())
            body.append(
                [name]
                + [f"{comps[c]:,.0f}" for c in _COMPONENTS]
                + [f"{total:,.0f}", max(comps, key=comps.get)]
            )
        return render_table(
            ["kernel"] + _COMPONENTS + ["total cycles", "dominant"],
            body,
            title=(
                f"Figure 3: Liao/Chapman cost-model breakdown "
                f"({self.cpu_name}, {self.mode}, "
                f"{self.num_threads or 'all'} threads)"
            ),
        )


def run_figure3(
    cpu: CPUDescriptor = POWER9,
    mode: str = "test",
    num_threads: int | None = None,
) -> Figure3Result:
    """Evaluate the Figure 3 equations for every suite kernel."""
    db = ProgramAttributeDatabase()
    rows = []
    for case in all_kernel_cases(mode):
        attrs = db.compile_region(case.region)
        bound = attrs.bind(case.env)
        pred = predict_cpu_time(
            attrs,
            bound.loadout,
            bound.parallel_iterations,
            cpu,
            num_threads=num_threads,
            env=dict(case.env),
        )
        rows.append((case.name, pred.breakdown()))
    return Figure3Result(
        cpu_name=cpu.name,
        mode=mode,
        num_threads=num_threads,
        rows=tuple(rows),
    )


if __name__ == "__main__":  # pragma: no cover
    print(run_figure3().render())
