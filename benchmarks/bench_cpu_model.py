"""Regenerates the Figure 3 artefact: Liao/Chapman model breakdowns."""

from repro.experiments import run_figure3
from repro.machines import POWER9


def test_figure3_regeneration(benchmark):
    result = benchmark.pedantic(run_figure3, args=(POWER9, "test"), rounds=1, iterations=1)
    print()
    print(result.render())
    assert len(result.rows) == 24
    # at full thread count GEMM is dominated by a work-proportional term
    # (the memory-system Cache_c at 160 threads), never by fork/join
    assert result.dominant_component("gemm") in (
        "Machine_cycles x Chunk",
        "Cache_c (TLB)",
    )
    # tiny kernels are overhead-dominated on a 160-thread team
    assert result.dominant_component("mvt_k1") in ("Join_c", "Fork_c")
    # every component is present and non-negative for every kernel
    for _name, comps in result.rows:
        assert set(comps) == {
            "Fork_c",
            "Schedule_c",
            "Machine_cycles x Chunk",
            "Cache_c (TLB)",
            "Loop_overhead_c",
            "Reduction_c",
            "Join_c",
        }
        assert all(v >= 0 for v in comps.values())
        # the Table II constants appear verbatim
        assert comps["Schedule_c"] == 10154.0
