"""Regenerates the Figures 4+5 artefact: MWP/CWP regime sweeps."""

from repro.experiments import run_figure45


def test_figure45_regeneration(benchmark):
    result = benchmark.pedantic(run_figure45, rounds=1, iterations=1)
    print()
    print(result.render())
    # both major regimes appear across the sweeps
    cases = result.cases_seen()
    assert "memory-bound" in cases
    assert "compute-bound" in cases
    # the memory-heavy workload saturates MWP below max occupancy
    mem = {p.n_warps: p for p in result.memory_heavy}
    assert mem[64].mwp < 64
    assert mem[64].case == "memory-bound"
    # MWP and CWP are always within [1, N]
    for p in result.memory_heavy + result.compute_heavy:
        assert 1.0 <= p.mwp <= p.n_warps
        assert 1.0 <= p.cwp <= p.n_warps
        assert p.exec_cycles > 0
