"""Regenerates Table I (cross-generation offloading speedups).

Checks the paper's anchor shapes:

* 3DCONV flips from slowdown on POWER8+K80 to speedup on POWER9+V100;
* the CORR/COVAR main kernels are dramatically better offloading
  candidates on the POWER8 platform than on the POWER9 platform;
* several kernels keep their decision but shift magnitude drastically.
"""

from repro.experiments import clear_caches, run_table1

PLAT_K80 = "POWER8+K80"
PLAT_V100 = "POWER9+V100"


def test_table1_regeneration(benchmark):
    clear_caches()
    result = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    print()
    print(result.render())

    by_name = {r.kernel: r for r in result.rows}
    # 3DCONV: the paper's flagship generational flip (0.48x -> 4.41x)
    assert by_name["3dconv"].get("benchmark", PLAT_K80) < 1.0
    assert by_name["3dconv"].get("benchmark", PLAT_V100) > 1.0
    # CORR main kernel: far better candidate on the POWER8 platform
    corr = by_name["corr_corr"]
    assert corr.get("benchmark", PLAT_K80) > 3 * corr.get("benchmark", PLAT_V100)
    # decisions flip across generations for several kernels
    assert len(result.decision_flips()) >= 5
    # every kernel appears at every (mode, platform) point
    assert len(result.rows) == 24
