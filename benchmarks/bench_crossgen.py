"""Cross-generation sweep bench (the generalized Section III study)."""

import pytest

from repro.experiments.crossgen import run_crossgen


@pytest.mark.parametrize("mode", ["test", "benchmark"])
def test_crossgen_sweep(benchmark, mode):
    result = benchmark.pedantic(run_crossgen, args=(mode,), rounds=1, iterations=1)
    print()
    print(result.render())
    gms = result.geomeans()
    # each accelerator generation lifts the suite geomean on the same host
    assert gms[0] < gms[1] < gms[2]
    # the sweep flips offloading decisions for several kernels (Section III)
    assert len(result.flips()) >= 3
    # bandwidth-hungry kernels track the generational bandwidth curve
    by_kernel = dict(result.rows)
    conv = by_kernel["3dconv"]
    assert conv[0] < conv[2]
