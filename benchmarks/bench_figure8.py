"""Regenerates Figure 8: suite speedup under target-selection policies.

The paper's headline result: switching the 160-thread-host runtime from
always-offload to model-guided selection improves the geometric-mean suite
speedup (10.2x → 14.2x test, 2.9x → 3.7x benchmark on their hardware).
The shape this reproduction must hold: model-guided ≥ always-offload in
both modes, with close-call mispredictions surviving (the paper's 2DCONV
case predicted 0.913x against a true 1.48x).
"""

import pytest

from repro.experiments import run_figure8


@pytest.mark.parametrize("mode", ["test", "benchmark"])
def test_figure8_regeneration(benchmark, mode):
    result = benchmark.pedantic(run_figure8, args=(mode,), rounds=1, iterations=1)
    print()
    print(result.render())
    gms = result.geomeans()
    # the paper's headline: model-guided selection beats always-offload
    assert gms["model-guided"] >= gms["always-gpu"] * 0.999
    # no policy beats the oracle
    assert gms["model-guided"] <= gms["oracle"] + 1e-9
    assert gms["always-gpu"] <= gms["oracle"] + 1e-9
    # the suite still benefits from the GPU overall
    assert gms["always-gpu"] > 1.0
    # close-call mispredictions survive, as in the paper's discussion
    assert len(result.misses()) >= 1
