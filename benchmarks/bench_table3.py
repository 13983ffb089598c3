"""Regenerates Table III (V100 device/bus parameters) with Jia-style probes."""

from repro.experiments import run_table3


def test_table3_regeneration(benchmark):
    result = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    print()
    print(result.render())
    # the pointer chase recovers the Jia-report latencies fed to the model
    assert result.measured_l1 == 28.0
    assert result.measured_l2 == 193.0
    assert result.measured_dram == 400.0
    params = dict(result.parameters())
    assert params["#SMs"] == 80
    assert params["Memory Bandwidth"] == "900 GB/s"
    assert params["Max Warps/SM"] == 64
