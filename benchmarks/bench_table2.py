"""Regenerates Table II (CPU model parameters) via microbenchmark probes."""

from repro.experiments import run_table2
from repro.machines import POWER9


def test_table2_regeneration(benchmark):
    result = benchmark.pedantic(run_table2, args=(POWER9,), rounds=1, iterations=1)
    print()
    print(result.render())
    # the probes must recover the paper's Table II values
    assert result.measured_tlb_entries == 1024
    assert result.measured_tlb_penalty == 14.0
    params = dict(result.parameters())
    assert params["Par_Schedule_Overhead_static"] == "10154 Cycles"
    assert params["Synchronization_Overhead"] == "4000 Cycles"
    assert params["Par_Startup"] == "3000 Cycles"
    assert params["CPU Frequency"] == "3 GHz"
    # EPCC overhead grows superlinearly with the team
    curve = {m.num_threads: m.overhead_cycles for m in result.epcc_curve}
    assert curve[160] > 20 * curve[8]
