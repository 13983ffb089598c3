#!/usr/bin/env python3
"""Fault-tolerant offloading: retries, fallback, and the circuit breaker.

A production selector must keep serving launches while the accelerator
misbehaves (docs/ROBUSTNESS.md).  This walkthrough drives the same
benchmark-size GEMM through two degraded environments:

1. a *flaky* interconnect losing 25% of DMAs — retries with (simulated)
   exponential backoff absorb most faults, and the health penalty starts
   steering the model-guided selector toward the host;
2. a *dead* GPU — every launch still completes via host fallback, and the
   circuit breaker stops routing to the card after N consecutive
   failures, probing it again only after a cooldown.

Everything is deterministic: same seed, same faults, no real sleeps.
"""

from repro.machines import PLATFORM_P9_V100
from repro.polybench import benchmark_by_name
from repro.runtime import ModelGuided, OffloadingRuntime, scenario_by_name


def drive(title: str, scenario: str, launches: int) -> None:
    runtime = OffloadingRuntime(
        PLATFORM_P9_V100,
        policy=ModelGuided(),
        injector=scenario_by_name(scenario, seed=4),
    )
    (gemm,) = benchmark_by_name("gemm").build()
    runtime.compile_region(gemm)
    env = benchmark_by_name("gemm").env("benchmark")

    print(f"\n=== {title} ===")
    print(f"{'#':>3} {'wanted':>7} {'ran on':>7} {'tries':>5} "
          f"{'faults':>6} {'fallback':>18} {'penalty':>8} {'breaker':>9}")
    for i in range(launches):
        rec = runtime.launch("gemm", env)
        print(
            f"{i:>3} {rec.requested_target:>7} {rec.target:>7} "
            f"{rec.attempts:>5} {len(rec.fault_events):>6} "
            f"{rec.fallback or '-':>18} {runtime.health[0].penalty():>8.2f} "
            f"{runtime.health[0].breaker.state.value:>9}"
        )
    h = runtime.health[0]
    print(
        f"device health: {h.successes} ok / {h.failures} failed, "
        f"faults by type {h.fault_counts or '{}'}, "
        f"{runtime.clock.now * 1e3:.1f} ms simulated backoff"
    )


def main() -> None:
    print("fault-tolerant offloading on", PLATFORM_P9_V100.name)
    drive("flaky interconnect (25% DMA loss)", "flaky-transfer", 10)
    drive("dead GPU (every attempt fails)", "dead-gpu", 10)
    print(
        "\nNote the dead-GPU run: the breaker opens after 3 consecutive "
        "failures,\nlaunches keep completing on the host, and the card is "
        "re-probed once per\ncooldown window (half-open) in case it comes "
        "back."
    )


if __name__ == "__main__":
    main()
