#!/usr/bin/env python3
"""Traffic-scale replay: a seeded rush of launches through one fault storm.

The experiments sweep the kernel grid uniformly; production traffic does
not.  This walkthrough generates a 10,000-launch seeded trace (Zipf
kernel popularity, bursty arrivals, mixed dataset sizes), replays it
through the model-guided offloading runtime behind the replay's one
admission path — the offload service's serial preset, a bounded
single-server FIFO — and opens a ninety-percent fault storm over a
four-second window in the middle of the run.  The recovery report at the end answers the
questions an operator would ask:

* did the storm leak into the calm stretches?  (steady-state accuracy
  vs. the overall rate)
* how fast did the stack notice, and how fast did it heal?  (time to
  detect / time to recover for the window)
* what did dispatch cost at the tails?  (p50/p99 overhead)

Everything runs on the simulated clock — same seed, same storm, same
bytes every time.  See docs/ROBUSTNESS.md for the full machinery.
"""

from repro.machines import PLATFORM_P9_V100
from repro.replay import (
    AdmissionConfig,
    ChaosSchedule,
    ChaosWindow,
    ReplayConfig,
    ReplayEngine,
    WorkloadConfig,
    score_run,
)

STORM = ChaosWindow(
    name="midday-storm",
    kind="fault-storm",
    start_s=6.0,
    stop_s=10.0,
    probability=0.9,
)


def main() -> None:
    config = ReplayConfig(
        platform=PLATFORM_P9_V100,
        workload=WorkloadConfig(launches=10_000, seed=11, mean_interarrival_s=2e-3),
        chaos=ChaosSchedule(windows=(STORM,), seed=11),
        admission=AdmissionConfig(capacity=64, policy="degrade"),
    )
    print(f"replaying {config.workload.launches} launches on {config.platform.name}")
    print(
        f"storm: {STORM.probability:.0%} accelerator faults over "
        f"[{STORM.start_s:g}s, {STORM.stop_s:g}s) simulated"
    )

    run = ReplayEngine(config).run()
    # launches that started inside the window, or within one window
    # length after it, are the recovery transient — not steady state
    score = score_run(run, recovery_margin_s=STORM.duration_s)

    print("\n=== trace ===")
    bursts = sum(1 for r in run.requests if r.burst)
    print(f"requests        {score.requests} ({bursts} in burst phases)")
    print(f"horizon         {score.horizon_s:.2f} s simulated")
    print(f"outcomes        {run.outcome_counts()}")
    print(f"queue           {run.queue.snapshot()}")

    print("\n=== selection ===")
    print(f"overall accuracy       {score.overall_accuracy:.2%}")
    print(
        f"steady-state accuracy  {score.steady_accuracy:.2%} "
        f"over {score.steady_launches} launches outside the storm"
    )
    faulted = [r for r in run.records if r.fault_events]
    backoff = sum(r.overhead_seconds for r in faulted)
    print(
        f"retry backoff          p99 {score.overhead_p99_s * 1e3:.2f} ms "
        f"(zero for the {score.launches - len(faulted)} clean launches; "
        f"{backoff * 1e3:.1f} ms total across {len(faulted)} faulted ones)"
    )

    print("\n=== recovery report ===")
    w = score.window(STORM.name)
    print(f"fault events    {score.fault_events} injected, {score.fallbacks} fallbacks")
    print(f"time to detect  {w.ttd_s * 1e3:.1f} ms after the window opened")
    print(f"time to recover {w.ttr_s * 1e3:.1f} ms after it closed")
    health = run.runtime.health[0]
    print(
        f"device health   penalty {health.penalty():.2f}, "
        f"breaker {health.breaker.state.value} at the horizon"
    )
    print(
        "\nThe storm is invisible outside its own window: retries and host\n"
        "fallbacks absorb the faults, the health penalty steers borderline\n"
        "kernels to the CPU while the card misbehaves, and simulated-time\n"
        "decay forgives it once the storm passes."
    )


if __name__ == "__main__":
    main()
