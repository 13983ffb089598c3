#!/usr/bin/env python3
"""Three tenants share one node through the multi-tenant offload service.

Every replay runs through the offload service.  Its default, the
serial preset, queues every launch behind one FIFO server, so a
CPU-bound request waits for a GPU-bound one and every transfer
serializes with every compute.  This walkthrough replays the identical
8,000-launch trace twice — once through that serial FIFO, once through
per-device lanes (`ReplayConfig.service=True`) — with a skewed tenant
mix (one heavy tenant, two light ones) and a fault storm in the middle,
and then compares what an operator cares about:

* the completion-latency tail, trace-wide and inside the storm;
* per-tenant p99s and the fairness ratio between the best- and
  worst-served tenant;
* what the service's extra machinery did: per-device queues, admission
  batching (shared H2D transfers), transfer/compute overlap.

Selection accuracy barely moves: the service changes *when* launches
run, never *what* the analytical model selects for them.  Everything is
on the simulated clock — same seed, same bytes, every run.  See
docs/ROBUSTNESS.md ("The multi-tenant offload service") for the full
machinery.
"""

from repro.machines import PLATFORM_P9_V100
from repro.replay import (
    ChaosSchedule,
    ChaosWindow,
    ReplayConfig,
    ReplayEngine,
    ServiceConfig,
    WorkloadConfig,
    score_run,
)

STORM = ChaosWindow(
    name="midday-storm",
    kind="fault-storm",
    start_s=2.0,
    stop_s=3.0,
    probability=0.9,
)

WORKLOAD = WorkloadConfig(
    launches=8_000,
    seed=7,
    mean_interarrival_s=6e-4,
    tenants=3,
    tenant_weights=(0.7, 0.2, 0.1),  # one heavy tenant crowding two light ones
)


def _replay(service: bool):
    config = ReplayConfig(
        platform=PLATFORM_P9_V100,
        workload=WORKLOAD,
        chaos=ChaosSchedule(windows=(STORM,), seed=7),
        service=service,
        service_config=ServiceConfig(),
    )
    run = ReplayEngine(config).run()
    return run, score_run(run, recovery_margin_s=STORM.duration_s)


def main() -> None:
    print(
        f"replaying {WORKLOAD.launches} launches x 2 (serial FIFO, then "
        f"per-device lanes) on {PLATFORM_P9_V100.name}"
    )
    print(f"tenant shares {WORKLOAD.tenant_weights}, storm over "
          f"[{STORM.start_s:g}s, {STORM.stop_s:g}s) simulated")

    _, serial = _replay(service=False)
    service_run, svc = _replay(service=True)

    print("\n=== the tail (same trace, two queueing models) ===")
    print(f"{'':24}{'serial FIFO':>14}{'lanes':>14}")
    print(f"{'completion p50':24}{serial.completion_p50_s:>13.4f}s"
          f"{svc.completion_p50_s:>13.4f}s")
    print(f"{'completion p99':24}{serial.completion_p99_s:>13.4f}s"
          f"{svc.completion_p99_s:>13.4f}s")
    print(f"{'storm-window p99':24}{serial.chaos_completion_p99_s:>13.4f}s"
          f"{svc.chaos_completion_p99_s:>13.4f}s")
    print(f"{'steady accuracy':24}{serial.steady_accuracy:>13.2%} "
          f"{svc.steady_accuracy:>13.2%}")

    print("\n=== per-tenant tails (per-device lanes) ===")
    for t in svc.tenants:
        print(
            f"tenant {t.tenant:10} {t.launches:5} launches   "
            f"p50 {t.latency_p50_s:.4f}s   p95 {t.latency_p95_s:.4f}s   "
            f"p99 {t.latency_p99_s:.4f}s"
        )
    print(f"fairness (max/min tenant p99): {svc.fairness_p99:.3f}")

    print("\n=== what the service machinery did ===")
    snap = service_run.queue.snapshot()
    for name, lane in snap["lanes"].items():
        print(
            f"{name:4} lane: {lane['admitted']} served on "
            f"{lane['servers']} servers, max depth {lane['max_depth']}, "
            f"{lane['batches']} batches, "
            f"{lane['transfers_waived']} H2D transfers waived"
        )
    print(
        "\nThe serial twin funnels all three tenants through one server, so\n"
        "the storm's retries stall everyone behind the sick device.  The\n"
        "lanes keep the host flowing, overlap H2D with compute on\n"
        "the accelerator lane, and batches same-kernel arrivals onto one\n"
        "transfer — the tail shrinks while the *selections* stay put."
    )


if __name__ == "__main__":
    main()
