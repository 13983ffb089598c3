#!/usr/bin/env python3
"""Selecting among a host and several attached accelerators (§II.A).

Figure 1 shows a host with multiple devices; OpenMP lets the system pick
any of them.  This example builds a node with both a V100 (NVLink) and a
K80 (PCIe) attached and lets the models route each Polybench kernel to the
host, the new card, or the old card — the old GPU still wins nothing, but
the *host* keeps several kernels, which is the paper's point.
"""

from repro.machines import (
    AcceleratorSlot,
    NVLINK2,
    PCIE3_X16,
    POWER9,
    Platform,
    TESLA_K80,
    TESLA_V100,
)
from repro.polybench import all_kernel_cases
from repro.runtime import OffloadingRuntime
from repro.util import render_table

DUAL = Platform(
    "P9 + V100/NVLink + K80/PCIe",
    POWER9,
    (
        AcceleratorSlot(TESLA_V100, NVLINK2),
        AcceleratorSlot(TESLA_K80, PCIE3_X16),
    ),
)


def main() -> None:
    runtime = OffloadingRuntime(DUAL)
    rows = []
    wins: dict[str, int] = {}
    correct = 0
    cases = all_kernel_cases("benchmark")
    for case in cases:
        runtime.compile_region(case.region)
        rec = runtime.launch(case.name, case.env)
        wins[rec.requested_target] = wins.get(rec.requested_target, 0) + 1
        correct += rec.decision_correct
        rows.append(
            [case.name]
            + [f"{o.measured_seconds * 1e3:.2f}" for o in rec.candidates]
            + [rec.requested_target.split(" via")[0], "ok" if rec.decision_correct else "MISS"]
        )
    headers = ["kernel"] + [
        o.device_name + " (ms)" for o in rec.candidates
    ] + ["chosen", ""]
    print(render_table(headers, rows, title=f"Three-way selection on {DUAL.name}"))
    print(f"\ndecision accuracy vs three-way oracle: {correct}/{len(cases)}")
    for dev, count in sorted(wins.items(), key=lambda kv: -kv[1]):
        print(f"  {dev}: chosen for {count} kernels")


if __name__ == "__main__":
    main()
