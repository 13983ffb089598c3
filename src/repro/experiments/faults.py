"""Policy robustness under injected device faults.

Not a paper artefact — a robustness experiment for the fault-tolerant
runtime (docs/ROBUSTNESS.md).  Every policy replays the same launch
sequence through the resilient :class:`OffloadingRuntime` under each
scenario of the fault grid, and is scored against the **degraded
oracle**: the oracle selector run through the *same* faulty environment
(same scenario, same seed), i.e. the best a perfectly informed selector
achieves once faults, retries and fallbacks are unavoidable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import ProgramAttributeDatabase
from ..faults import FAULT_SCENARIOS, scenario_by_name
from ..machines import PLATFORM_P9_V100
from ..polybench import benchmark_by_name
from ..runtime import LaunchRecord, OffloadingRuntime, Policy, policy_by_name
from ..util import render_table

__all__ = [
    "FaultScore",
    "FaultsResult",
    "run_faults",
    "DEFAULT_FAULT_POLICIES",
    "MAX_DEAD_GPU_OVERHEAD",
    "MAX_FLAKY_VS_ORACLE",
]

DEFAULT_FAULT_POLICIES = ("always-gpu", "always-cpu", "model-guided", "oracle")
#: Seed of every scenario's fault injector.
FAULT_SEED = 4
#: Launches each (scenario, policy) run replays.
FAULT_LAUNCHES = 12

#: Self-check thresholds (see FaultsResult.failures).
MAX_DEAD_GPU_OVERHEAD = 1.01  # dead-gpu always-gpu total / always-cpu total
MAX_FLAKY_VS_ORACLE = 1.02  # model-guided total / degraded oracle, flaky link

#: (benchmark, mode) cycle the launch sequence draws from; the benchmark
#: datasets exceed the oom-prone scenario's 256 MiB usable memory while the
#: test datasets fit, so the OOM trigger discriminates between launches.
_WORKLOAD_CYCLE = (
    ("gemm", "test"),
    ("atax", "benchmark"),
    ("gemm", "benchmark"),
    ("atax", "test"),
)


@dataclass(frozen=True)
class FaultScore:
    """One policy's aggregate behaviour under one fault scenario."""

    scenario: str
    policy: str
    launches: int
    total_seconds: float
    faults: int  # injected fault events suffered
    retries: int  # extra accelerator attempts beyond the first
    fallbacks: int  # launches rerouted off the requested target
    breaker_state: str  # final breaker state of the accelerator
    vs_oracle: float  # total / degraded-oracle total (1.0 = oracle)


@dataclass(frozen=True)
class FaultsResult:
    """The full scenario x policy robustness grid."""

    rows: tuple[FaultScore, ...]
    launches: int

    def get(self, scenario: str, policy: str) -> FaultScore:
        for row in self.rows:
            if row.scenario == scenario and row.policy == policy:
                return row
        raise KeyError((scenario, policy))

    @property
    def failures(self) -> tuple[str, ...]:
        """The robustness invariants the grid breaks, as readable strings."""
        out = []
        for row in self.rows:
            if row.scenario != "fault-free":
                continue
            name = f"fault-free/{row.policy}"
            if row.faults or row.retries or row.fallbacks:
                out.append(f"{name}: the control arm faulted, retried or fell back")
            if row.breaker_state != "closed":
                out.append(f"{name}: breaker ended {row.breaker_state}")
            if not row.vs_oracle >= 1.0:
                out.append(f"{name}: {row.vs_oracle:.4f}x beats the oracle")
        dead = self.get("dead-gpu", "always-gpu")
        if dead.fallbacks != dead.launches:
            out.append("dead-gpu/always-gpu: dead-GPU launch failed to fall back")
        if dead.breaker_state == "closed":
            out.append("dead-gpu/always-gpu: breaker never left closed")
        # the host fallbacks cost within a retry-overhead hair of always-cpu
        dead_cpu = self.get("dead-gpu", "always-cpu")
        if not dead.total_seconds <= dead_cpu.total_seconds * MAX_DEAD_GPU_OVERHEAD:
            out.append(
                f"dead-gpu/always-gpu: {dead.total_seconds:.6f}s > "
                f"{MAX_DEAD_GPU_OVERHEAD} x always-cpu {dead_cpu.total_seconds:.6f}s"
            )
        flaky_gpu = self.get("flaky-transfer", "always-gpu")
        if flaky_gpu.faults == 0 or flaky_gpu.retries == 0:
            out.append("flaky-transfer/always-gpu: no transfer faults retried")
        # no ordering vs always-gpu: each policy's dispatch sequence draws
        # its own fault pattern, so a blind policy can land under 1.0 by
        # luck — the invariant is that model-guided stays at the optimum
        flaky_mg = self.get("flaky-transfer", "model-guided")
        if not flaky_mg.vs_oracle <= MAX_FLAKY_VS_ORACLE:
            out.append(
                f"flaky-transfer/model-guided: {flaky_mg.vs_oracle:.4f}x "
                f"> {MAX_FLAKY_VS_ORACLE}x the degraded oracle"
            )
        if self.get("oom-prone", "always-gpu").fallbacks == 0:
            out.append("oom-prone/always-gpu: the footprint trigger never fell back")
        return tuple(out)

    def render(self) -> str:
        body = [
            [
                row.scenario,
                row.policy,
                f"{row.total_seconds * 1e3:.2f}",
                f"{row.vs_oracle:.2f}x",
                row.faults,
                row.retries,
                row.fallbacks,
                row.breaker_state,
            ]
            for row in self.rows
        ]
        return render_table(
            [
                "scenario",
                "policy",
                "total (ms)",
                "vs oracle",
                "faults",
                "retries",
                "fallbacks",
                "breaker",
            ],
            body,
            title=(
                "Policy robustness under injected faults "
                f"({self.launches} launches/run, degraded-oracle baseline)"
            ),
        )


def _build_workload() -> list[tuple[str, dict]]:
    """(region_name, env) launch sequence cycling sizes and kernels."""
    specs = {name: benchmark_by_name(name) for name, _ in _WORKLOAD_CYCLE}
    regions: dict[str, list] = {
        name: spec.build() for name, spec in specs.items()
    }
    sequence: list[tuple[str, dict]] = []
    i = 0
    while len(sequence) < FAULT_LAUNCHES:
        name, mode = _WORKLOAD_CYCLE[i % len(_WORKLOAD_CYCLE)]
        env = specs[name].env(mode)
        for region in regions[name]:
            if len(sequence) >= FAULT_LAUNCHES:
                break
            sequence.append((region.name, env))
        i += 1
    return sequence


def _run_one(
    policy: Policy,
    scenario: str,
    workload: list[tuple[str, dict]],
    db: ProgramAttributeDatabase,
) -> tuple[float, list[LaunchRecord], OffloadingRuntime]:
    runtime = OffloadingRuntime(
        PLATFORM_P9_V100,
        policy=policy,
        db=db,
        injector=scenario_by_name(scenario, seed=FAULT_SEED),
    )
    records = [runtime.launch(name, env) for name, env in workload]
    return sum(r.executed_seconds for r in records), records, runtime


def run_faults() -> FaultsResult:
    """Score every policy under every fault scenario on p9-v100."""
    workload = _build_workload()
    # compiled once; every runtime of the grid launches from it
    db = ProgramAttributeDatabase()
    for name in dict(_WORKLOAD_CYCLE):
        for region in benchmark_by_name(name).build():
            db.compile_region(region)
    # one policy instance per name, shared across scenarios so the
    # model-guided calibration is fitted once
    instances = {name: policy_by_name(name) for name in DEFAULT_FAULT_POLICIES}

    rows: list[FaultScore] = []
    for scenario in FAULT_SCENARIOS:
        oracle_run = _run_one(instances["oracle"], scenario, workload, db)
        oracle_total = oracle_run[0]
        for name in DEFAULT_FAULT_POLICIES:
            if name == "oracle":
                total, records, runtime = oracle_run
            else:
                total, records, runtime = _run_one(
                    instances[name], scenario, workload, db
                )
            rows.append(
                FaultScore(
                    scenario=scenario,
                    policy=name,
                    launches=len(records),
                    total_seconds=total,
                    faults=sum(len(r.fault_events) for r in records),
                    retries=sum(max(r.attempts - 1, 0) for r in records),
                    fallbacks=sum(r.fell_back for r in records),
                    breaker_state=runtime.health[0].breaker.state.value,
                    vs_oracle=total / oracle_total if oracle_total > 0 else float("nan"),
                )
            )
    return FaultsResult(rows=tuple(rows), launches=FAULT_LAUNCHES)
