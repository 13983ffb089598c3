"""Declared vs inferred transfer sizing: bytes, decisions, and flips.

Not a paper artefact — the evaluation report for the array-liveness
dataflow analysis (``repro.ir.dataflow``, docs/LINT.md).  Two sections:

* **Suite parity** — every Polybench kernel is bound through a declared
  database and an ``inferred_transfers=True`` database.  The suite's map
  clauses are clean, so the inferred byte counts and selector decisions
  must be identical; anything else is an analysis regression.

* **Over-mapped scenarios** — hand-built regions with defensively wrong
  map clauses (``tofrom`` on a write-only output, a device scratch
  mapped both ways, a dead debug buffer).  Inference drops the provably
  wasted directions; the report quantifies the recovered transfer
  seconds and checks that at least one selector decision flips *toward
  the true oracle* once transfers are priced from liveness.

The simulator prices what the OpenMP runtime would actually move: under
declared sizing that is the map clauses, under inferred sizing the
runtime elides the dead directions, so the "true" GPU time of a scenario
differs between the two modes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping

from ..analysis import BoundAttributes, ProgramAttributeDatabase
from ..ir import Region
from ..lint import lint_region
from ..machines import Platform
from ..sim import simulate_cpu, simulate_dmas, simulate_gpu_kernel, simulate_transfers
from ..util import render_table
from .common import _calibration, _database, _resolve_platform

__all__ = [
    "ScenarioOutcome",
    "SuiteTransferRow",
    "TransfersResult",
    "run_transfers",
]


@dataclass(frozen=True)
class SuiteTransferRow:
    """Declared vs inferred sizing for one clean suite kernel."""

    region: str
    benchmark: str
    declared_to_device: int
    declared_to_host: int
    inferred_to_device: int
    inferred_to_host: int
    decision_declared: str
    decision_inferred: str

    @property
    def agrees(self) -> bool:
        """Bytes and decision both unchanged (expected on clean maps)."""
        return (
            self.declared_to_device == self.inferred_to_device
            and self.declared_to_host == self.inferred_to_host
            and self.decision_declared == self.decision_inferred
        )


@dataclass(frozen=True)
class ScenarioOutcome:
    """One over-mapped scenario priced both ways against the oracle."""

    scenario: str
    region: str
    map_codes: tuple[str, ...]
    declared_to_device: int
    declared_to_host: int
    inferred_to_device: int
    inferred_to_host: int
    cpu_seconds: float
    gpu_kernel_seconds: float
    declared_transfer_seconds: float
    inferred_transfer_seconds: float
    decision_declared: str
    decision_inferred: str

    @property
    def gpu_inferred_seconds(self) -> float:
        """True GPU time when the runtime elides the dead directions."""
        return self.gpu_kernel_seconds + self.inferred_transfer_seconds

    @property
    def wasted_seconds(self) -> float:
        """Transfer wall time the declared over-mapping burns per launch."""
        return self.declared_transfer_seconds - self.inferred_transfer_seconds

    @property
    def oracle(self) -> str:
        """The true best target once the wasted transfers are elided."""
        return (
            "gpu"
            if self.gpu_inferred_seconds < self.cpu_seconds
            else "cpu"
        )

    @property
    def flipped(self) -> bool:
        return self.decision_declared != self.decision_inferred

    @property
    def fixed(self) -> bool:
        """The flip landed on the oracle target (the headline claim)."""
        return self.flipped and self.decision_inferred == self.oracle

    @property
    def tightened(self) -> bool:
        """Inference never invents transfers — it may only drop them."""
        return (
            self.inferred_to_device <= self.declared_to_device
            and self.inferred_to_host <= self.declared_to_host
        )


@dataclass(frozen=True)
class TransfersResult:
    """Suite-parity rows plus the over-mapped scenario grid."""

    platform: str
    mode: str
    suite: tuple[SuiteTransferRow, ...]
    scenarios: tuple[ScenarioOutcome, ...]

    def scenario(self, name: str) -> ScenarioOutcome:
        for row in self.scenarios:
            if row.scenario == name:
                return row
        raise KeyError(name)

    @property
    def failures(self) -> tuple[str, ...]:
        """Self-check: clean suite untouched, scenarios only improve.

        * every clean suite kernel keeps byte-identical sizing and the
          same selector decision;
        * every scenario tightens (never widens) both directions and
          recovers non-negative transfer time;
        * the defensive ``tofrom`` recovers its copy-in (MAP002), and the
          dead debug buffer (MAP004) flips the selector decision onto the
          true oracle target while recovering real transfer seconds.
        """
        out = [
            f"{row.region}: inferred sizing or decision drifted from declared"
            for row in self.suite
            if not row.agrees
        ]
        for s in self.scenarios:
            if not s.tightened:
                out.append(f"{s.scenario}: inference widened a transfer")
            if not s.wasted_seconds >= 0:
                out.append(f"{s.scenario}: inferred transfers cost more time")
        defensive = self.scenario("defensive-tofrom")
        if not defensive.inferred_to_device < defensive.declared_to_device:
            out.append("defensive-tofrom: copy-in bytes not recovered")
        if "MAP002" not in defensive.map_codes:
            out.append("defensive-tofrom: MAP002 not reported")
        deadbuf = self.scenario("dead-debug-buffer")
        if not (deadbuf.fixed and deadbuf.wasted_seconds > 0):
            out.append("dead-debug-buffer: no flip onto the oracle recovering transfer time")
        if "MAP004" not in deadbuf.map_codes:
            out.append("dead-debug-buffer: MAP004 not reported")
        return tuple(out)

    def to_payload(self) -> dict:
        """JSON-ready summary of both sections."""
        return {
            "platform": self.platform,
            "mode": self.mode,
            "passed": not self.failures,
            "suite": [dataclasses.asdict(row) for row in self.suite],
            "scenarios": [
                {
                    **dataclasses.asdict(row),
                    "map_codes": list(row.map_codes),
                    "wasted_seconds": row.wasted_seconds,
                    "oracle": row.oracle,
                    "flipped": row.flipped,
                    "fixed": row.fixed,
                }
                for row in self.scenarios
            ],
        }

    def render(self) -> str:
        suite_body = [
            [
                row.region,
                _fmt_bytes(row.declared_to_device, row.declared_to_host),
                _fmt_bytes(row.inferred_to_device, row.inferred_to_host),
                row.decision_declared,
                row.decision_inferred,
                "ok" if row.agrees else "DRIFT",
            ]
            for row in self.suite
        ]
        suite_table = render_table(
            ["kernel", "declared (dev/host)", "inferred (dev/host)",
             "declared sel", "inferred sel", ""],
            suite_body,
            title=(
                f"Suite transfer parity on {self.platform} "
                f"({self.mode} datasets) — clean maps must not move"
            ),
        )
        scen_body = [
            [
                row.scenario,
                ",".join(row.map_codes) or "-",
                _fmt_bytes(row.declared_to_device, row.declared_to_host),
                _fmt_bytes(row.inferred_to_device, row.inferred_to_host),
                f"{row.wasted_seconds * 1e6:.1f}",
                f"{row.decision_declared}->{row.decision_inferred}",
                row.oracle,
                "FIXED" if row.fixed else ("flip" if row.flipped else "-"),
            ]
            for row in self.scenarios
        ]
        scen_table = render_table(
            ["scenario", "lint", "declared (dev/host)", "inferred (dev/host)",
             "wasted (us)", "selector", "oracle", ""],
            scen_body,
            title="Over-mapped scenarios — inferred sizing vs the oracle",
        )
        return suite_table + "\n\n" + scen_table


def _fmt_bytes(to_device: int, to_host: int) -> str:
    return f"{to_device}/{to_host}"


# --------------------------------------------------------------------------
# over-mapped scenario kernels
# --------------------------------------------------------------------------


def _build_defensive_vecadd() -> Region:
    """z = x + y with z defensively mapped ``tofrom`` (MAP002).

    The kernel overwrites every element of ``z`` before reading it, so
    the host→device copy of ``z`` is provably wasted.
    """
    r = Region("xfer_defensive")
    n = r.param("n")
    x = r.array("x", (n,))
    y = r.array("y", (n,))
    z = r.array("z", (n,), inout=True)  # should be output=True
    with r.parallel_loop("i", n) as i:
        r.store(z[i], x[i] + y[i])
    return r


def _build_scratch_tofrom() -> Region:
    """Device scratch mapped both ways (MAP003): neither copy survives.

    ``w`` is written then consumed entirely on the device; mapping it
    ``tofrom`` wastes a full round trip of ``n`` doubles per launch.
    """
    r = Region("xfer_scratch")
    n = r.param("n")
    x = r.array("x", (n,))
    w = r.array("w", (n,), inout=True)  # device-only scratch
    y = r.array("y", (n,), output=True)
    with r.parallel_loop("i", n) as i:
        r.store(w[i], x[i] * 2.0)
        r.store(y[i], w[i] + 1.0)
    return r


def _build_dead_debug_buffer() -> Region:
    """Compute-heavy kernel dragging a dead debug buffer (MAP004).

    The matmul itself is firmly GPU territory, but the untouched
    ``dbg`` buffer mapped ``tofrom`` drowns the declared transfer
    estimate — the scenario whose decision inference must flip.
    """
    r = Region("xfer_deadbuf")
    n, m = r.param_tuple("n", "m")
    A = r.array("A", (n, n))
    B = r.array("B", (n, n))
    C = r.array("C", (n, n), output=True)
    dbg = r.array("dbg", (m, m), inout=True)  # never touched
    del dbg
    with r.parallel_loop("i", n) as i:
        with r.parallel_loop("j", n) as j:
            acc = r.local("acc", 0.0)
            with r.loop("k", n) as k:
                r.assign(acc, acc + A[i, k] * B[k, j])
            r.store(C[i, j], acc)
    return r


#: (scenario label, builder, env) — envs sized so the dead-buffer matmul
#: sits on the GPU side of break-even *only* once the dead transfers go.
_SCENARIOS: tuple[tuple[str, Callable[[], Region], dict[str, int]], ...] = (
    ("defensive-tofrom", _build_defensive_vecadd, {"n": 1 << 20}),
    ("scratch-both-ways", _build_scratch_tofrom, {"n": 1 << 20}),
    ("dead-debug-buffer", _build_dead_debug_buffer, {"n": 550, "m": 8192}),
)


def _decide(
    bound: BoundAttributes, platform: Platform, num_threads: int | None
) -> str:
    from ..models import predict_both

    return predict_both(
        bound,
        platform,
        num_threads=num_threads,
        calibration=_calibration(platform, num_threads),
    ).winner


def _run_scenario(
    label: str,
    region: Region,
    env: Mapping[str, int],
    platform: Platform,
    num_threads: int | None,
) -> ScenarioOutcome:
    attrs = ProgramAttributeDatabase().compile_region(region)
    inferred_db = ProgramAttributeDatabase(inferred_transfers=True)
    declared = attrs.bind(env)
    inferred = inferred_db.compile_region(region).bind(env)
    report = lint_region(region, env=env, platform=platform)
    cpu = simulate_cpu(attrs, platform.host, env, num_threads=num_threads)
    gpu = simulate_gpu_kernel(attrs, platform.gpu, env)
    declared_xfer = simulate_transfers(region, platform.bus, env)
    # an inference-aware runtime issues only the copies dataflow kept
    dataflow = inferred.attributes.dataflow
    copies = [
        (int(dataflow[name].copy_in.evaluate(env)),
         int(dataflow[name].copy_out.evaluate(env)))
        for name in region.arrays
    ]
    inferred_xfer = simulate_dmas(
        [c for c, _ in copies if c], [c for _, c in copies if c], platform.bus
    )
    return ScenarioOutcome(
        scenario=label,
        region=region.name,
        map_codes=tuple(
            sorted({d.code for d in report if d.code.startswith("MAP")})
        ),
        declared_to_device=declared.bytes_to_device,
        declared_to_host=declared.bytes_to_host,
        inferred_to_device=inferred.bytes_to_device,
        inferred_to_host=inferred.bytes_to_host,
        cpu_seconds=cpu.seconds,
        gpu_kernel_seconds=gpu.seconds,
        declared_transfer_seconds=declared_xfer.total_seconds,
        inferred_transfer_seconds=inferred_xfer.total_seconds,
        decision_declared=_decide(declared, platform, num_threads),
        decision_inferred=_decide(inferred, platform, num_threads),
    )


def run_transfers(
    platform: "Platform | str" = "p9-v100",
    mode: str = "test",
    *,
    num_threads: int | None = None,
) -> TransfersResult:
    """Compare declared vs inferred transfer sizing suite-wide."""
    plat = _resolve_platform(platform)
    declared_db, cases = _database(mode)
    # compiled per call over the regions _database holds now, so it never
    # outlives clear_caches()
    inferred_db = ProgramAttributeDatabase(inferred_transfers=True)
    for case in cases:
        inferred_db.compile_region(case.region)
    suite = []
    for case in cases:
        declared = declared_db.lookup(case.name).bind(case.env)
        inferred = inferred_db.lookup(case.name).bind(case.env)
        suite.append(
            SuiteTransferRow(
                region=case.name,
                benchmark=case.benchmark,
                declared_to_device=declared.bytes_to_device,
                declared_to_host=declared.bytes_to_host,
                inferred_to_device=inferred.bytes_to_device,
                inferred_to_host=inferred.bytes_to_host,
                decision_declared=_decide(declared, plat, num_threads),
                decision_inferred=_decide(inferred, plat, num_threads),
            )
        )
    scenarios = [
        _run_scenario(label, build(), env, plat, num_threads)
        for label, build, env in _SCENARIOS
    ]
    return TransfersResult(
        platform=plat.name,
        mode=mode,
        suite=tuple(suite),
        scenarios=tuple(scenarios),
    )
