"""Pre-dispatch lint gate for the offloading runtimes.

A data race that a fork-join host schedule happens to mask becomes a
deterministic corruption under a 100k-thread accelerator schedule, so the
runtimes consult the lint passes *before* dispatching a region to a GPU.
The gate's verdict is recorded in the launch provenance next to the
fault-tolerance fields.

Modes
-----

``raise``
    refuse the launch with :class:`LintGateError`;
``host``  (default)
    force the launch onto the host and mark ``fallback="lint"``;
``warn``
    dispatch as requested but record the findings.

A runtime without a gate (``lint_gate=None``) lints nothing.  The gate
always runs the default pass catalog, and only error-severity findings
whose code starts with a blocking prefix (``RACE``, ``RED``, ``MAP``)
block: performance lints never stop an offload, and structural errors
already raise at ``compile_region`` time.  The only error-severity MAP
finding is MAP001 (under-mapped array) — a silent-corruption bug on a
real accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .diagnostics import LintReport, Severity
from .passes import lint_region

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ir.region import Region

__all__ = [
    "FALLBACK_LINT",
    "GATE_MODES",
    "GateDecision",
    "LintGate",
    "LintGateError",
]

#: ``LaunchRecord.fallback`` value for a lint-forced host launch.
FALLBACK_LINT = "lint"

GATE_MODES = ("warn", "host", "raise")

#: Diagnostic-code prefixes whose error-severity findings block an offload.
BLOCKING_PREFIXES = ("RACE", "RED", "MAP")


class LintGateError(RuntimeError):
    """Raised in ``raise`` mode when a region has blocking findings."""

    def __init__(self, region_name: str, codes: tuple[str, ...]):
        self.region_name = region_name
        self.codes = codes
        super().__init__(
            f"region {region_name!r} blocked by lint findings: "
            f"{', '.join(codes)}"
        )


@dataclass(frozen=True)
class GateDecision:
    """The gate's verdict for one region, recorded in launch provenance."""

    action: str  # "warn" | "force-host" | "raise"
    codes: tuple[str, ...]  # blocking diagnostic codes found
    errors: int
    warnings: int
    report: LintReport = field(compare=False, repr=False, default=None)  # type: ignore[assignment]

    @property
    def blocked(self) -> bool:
        return self.action in ("force-host", "raise")


@dataclass
class LintGate:
    """Pre-dispatch gate over the default pass catalog.

    ``mode`` (one of :data:`GATE_MODES`) picks what a blocking finding
    does.  Reports are cached per region name: races and reductions are
    static properties of the IR, so re-linting on every launch of a hot
    region would only burn time.
    """

    mode: str = "host"

    def __post_init__(self):
        if self.mode not in GATE_MODES:
            raise ValueError(
                f"unknown gate mode {self.mode!r}; pick one of {GATE_MODES}"
            )
        self._reports: dict[str, LintReport] = {}

    def inspect(self, region: "Region") -> LintReport:
        """Lint a region (cached by name)."""
        report = self._reports.get(region.name)
        if report is None:
            report = lint_region(region)
            self._reports[region.name] = report
        return report

    def blocking_codes(self, report: LintReport) -> tuple[str, ...]:
        return tuple(
            sorted(
                {
                    d.code
                    for d in report.diagnostics
                    if d.severity is Severity.ERROR
                    and d.code.startswith(BLOCKING_PREFIXES)
                }
            )
        )

    def decide(self, region: "Region") -> GateDecision | None:
        """Verdict for one region; ``None`` means nothing to record.

        A decision is returned only when blocking findings exist (so
        lint-clean launches keep provenance — and records — identical to a
        gate-less runtime).
        """
        report = self.inspect(region)
        codes = self.blocking_codes(report)
        if not codes:
            return None
        action = {"warn": "warn", "host": "force-host", "raise": "raise"}[self.mode]
        return GateDecision(
            action=action,
            codes=codes,
            errors=len(report.errors),
            warnings=len(report.warnings),
            report=report,
        )
