"""Diagnostics core: the finding type every lint pass and the verifier emit.

A :class:`Diagnostic` is one structured finding — a stable code
(``RACE001``, ``PERF102``, ...), a severity, the IR node path it anchors
to, a human message and an optional fix hint.  A :class:`LintReport`
collects the findings for one region and renders them as compiler-style
text or as JSON for tooling.

This module is intentionally standalone (standard library only) so the IR
verifier (:mod:`repro.ir.validate`) can share the diagnostic type without
creating an import cycle with the lint passes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Severity",
    "Diagnostic",
    "LintReport",
    "render_reports_text",
    "reports_to_json",
]


class Severity(enum.IntEnum):
    """Finding severity; ordered so a report lists the worst first."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One structured lint finding, anchored to an IR node path.

    ``path`` locates the offending node from the region root, e.g.
    ``("parallel for i", "for j", "store C[i][j]")`` — the IR has no source
    files, so the node path plays the role of a source span.
    """

    code: str  # stable id, e.g. "RACE001"
    severity: Severity
    message: str
    region: str = ""
    path: tuple[str, ...] = ()
    hint: str | None = None
    source: str | None = None  # name of the pass that produced it

    @property
    def where(self) -> str:
        """The node path as one printable location string."""
        return "/".join((self.region,) + self.path) if self.region else "/".join(self.path)

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
            "region": self.region,
            "path": list(self.path),
        }
        if self.hint:
            out["hint"] = self.hint
        if self.source:
            out["source"] = self.source
        return out

    def render(self) -> str:
        line = f"{self.code} {self.severity.label:<7} @ {self.where}: {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line


@dataclass(frozen=True)
class LintReport:
    """All findings for one region, worst first."""

    region_name: str
    diagnostics: tuple[Diagnostic, ...] = field(default_factory=tuple)

    def __post_init__(self):
        ordered = tuple(
            sorted(
                self.diagnostics,
                key=lambda d: (-int(d.severity), d.code, d.path),
            )
        )
        object.__setattr__(self, "diagnostics", ordered)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def with_severity(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self.with_severity(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self.with_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def by_code(self, code: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.code == code)

    def render_text(self) -> str:
        head = (
            f"{self.region_name}: {len(self.diagnostics)} finding(s) "
            f"({len(self.errors)} error(s), {len(self.warnings)} warning(s))"
        )
        if not self.diagnostics:
            return f"{self.region_name}: clean"
        body = "\n".join("  " + d.render().replace("\n", "\n  ") for d in self.diagnostics)
        return f"{head}\n{body}"

    def to_dict(self) -> dict:
        return {
            "region": self.region_name,
            "clean": not self.diagnostics,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def render_reports_text(reports: Iterable[LintReport]) -> str:
    """Concatenate per-region reports plus a one-line totals footer."""
    reports = list(reports)
    blocks = [r.render_text() for r in reports]
    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    blocks.append(
        f"-- {len(reports)} region(s): {errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(blocks)


def reports_to_json(reports: Iterable[LintReport]) -> str:
    """Machine-readable rendering of a batch of reports."""
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
