"""Pass framework: lint context, pass protocol and the pass manager.

A lint pass is a small object with a ``name``, the diagnostic ``codes`` it
can emit, and a ``run(ctx)`` method yielding :class:`Diagnostic`s.  The
:class:`PassManager` runs registered passes over one region and folds the
findings into a :class:`LintReport`.

The structural verifier runs first and is special: when it finds errors the
region's IR cannot be trusted, so the remaining passes are skipped (their
analyses would crash or lie on malformed input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from ..ir.nodes import Loop
from ..ir.region import Region
from ..ir.validate import structural_diagnostics
from ..ir.visit import MemoryAccess, memory_accesses
from ..symbolic import Expr
from .diagnostics import Diagnostic, LintReport, Severity

__all__ = [
    "LintContext",
    "LintPass",
    "PassManager",
    "StructuralPass",
    "default_pass_manager",
    "lint_region",
]


@dataclass
class LintContext:
    """Everything a pass may consult, with lazily cached shared analyses.

    ``env`` (runtime parameter bindings) and ``platform`` are optional: the
    correctness passes are fully static, while some performance lints
    sharpen (or only apply) when bindings / device descriptors are known.
    """

    region: Region
    env: Mapping[str, int] | None = None
    platform: "object | None" = None  # repro.machines.Platform when present
    warp_size: int = 32
    sector_bytes: int = 32
    cacheline_bytes: int = 128

    @cached_property
    def band(self) -> tuple[Loop, ...]:
        """The outermost parallel band; empty for malformed regions."""
        try:
            return tuple(self.region.parallel_band())
        except ValueError:
            return ()

    @cached_property
    def band_vars(self) -> tuple[str, ...]:
        return tuple(lp.var.name for lp in self.band)

    @cached_property
    def accesses(self) -> tuple[MemoryAccess, ...]:
        return tuple(memory_accesses(self.region))

    @cached_property
    def extents(self) -> dict[str, Expr]:
        """Loop variable -> trip count for every loop of the region."""
        out: dict[str, Expr] = {}

        def visit(stmts):
            for s in stmts:
                if isinstance(s, Loop):
                    out[s.var.name] = s.count
                    visit(s.body)
                elif hasattr(s, "then_body"):
                    visit(s.then_body)
                    visit(s.else_body)

        visit(self.region.body)
        return out

    @cached_property
    def loops(self) -> dict[str, Loop]:
        """Loop variable -> loop node, for bounds queries."""
        out: dict[str, Loop] = {}

        def visit(stmts):
            for s in stmts:
                if isinstance(s, Loop):
                    out[s.var.name] = s
                    visit(s.body)
                elif hasattr(s, "then_body"):
                    visit(s.then_body)
                    visit(s.else_body)

        visit(self.region.body)
        return out

    @cached_property
    def dataflow(self):
        """Array liveness / transfer-direction analysis of the region."""
        from ..ir.dataflow import analyze_transfers

        return analyze_transfers(self.region)

    @cached_property
    def ipda(self):
        """Symbolic IPDA result, or ``None`` when the region has no band."""
        if not self.band:
            return None
        from ..ipda.analysis import analyze_region

        return analyze_region(self.region)

    def path_of(self, access: MemoryAccess) -> tuple[str, ...]:
        """Node path of a memory access, built from its loop context."""
        path = tuple(
            f"{'parallel for' if lp.parallel else 'for'} {lp.var.name}"
            for lp in access.loop_path
        )
        kind = "store" if access.is_store else "load"
        dims = "][".join(repr(i) for i in access.idxs)
        return path + (f"{kind} {access.array.name}[{dims}]",)


class LintPass:
    """Base class of lint passes; subclasses override :meth:`run`."""

    name: str = "?"
    codes: tuple[str, ...] = ()

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    def make(
        self,
        ctx: LintContext,
        code: str,
        severity: Severity,
        message: str,
        path: tuple[str, ...] = (),
        hint: str | None = None,
    ) -> Diagnostic:
        """Build a diagnostic stamped with this pass and the region name."""
        return Diagnostic(
            code=code,
            severity=severity,
            message=message,
            region=ctx.region.name,
            path=path,
            hint=hint,
            source=self.name,
        )


class StructuralPass(LintPass):
    """The IR verifier's checks, surfaced as lint findings."""

    name = "structural"
    codes = tuple(f"STRUCT{i:03d}" for i in range(1, 8))

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        return structural_diagnostics(ctx.region)


@dataclass
class PassManager:
    """Runs registered passes over a region and aggregates the findings."""

    passes: list[LintPass] = field(default_factory=list)

    def register(self, lint_pass: LintPass) -> "PassManager":
        self.passes.append(lint_pass)
        return self

    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]

    def run(
        self,
        region: Region,
        *,
        env: Mapping[str, int] | None = None,
        platform: "object | None" = None,
    ) -> LintReport:
        ctx = LintContext(region=region, env=env, platform=platform)
        diags: list[Diagnostic] = []
        for p in self.passes:
            found = list(p.run(ctx))
            diags.extend(found)
            if isinstance(p, StructuralPass) and any(
                d.severity is Severity.ERROR for d in found
            ):
                # Malformed IR: downstream analyses would crash or lie.
                break
        return LintReport(region_name=region.name, diagnostics=tuple(diags))


def default_pass_manager() -> PassManager:
    """The full catalog: structural, correctness, then performance passes."""
    from .correctness import BoundsPass, RaceDetectionPass, UndeclaredReductionPass
    from .dataflow import MapDirectionPass
    from .performance import (
        BranchDivergencePass,
        FalseSharingPass,
        FootprintPass,
        UncoalescedAccessPass,
    )

    return PassManager(
        passes=[
            StructuralPass(),
            RaceDetectionPass(),
            UndeclaredReductionPass(),
            BoundsPass(),
            MapDirectionPass(),
            UncoalescedAccessPass(),
            FalseSharingPass(),
            BranchDivergencePass(),
            FootprintPass(),
        ]
    )


def lint_region(
    region: Region,
    *,
    env: Mapping[str, int] | None = None,
    platform: "object | None" = None,
) -> LintReport:
    """Run the default pass catalog over one region."""
    return default_pass_manager().run(region, env=env, platform=platform)
