"""Map-clause lint: declared transfer directions vs inferred dataflow.

The transfer term of the paper's GPU/CPU breakeven is priced from the
*declared* map of each array (``Region.transfer_bytes``), so a wrong
declaration either corrupts results (an output that never travels back)
or silently shifts the profitability frontier (traffic the kernel never
needed).  :class:`MapDirectionPass` compares the declaration against the
liveness analysis of :mod:`repro.ir.dataflow` and emits:

=======  ========  =====================================================
code     severity  finding
=======  ========  =====================================================
MAP001   error     under-mapped array: a kernel-written value never
                   escapes to the host, or an exposed read observes a
                   buffer that is never copied in
MAP002   warning   over-mapped direction: a declared transfer the body
                   provably never needs (copy-in of an array that is
                   overwritten before any read, or copy-out of an array
                   that is never written)
MAP003   warning   device scratch (written then fully consumed on the
                   device) mapped both ways
MAP004   warning   dead map: array mapped but never touched by the body
MAP005   warning   direction unanalysable (non-affine access); the
                   declared map cannot be verified
=======  ========  =====================================================

MAP001 is the only error: silent data corruption, like a race.  The
performance findings (MAP002–004) quantify the wasted traffic, and when
the context carries an ``env`` and a platform they price the waste in
predicted seconds on the region's bus.
"""

from __future__ import annotations

from typing import Iterable

from ..ir.dataflow import ArrayDataflow, Direction, RegionDataflow
from ..symbolic import Expr
from .diagnostics import Diagnostic, Severity
from .passes import LintContext, LintPass

__all__ = ["MapDirectionPass"]


class MapDirectionPass(LintPass):
    """Check every declared map clause against the inferred direction."""

    name = "map-direction"
    codes = ("MAP001", "MAP002", "MAP003", "MAP004", "MAP005")

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        dataflow: RegionDataflow = ctx.dataflow
        diags: list[Diagnostic] = []
        for name, info in dataflow.arrays.items():
            diags.extend(self._check_array(ctx, name, info))
        return diags

    # -- per-array rules ---------------------------------------------------
    def _check_array(
        self, ctx: LintContext, name: str, info: ArrayDataflow
    ) -> Iterable[Diagnostic]:
        where = (f"array {name}",)
        direction = info.direction

        if direction is Direction.UNKNOWN:
            yield self.make(
                ctx,
                "MAP005",
                Severity.WARNING,
                f"array {name!r}: transfer direction could not be verified "
                f"(unanalysable access {info.unanalysable[0]}); the declared "
                f"map is trusted as-is",
                path=where,
                hint="keep indices affine in the loop variables so the "
                "dataflow analysis can check (and tighten) the map",
            )
            return

        if direction is Direction.DEAD:
            if info.declared_in or info.declared_out:
                yield self.make(
                    ctx,
                    "MAP004",
                    Severity.WARNING,
                    f"array {name!r} is mapped but the kernel never touches "
                    f"it; every transferred byte is wasted"
                    + self._waste(ctx, info, both=True),
                    path=where,
                    hint="drop the array from the map clause",
                )
            return

        # -- under-mapped (correctness): MAP001 -------------------------
        under_mapped_out = (
            info.writes
            and not info.declared_out
            and direction is not Direction.TEMP
        )
        if under_mapped_out:
            yield self.make(
                ctx,
                "MAP001",
                Severity.ERROR,
                f"array {name!r} is written by the kernel but not mapped "
                f"back (no device→host transfer); the computed values are "
                f"lost when the region ends",
                path=where,
                hint="declare the array with output=True (map(from:)) or "
                "inout=True (map(tofrom:))",
            )
        if info.exposed_reads and not info.declared_in:
            yield self.make(
                ctx,
                "MAP001",
                Severity.ERROR,
                f"array {name!r} is read before any kernel write but not "
                f"mapped to the device (no host→device transfer); the "
                f"kernel observes uninitialised device memory",
                path=where,
                hint="declare the array with inout=True (map(tofrom:))",
            )

        # -- device scratch mapped both ways: MAP003 ---------------------
        if info.temp_pattern and info.declared_in and info.declared_out:
            yield self.make(
                ctx,
                "MAP003",
                Severity.WARNING,
                f"array {name!r} is device scratch (every read is fed by an "
                f"earlier kernel write) yet it is mapped both ways; the "
                f"copy-in is provably wasted"
                + self._waste(ctx, info, to_device=True)
                + " and the copy-back likely is too",
                path=where,
                hint="map the array with alloc semantics (device-only "
                "buffer) instead of tofrom",
            )
            return

        # -- over-mapped directions: MAP002 ------------------------------
        # An under-mapped output already demands a rewritten map clause,
        # so the redundant copy-in of the same array is folded into it.
        if (
            not under_mapped_out
            and info.declared_in
            and direction in (Direction.OUT, Direction.TEMP)
        ):
            detail = (
                "overwrites it before any read"
                if info.reads
                else "never reads it"
            )
            yield self.make(
                ctx,
                "MAP002",
                Severity.WARNING,
                f"array {name!r} is mapped host→device but the kernel "
                f"{detail}; the copy-in is pure waste"
                + self._waste(ctx, info, to_device=True),
                path=where,
                hint="declare the array with output=True (map(from:)) so "
                "only the result travels",
            )
        if info.declared_out and direction is Direction.IN:
            yield self.make(
                ctx,
                "MAP002",
                Severity.WARNING,
                f"array {name!r} is mapped device→host but the kernel "
                f"never writes it; the copy-back is pure waste"
                + self._waste(ctx, info, to_host=True),
                path=where,
                hint="drop output/inout from the declaration so the array "
                "only travels host→device",
            )

    # -- waste pricing -----------------------------------------------------
    def _waste(
        self,
        ctx: LintContext,
        info: ArrayDataflow,
        *,
        to_device: bool = False,
        to_host: bool = False,
        both: bool = False,
    ) -> str:
        """Render the wasted traffic, priced on the bus when bindable."""
        arr = info.array
        nbytes_expr: Expr = arr.element_count() * arr.dtype.size
        directions = 0
        if both:
            directions = int(info.declared_in) + int(info.declared_out)
        else:
            directions = int(to_device) + int(to_host)
        if directions == 0:
            return ""
        nbytes = None
        if ctx.env is not None:
            missing = nbytes_expr.free_symbols() - set(ctx.env)
            if not missing:
                nbytes = int(nbytes_expr.evaluate(ctx.env)) * directions
        if nbytes is None:
            per_dir = f"{directions} direction(s) × {nbytes_expr!r} bytes"
            return f" ({per_dir})"
        if ctx.platform is not None:
            bus = ctx.platform.bus
            seconds = directions * bus.transfer_seconds(nbytes // directions)
            return (
                f" ({nbytes} bytes ≈ {seconds * 1e6:.1f} µs on {bus.name} "
                f"per launch)"
            )
        return f" ({nbytes} bytes per launch)"
