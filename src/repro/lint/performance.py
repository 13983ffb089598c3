"""Performance lints: offload-hostile patterns that are legal but slow.

None of these are errors — they are advisory (warning / info)
and mirror the cost terms of the paper's analytical models: the IPDA
inter-thread stride feeding the coalesced/uncoalesced instruction split,
cache-line contention on CPU stores, intra-warp branch divergence, and the
device-memory footprint ceiling.

Diagnostic codes
----------------

========  ========================================================
PERF101   uncoalesced (or unanalysable) inter-thread access stride
PERF102   store stride risks CPU false sharing within a cache line
PERF103   branch inside the parallel band (warp divergence)
PERF104   region footprint exceeds device memory
========  ========================================================
"""

from __future__ import annotations

from typing import Iterable

from ..ir.nodes import If, Load, LocalRef, Loop
from ..ipda.coalescing import CoalescingClass, classify_stride
from .diagnostics import Diagnostic, Severity
from .passes import LintContext, LintPass

__all__ = [
    "BranchDivergencePass",
    "FalseSharingPass",
    "FootprintPass",
    "UncoalescedAccessPass",
]

PERF_UNCOALESCED = "PERF101"
PERF_FALSE_SHARING = "PERF102"
PERF_DIVERGENCE = "PERF103"
PERF_FOOTPRINT = "PERF104"


def _stride_elems(stride, env) -> int | None:
    """Numeric inter-thread element stride, when derivable."""
    if stride is None:
        return None
    n = stride.constant_value()
    if n is not None:
        return int(n)
    if env and stride.free_symbols() <= set(env):
        return int(stride.evaluate(env))
    return None


class UncoalescedAccessPass(LintPass):
    """IPDA inter-thread stride vs the warp's memory-transaction granularity.

    An access whose adjacent-thread stride spans more than one sector turns
    each warp access into up to 32 transactions — the dominant reason the
    paper's model steers a region back to the CPU.  Symbolic strides that
    grow with an extent (column-major style ``A[k][j]`` over band ``k``)
    are flagged too: they are uncoalesced for every realistic binding.
    """

    name = "coalescing"
    codes = (PERF_UNCOALESCED,)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if ctx.ipda is None:
            return []
        out: list[Diagnostic] = []
        for a in ctx.ipda.accesses:
            kind = "store" if a.is_store else "load"
            where = ctx.path_of(a.access)
            if a.thread_stride is None:
                out.append(
                    self.make(
                        ctx,
                        PERF_UNCOALESCED,
                        Severity.WARNING,
                        f"{kind} of {a.access.array.name!r} has a non-affine "
                        "index; the model assumes one transaction per lane",
                        path=where,
                        hint="rewrite the index as an affine function of the band",
                    )
                )
                continue
            n = _stride_elems(a.thread_stride, ctx.env)
            if n is not None:
                cls = classify_stride(
                    n, a.elem_bytes, sector_bytes=ctx.sector_bytes
                )
                if cls is CoalescingClass.UNCOALESCED:
                    out.append(
                        self.make(
                            ctx,
                            PERF_UNCOALESCED,
                            Severity.WARNING,
                            f"{kind} of {a.access.array.name!r} has inter-thread "
                            f"stride {n} elements ({n * a.elem_bytes} B > "
                            f"{ctx.sector_bytes} B sector): one transaction "
                            "per lane",
                            path=where,
                            hint="interchange the band loops or transpose the array",
                        )
                    )
            elif a.thread_stride.free_symbols():
                out.append(
                    self.make(
                        ctx,
                        PERF_UNCOALESCED,
                        Severity.WARNING,
                        f"{kind} of {a.access.array.name!r} has inter-thread "
                        f"stride {a.thread_stride!r}, which scales with the "
                        "problem size: uncoalesced for realistic extents",
                        path=where,
                        hint="interchange the band loops or transpose the array",
                    )
                )
        return out


class FalseSharingPass(LintPass):
    """Adjacent threads storing within one cache line (CPU-side hazard).

    With the band work-shared across cores, stores whose inter-thread
    stride lands inside a cache line ping-pong the line between cores.
    Unit stride is reported at info level only — static scheduling gives
    each core a contiguous chunk, so the sharing is confined to chunk
    edges — while larger sub-line strides contend on every iteration.
    """

    name = "false-sharing"
    codes = (PERF_FALSE_SHARING,)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if ctx.ipda is None:
            return []
        out: list[Diagnostic] = []
        for a in ctx.ipda.accesses:
            if not a.is_store:
                continue
            n = _stride_elems(a.thread_stride, ctx.env)
            if n is None:
                continue
            span = abs(n) * a.elem_bytes
            if not 0 < span < ctx.cacheline_bytes:
                continue
            severity = Severity.INFO if abs(n) == 1 else Severity.WARNING
            out.append(
                self.make(
                    ctx,
                    PERF_FALSE_SHARING,
                    severity,
                    f"store to {a.access.array.name!r} puts adjacent threads "
                    f"{span} B apart, inside one {ctx.cacheline_bytes} B "
                    "cache line (CPU false sharing)",
                    path=ctx.path_of(a.access),
                    hint="pad the written dimension or widen the chunk size",
                )
            )
        return out


class BranchDivergencePass(LintPass):
    """Conditionals inside the parallel band.

    A data-dependent ``if`` (condition reads memory or a local) splits the
    warp into serialised sides; a condition built purely from scalar
    arguments is uniform across the warp and only costs the test itself.
    """

    name = "divergence"
    codes = (PERF_DIVERGENCE,)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        out: list[Diagnostic] = []

        def visit(stmts, path: tuple[str, ...], in_band: bool) -> None:
            for s in stmts:
                if isinstance(s, Loop):
                    kind = "parallel for" if s.parallel else "for"
                    visit(
                        s.body,
                        path + (f"{kind} {s.var.name}",),
                        in_band or s.parallel,
                    )
                elif isinstance(s, If):
                    here = path + (f"if {s.cond!r}",)
                    if in_band:
                        data_dependent = any(
                            isinstance(n, (Load, LocalRef)) for n in s.cond.walk()
                        )
                        if data_dependent:
                            out.append(
                                self.make(
                                    ctx,
                                    PERF_DIVERGENCE,
                                    Severity.WARNING,
                                    f"data-dependent branch {s.cond!r} inside "
                                    "the parallel band serialises divergent "
                                    "warp lanes",
                                    path=here,
                                    hint="convert to a select/predicated form",
                                )
                            )
                        else:
                            out.append(
                                self.make(
                                    ctx,
                                    PERF_DIVERGENCE,
                                    Severity.INFO,
                                    f"branch {s.cond!r} inside the parallel "
                                    "band is warp-uniform (scalar operands)",
                                    path=here,
                                )
                            )
                    visit(s.then_body, here + ("then",), in_band)
                    visit(s.else_body, here + ("else",), in_band)

        visit(ctx.region.body, (), False)
        return out


class FootprintPass(LintPass):
    """Mapped-array footprint vs the accelerator's memory capacity.

    Only applies when both an ``env`` (to size the arrays) and a platform
    with an accelerator are supplied; a region that does not fit triggers
    host-side paging or an outright launch failure.
    """

    name = "footprint"
    codes = (PERF_FOOTPRINT,)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if ctx.env is None or ctx.platform is None:
            return []
        accelerators = getattr(ctx.platform, "accelerators", ())
        if not accelerators:
            return []
        from ..faults.injector import region_footprint_bytes

        try:
            footprint = region_footprint_bytes(ctx.region, ctx.env)
        except Exception:
            return []  # unbound symbols: cannot size the footprint
        out: list[Diagnostic] = []
        for slot in accelerators:
            mem_bytes = int(slot.gpu.mem_size_gib * 2**30)
            if footprint > mem_bytes:
                out.append(
                    self.make(
                        ctx,
                        PERF_FOOTPRINT,
                        Severity.WARNING,
                        f"mapped arrays need {footprint / 2**30:.2f} GiB but "
                        f"{slot.gpu.name} has {slot.gpu.mem_size_gib:g} GiB",
                        path=(),
                        hint="tile the region or stream the arrays",
                    )
                )
        return out
