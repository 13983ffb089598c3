"""Region lint & race detection (``repro.lint``).

Static analysis over the region IR that answers two questions before any
offload: *is this parallel band actually safe to run with an unordered
100k-thread schedule* (races, undeclared reductions, out-of-bounds
indices), and *will it run well* (coalescing, false sharing, divergence,
footprint).  See docs/LINT.md for the pass catalog and gate semantics.

Quick use::

    from repro.lint import lint_region

    report = lint_region(region)
    if report.has_errors:
        print(report.render_text())

Import discipline: only :mod:`repro.lint.diagnostics` (standard library
only) is imported eagerly, because :mod:`repro.ir.validate` pulls it in
while ``repro.ir`` is still initialising.  Everything else resolves lazily
via PEP 562 so this package can be imported from either side of the
ir <-> lint boundary without a cycle.
"""

from .diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    render_reports_text,
    reports_to_json,
)

from .._lazy import lazy_exports

#: public names by defining submodule, loaded on first use
_LAZY = {
    "dependence": (
        "Verdict",
        "DimForm",
        "PairVerdict",
        "affine_dims",
        "cross_thread_conflict",
    ),
    "passes": (
        "LintContext",
        "LintPass",
        "PassManager",
        "StructuralPass",
        "default_pass_manager",
        "lint_region",
    ),
    "dataflow": ("MapDirectionPass",),
    "correctness": (
        "RaceDetectionPass",
        "UndeclaredReductionPass",
        "BoundsPass",
        "is_reduction_like",
    ),
    "performance": (
        "UncoalescedAccessPass",
        "FalseSharingPass",
        "BranchDivergencePass",
        "FootprintPass",
    ),
    "gate": (
        "FALLBACK_LINT",
        "GATE_MODES",
        "GateDecision",
        "LintGate",
        "LintGateError",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "Severity",
        "Diagnostic",
        "LintReport",
        "render_reports_text",
        "reports_to_json",
    ),
)
