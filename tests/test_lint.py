"""Tests for the region lint subsystem: diagnostics, passes, gate, CLI."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.ir import Region, cmp
from repro.ir.validate import ValidationError, structural_diagnostics, validate_region
from repro.ir.visit import memory_accesses
from repro.lint import (
    Diagnostic,
    FALLBACK_LINT,
    GateDecision,
    LintGate,
    LintGateError,
    LintReport,
    PassManager,
    Severity,
    StructuralPass,
    Verdict,
    cross_thread_conflict,
    default_pass_manager,
    is_reduction_like,
    lint_region,
    render_reports_text,
    reports_to_json,
)
from repro.machines import (
    NVLINK2,
    PCIE3_X16,
    POWER9,
    TESLA_K80,
    TESLA_V100,
    AcceleratorSlot,
    Platform,
    platform_by_name,
)
from repro.polybench import all_kernel_cases
from repro.runtime import OffloadingRuntime

from .kernels import (
    build_gemm,
    build_rowwise,
    build_strided_store,
    build_undeclared_reduction,
    build_vecadd,
    build_write_write_race,
)


def _conflict(region, band_vars=None):
    """Run the dependence test on the first store pair of a region."""
    accs = memory_accesses(region)
    stores = [a for a in accs if a.is_store]
    if band_vars is None:
        band_vars = tuple(lp.var.name for lp in region.parallel_band())
    extents = {}
    for a in accs:
        for lp in a.loop_path:
            extents[lp.var.name] = lp.count
    if len(stores) >= 2:
        return cross_thread_conflict(stores[0], stores[1], band_vars, extents)
    return cross_thread_conflict(stores[0], stores[0], band_vars, extents)


class TestDiagnostics:
    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.ERROR.label == "error"

    def test_render_contains_code_location_hint(self):
        d = Diagnostic(
            code="RACE001",
            severity=Severity.ERROR,
            message="boom",
            region="k",
            path=("parallel for i", "store A[[i]]"),
            hint="fix it",
        )
        text = d.render()
        assert "RACE001" in text
        assert "k/parallel for i/store A[[i]]" in text
        assert "hint: fix it" in text

    def test_report_sorts_worst_first(self):
        info = Diagnostic(code="PERF102", severity=Severity.INFO, message="i")
        err = Diagnostic(code="RACE001", severity=Severity.ERROR, message="e")
        warn = Diagnostic(code="PERF101", severity=Severity.WARNING, message="w")
        rep = LintReport("r", (info, err, warn))
        assert [d.code for d in rep.diagnostics] == ["RACE001", "PERF101", "PERF102"]
        assert rep.has_errors
        assert rep.max_severity is Severity.ERROR

    def test_empty_report_renders_clean(self):
        rep = LintReport("r", ())
        assert rep.render_text() == "r: clean"
        assert rep.max_severity is None

    def test_reports_json_roundtrip(self):
        rep = lint_region(build_write_write_race())
        payload = json.loads(reports_to_json([rep]))
        assert payload[0]["region"] == "ww_race"
        assert payload[0]["errors"] >= 1
        codes = {d["code"] for d in payload[0]["diagnostics"]}
        assert "RACE001" in codes

    def test_totals_footer(self):
        text = render_reports_text([lint_region(build_vecadd())])
        assert "1 region(s): 0 error(s)" in text


class TestDependence:
    def test_thread_distinct_store_independent(self):
        pv = _conflict(build_vecadd())
        assert pv.verdict == Verdict.INDEPENDENT

    def test_shifted_pair_conflicts(self):
        pv = _conflict(build_write_write_race())
        assert pv.verdict == Verdict.CONFLICT

    def test_thread_invariant_store_conflicts(self):
        pv = _conflict(build_undeclared_reduction())
        assert pv.verdict == Verdict.CONFLICT

    def test_diagonal_sum_conflicts(self):
        # A[i + j] over a collapsed band: (i+1, j) and (i, j+1) collide.
        r = Region("diag")
        n = r.param("n")
        A = r.array("A", (n + n,), output=True)
        with r.parallel_loop("i", n) as i:
            with r.parallel_loop("j", n) as j:
                r.store(A[i.sym + j.sym], 1.0)
        pv = _conflict(r)
        assert pv.verdict == Verdict.CONFLICT

    def test_gcd_refutes_even_odd(self):
        r = Region("evenodd")
        n = r.param("n")
        A = r.array("A", (n + n + 1,), output=True)
        with r.parallel_loop("i", n) as i:
            r.store(A[i.sym * 2], 1.0)
            r.store(A[i.sym * 2 + 1], 2.0)
        pv = _conflict(r)
        assert pv.verdict == Verdict.INDEPENDENT
        assert "GCD" in pv.detail

    def test_bounds_refute_far_offset(self):
        # A[i] vs A[i+8] with only 8 iterations: offsets never meet.
        r = Region("far")
        A = r.array("A", (16,), output=True)
        with r.parallel_loop("i", 8) as i:
            r.store(A[i.sym], 1.0)
            r.store(A[i.sym + 8], 2.0)
        pv = _conflict(r)
        assert pv.verdict == Verdict.INDEPENDENT

    def test_non_affine_is_undecided(self):
        r = Region("sq")
        n = r.param("n")
        A = r.array("A", (n * n,), output=True)
        with r.parallel_loop("i", n) as i:
            r.store(A[i.sym * i.sym], 1.0)
        pv = _conflict(r)
        assert pv.verdict == Verdict.UNDECIDED

    @given(a=st.integers(1, 7), b=st.integers(-5, 5))
    def test_injective_affine_store_always_independent(self, a, b):
        # A[a*i + b] is injective in i: no two threads share a cell.
        r = Region("inj")
        n = r.param("n")
        A = r.array("A", (n * 8 + 8,))
        with r.parallel_loop("i", n) as i:
            r.store(A[i.sym * a + (b + 5)], 1.0)
        assert _conflict(r).verdict == Verdict.INDEPENDENT

    @given(c=st.integers(0, 100))
    def test_constant_index_store_always_conflicts(self, c):
        r = Region("const")
        n = r.param("n")
        A = r.array("A", (101,), inout=True)
        with r.parallel_loop("i", n):
            r.store(A[c], 1.0)
        assert _conflict(r).verdict == Verdict.CONFLICT


class TestStructural:
    def test_validate_raises_value_error_subclass(self):
        r = Region("nb")
        n = r.param("n")
        A = r.array("A", (n,), output=True)
        with r.loop("i", n) as i:  # sequential only: no band
            r.store(A[i], 1.0)
        with pytest.raises(ValidationError):
            validate_region(r)
        assert issubclass(ValidationError, ValueError)

    def test_missing_band_is_struct001(self):
        r = Region("nb2")
        n = r.param("n")
        A = r.array("A", (n,), output=True)
        with r.loop("i", n) as i:
            r.store(A[i], 1.0)
        diags = structural_diagnostics(r)
        assert "STRUCT001" in {d.code for d in diags}

    def test_error_message_carries_node_path(self):
        r = Region("scope")
        n = r.param("n")
        A = r.array("A", (n,), output=True)
        with r.parallel_loop("i", n):
            r.store(A[Region("other").param("z").sym], 1.0)
        with pytest.raises(ValidationError, match="parallel for i"):
            validate_region(r)

    def test_structural_errors_short_circuit_passes(self):
        r = Region("nb3")
        n = r.param("n")
        A = r.array("A", (n,), output=True)
        with r.loop("i", n) as i:
            r.store(A[i], 1.0)
        report = lint_region(r)
        assert report.has_errors
        # only structural findings: downstream passes were skipped
        assert all(d.code.startswith("STRUCT") for d in report.diagnostics)


class TestCorrectnessPasses:
    def test_write_write_race_flagged(self):
        report = lint_region(build_write_write_race())
        codes = {d.code for d in report.errors}
        assert "RACE001" in codes

    def test_undeclared_reduction_flagged_as_red001_only(self):
        report = lint_region(build_undeclared_reduction())
        assert {d.code for d in report.errors} == {"RED001"}

    def test_declared_reduction_is_clean(self):
        r = Region("declared")
        n = r.param("n")
        x = r.array("x", (n,))
        s = r.array("s", (1,), inout=True)
        with r.parallel_loop("i", n) as i:
            r.reduce_store(s[0], x[i], op="add")
        assert not lint_region(r).has_errors

    def test_read_write_race_flagged(self):
        # thread i reads A[i+1] while thread i+1 writes it
        r = Region("rw")
        n = r.param("n")
        A = r.array("A", (n + 1,), inout=True)
        B = r.array("B", (n,), output=True)
        with r.parallel_loop("i", n) as i:
            r.store(B[i], A[i.sym + 1])
            r.store(A[i.sym], 0.0)
        codes = {d.code for d in lint_region(r).errors}
        assert "RACE002" in codes

    def test_inplace_stencil_races_detected(self):
        # A[i][j] = f(A[i±1][j±1]): the store reads back its own cell (so
        # it *looks* reduction-like) but must still race against the
        # neighbour reads; the diagonal pairs need the combined
        # forced-delta solution (delta(i)=-1, delta(j)=-1).
        r = Region("stencil")
        n = r.param("n")
        A = r.array("A", (n, n), inout=True)
        with r.parallel_loop("i", n - 2, start=1) as i:
            with r.parallel_loop("j", n - 2, start=1) as j:
                r.store(
                    A[i, j],
                    A[i, j] + A[i - 1, j] + A[i, j - 1] + A[i - 1, j - 1],
                )
        report = lint_region(r)
        races = report.by_code("RACE002")
        assert len(races) == 3  # one per neighbour read; self-read exempt
        assert not report.by_code("RACE003")
        assert not report.by_code("RED001")

    def test_is_reduction_like(self):
        r = Region("rl")
        n = r.param("n")
        s = r.array("s", (1,), inout=True)
        with r.parallel_loop("i", n):
            r.store(s[0], s[0] + 1.0)
        store = [a for a in memory_accesses(r) if a.is_store][0]
        assert is_reduction_like(store.node)

    def test_gemm_accumulator_not_a_reduction_finding(self):
        assert not lint_region(build_gemm()).has_errors

    def test_bounds_overrun_flagged(self):
        r = Region("over")
        A = r.array("A", (4,), output=True)
        with r.parallel_loop("i", 8) as i:
            r.store(A[i], 1.0)
        codes = {d.code for d in lint_region(r).errors}
        assert "BND002" in codes

    def test_negative_index_flagged(self):
        r = Region("neg")
        n = r.param("n")
        A = r.array("A", (n,), output=True)
        with r.parallel_loop("i", n, start=-2) as i:
            r.store(A[i], 1.0)
        codes = {d.code for d in lint_region(r).errors}
        assert "BND001" in codes

    def test_numeric_env_sharpens_bounds(self):
        # symbolically fine (extent m vs trips n), numerically overrun
        r = Region("envbnd")
        n, m = r.param_tuple("n", "m")
        A = r.array("A", (m,), output=True)
        with r.parallel_loop("i", n) as i:
            r.store(A[i], 1.0)
        assert not lint_region(r).has_errors
        report = lint_region(r, env={"n": 16, "m": 8})
        assert "BND002" in {d.code for d in report.errors}

    def test_zero_extent_array_flagged(self):
        r = Region("zext")
        A = r.array("A", (0,), output=True)
        with r.parallel_loop("i", 1) as i:
            r.store(A[i], 1.0)
        codes = {d.code for d in lint_region(r).diagnostics}
        assert "BND003" in codes

    def test_dead_loop_warned(self):
        r = Region("dead")
        n = r.param("n")
        A = r.array("A", (n,), output=True)
        with r.parallel_loop("i", n) as i:
            with r.loop("j", 0):
                r.store(A[i], 1.0)
        report = lint_region(r)
        assert "BND004" in {d.code for d in report.diagnostics}
        assert not report.has_errors

    def test_triangular_bounds_in_range(self):
        # for j2 in [j1, m): A[j1][j2] stays within (m, m)
        r = Region("tri")
        m = r.param("m")
        A = r.array("A", (m, m), output=True)
        with r.parallel_loop("j1", m) as j1:
            with r.loop("j2", m - j1.sym, start=j1) as j2:
                r.store(A[j1, j2], 1.0)
        assert not lint_region(r).has_errors


class TestPerformancePasses:
    def test_symbolic_stride_warns_uncoalesced(self):
        report = lint_region(build_rowwise())
        assert "PERF101" in {d.code for d in report.warnings}

    def test_numeric_stride_warns_uncoalesced(self):
        report = lint_region(build_strided_store(), env={"max": 1100})
        assert "PERF101" in {d.code for d in report.warnings}

    def test_coalesced_region_has_no_perf101(self):
        report = lint_region(build_vecadd(), env={"n": 4096})
        assert "PERF101" not in {d.code for d in report.diagnostics}

    def test_unit_stride_false_sharing_is_info(self):
        report = lint_region(build_vecadd())
        fs = report.by_code("PERF102")
        assert fs and all(d.severity is Severity.INFO for d in fs)

    def test_subline_stride_false_sharing_warns(self):
        r = Region("fs2")
        n = r.param("n")
        A = r.array("A", (n * 4,), output=True)
        with r.parallel_loop("i", n) as i:
            r.store(A[i.sym * 4], 1.0)
        fs = lint_region(r).by_code("PERF102")
        assert fs and fs[0].severity is Severity.WARNING

    def test_data_dependent_branch_warns(self):
        r = Region("div")
        n = r.param("n")
        A = r.array("A", (n,))
        B = r.array("B", (n,), output=True)
        with r.parallel_loop("i", n) as i:
            with r.if_(cmp("gt", A[i], 0.0)):
                r.store(B[i], 1.0)
        found = lint_region(r).by_code("PERF103")
        assert found and found[0].severity is Severity.WARNING

    def test_uniform_branch_is_info(self):
        r = Region("uni")
        n = r.param("n")
        B = r.array("B", (n,), output=True)
        t = r.scalar("t")
        with r.parallel_loop("i", n) as i:
            with r.if_(cmp("gt", t, 0.0)):
                r.store(B[i], 1.0)
        found = lint_region(r).by_code("PERF103")
        assert found and found[0].severity is Severity.INFO

    def test_footprint_exceeding_device_memory_warns(self):
        platform = platform_by_name("p9-v100")  # 16 GiB V100
        report = lint_region(
            build_vecadd(), env={"n": 2 * 1024**3}, platform=platform
        )
        assert "PERF104" in {d.code for d in report.warnings}

    def test_footprint_within_memory_is_silent(self):
        platform = platform_by_name("p9-v100")
        report = lint_region(build_vecadd(), env={"n": 4096}, platform=platform)
        assert "PERF104" not in {d.code for d in report.diagnostics}


class TestPolybenchClean:
    @pytest.mark.parametrize(
        "case", all_kernel_cases("test"), ids=lambda c: c.name
    )
    def test_no_error_findings(self, case):
        report = lint_region(case.region, env=case.env)
        assert not report.has_errors, report.render_text()

    def test_no_undecided_races_across_suite(self):
        for case in all_kernel_cases("test"):
            report = lint_region(case.region)
            assert not report.by_code("RACE003"), report.render_text()


class TestGate:
    def test_clean_region_yields_no_decision(self):
        gate = LintGate(mode="host")
        assert gate.decide(build_vecadd()) is None

    def test_blocked_region_decision(self):
        gate = LintGate(mode="host")
        decision = gate.decide(build_write_write_race())
        assert decision is not None
        assert decision.action == "force-host"
        assert decision.blocked
        assert "RACE001" in decision.codes

    def test_warn_mode_not_blocking(self):
        decision = LintGate(mode="warn").decide(build_write_write_race())
        assert decision is not None and not decision.blocked

    def test_off_mode_skips_linting(self):
        assert LintGate(mode="off").decide(build_write_write_race()) is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            LintGate(mode="yolo")

    def test_report_cached_per_region_name(self):
        gate = LintGate()
        r = build_write_write_race()
        assert gate.inspect(r) is gate.inspect(r)

    def test_perf_warnings_never_block(self):
        decision = LintGate(mode="host").decide(build_rowwise())
        assert decision is None  # PERF101 is warning severity

    def test_custom_block_prefixes(self):
        gate = LintGate(mode="host", block_prefixes=("BND",))
        r = Region("over2")
        A = r.array("A", (4,), output=True)
        with r.parallel_loop("i", 8) as i:
            r.store(A[i], 1.0)
        decision = gate.decide(r)
        assert decision is not None and decision.codes == ("BND002",)


DUAL = Platform(
    "P9 + V100/NVLink + K80/PCIe",
    POWER9,
    (
        AcceleratorSlot(TESLA_V100, NVLINK2),
        AcceleratorSlot(TESLA_K80, PCIE3_X16),
    ),
)


class TestRuntimeGate:
    ENV = {"n": 64}

    def _runtime(self, **kw):
        rt = OffloadingRuntime(platform_by_name("p9-v100"), **kw)
        rt.compile_region(build_write_write_race())
        return rt

    def test_force_host_records_lint_provenance(self):
        rt = self._runtime(lint_gate=LintGate(mode="host"))
        rec = rt.launch("ww_race", self.ENV)
        assert rec.requested_target == "gpu"
        assert rec.target == "cpu"
        assert rec.fallback == FALLBACK_LINT == "lint"
        assert rec.fell_back
        assert isinstance(rec.lint, GateDecision)
        assert rec.lint.codes == ("RACE001",)
        assert rec.attempts == 0  # never reached the accelerator

    def test_raise_mode_refuses_launch(self):
        rt = self._runtime(lint_gate=LintGate(mode="raise"))
        with pytest.raises(LintGateError, match="RACE001"):
            rt.launch("ww_race", self.ENV)

    def test_warn_mode_dispatches_but_records(self):
        rt = self._runtime(lint_gate=LintGate(mode="warn"))
        rec = rt.launch("ww_race", self.ENV)
        assert rec.target == rec.requested_target == "gpu"
        assert rec.fallback is None
        assert rec.lint is not None and rec.lint.action == "warn"

    def test_clean_run_bit_identical_with_and_without_gate(self):
        plain = OffloadingRuntime(platform_by_name("p9-v100"))
        gated = OffloadingRuntime(
            platform_by_name("p9-v100"), lint_gate=LintGate(mode="host")
        )
        for rt in (plain, gated):
            rt.compile_region(build_vecadd())
        a = plain.launch("vecadd", {"n": 4096})
        b = gated.launch("vecadd", {"n": 4096})
        assert a == b
        assert b.lint is None

    def test_multi_runtime_forces_host(self):
        mrt = OffloadingRuntime(DUAL, lint_gate=LintGate(mode="host"))
        mrt.compile_region(build_write_write_race())
        rec = mrt.launch("ww_race", self.ENV)
        assert rec.target == "cpu"
        assert rec.fallback == FALLBACK_LINT
        assert rec.lint is not None and rec.lint.blocked
        assert rec.attempts == 0

    def test_multi_runtime_raise_mode(self):
        mrt = OffloadingRuntime(DUAL, lint_gate=LintGate(mode="raise"))
        mrt.compile_region(build_write_write_race())
        with pytest.raises(LintGateError):
            mrt.launch("ww_race", self.ENV)

    def test_multi_clean_run_bit_identical(self):
        plain = OffloadingRuntime(DUAL)
        gated = OffloadingRuntime(DUAL, lint_gate=LintGate(mode="host"))
        for rt in (plain, gated):
            rt.compile_region(build_vecadd())
        a = plain.launch("vecadd", {"n": 4096})
        b = gated.launch("vecadd", {"n": 4096})
        assert a == b
        assert b.lint is None


class TestPassManager:
    def test_default_catalog_names(self):
        names = default_pass_manager().pass_names()
        assert names[0] == "structural"
        assert {"race", "reduction", "bounds"} <= set(names)

    def test_register_chains(self):
        pm = PassManager().register(StructuralPass())
        assert pm.pass_names() == ["structural"]

    def test_report_region_name(self):
        assert lint_region(build_vecadd()).region_name == "vecadd"


class TestImportOrder:
    """repro.ir and repro.lint must import cleanly from either side."""

    @pytest.mark.parametrize("first", ["repro.ir", "repro.lint"])
    def test_import_order(self, first):
        second = "repro.lint" if first == "repro.ir" else "repro.ir"
        code = (
            f"import {first}\n"
            f"import {second}\n"
            "from repro.lint import lint_region, LintGate\n"
            "from repro.ir.validate import structural_diagnostics\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
