"""Tests for the array-liveness / transfer-direction dataflow analysis.

Covers the :mod:`repro.ir.dataflow` classifier (directions, coverage
rules, symbolic byte bounds), the MAP001–MAP005 lint passes, the
transfer-sizing hardening, the opt-in ``inferred_transfers`` database
mode with its bit-identity guarantee, and the ``repro-paper transfers``
/ ``lint --fail-on`` CLI surfaces.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis import ProgramAttributeDatabase
from repro.cli import build_parser, main
from repro.experiments import run_transfers
from repro.experiments.transfers import _SCENARIOS
from repro.ir import Region, cmp
from repro.ir.dataflow import Direction, analyze_transfers
from repro.ir.region import evaluate_transfer_bytes
from repro.lint import (
    LintGate,
    Severity,
    default_pass_manager,
    lint_region,
    reports_to_json,
)
from repro.machines import platform_by_name
from repro.models.transfer import estimate_transfer
from repro.polybench import all_kernel_cases
from repro.runtime import OffloadingRuntime
from repro.sim import simulate_dmas
from repro.sim.interconnect_sim import STAGING_EFFICIENCY

from .kernels import (
    build_dead_map,
    build_gemm,
    build_overmapped_input,
    build_temp_mapped_both_ways,
    build_unanalysable_direction,
    build_undermapped_output,
    build_vecadd,
)

GOLDEN_LINT = Path(__file__).parent / "golden" / "lint_map.json"

MAP_FIXTURES = (
    (build_undermapped_output, "MAP001"),
    (build_overmapped_input, "MAP002"),
    (build_temp_mapped_both_ways, "MAP003"),
    (build_dead_map, "MAP004"),
    (build_unanalysable_direction, "MAP005"),
)


class TestDirectionClassification:
    def test_vecadd_directions(self):
        df = analyze_transfers(build_vecadd())
        assert df.direction_of("x") is Direction.IN
        assert df.direction_of("y") is Direction.IN
        assert df.direction_of("z") is Direction.OUT

    def test_gemm_inout(self):
        df = analyze_transfers(build_gemm())
        assert df.direction_of("A") is Direction.IN
        assert df.direction_of("B") is Direction.IN
        # C is read (beta*C) before being overwritten
        assert df.direction_of("C") is Direction.INOUT

    def test_undermapped_output_is_out(self):
        info = analyze_transfers(build_undermapped_output())["z"]
        assert info.direction is Direction.OUT
        assert info.writes > 0 and info.exposed_reads == 0
        # declared input-only, so the inferred copy-back is zero — the
        # value is lost, which is exactly what MAP001 flags
        assert info.copy_out.constant_value() == 0

    def test_dead_array(self):
        info = analyze_transfers(build_dead_map())["unused"]
        assert info.direction is Direction.DEAD
        assert info.reads == info.writes == 0
        assert info.copy_in.constant_value() == 0
        assert info.copy_out.constant_value() == 0

    def test_unknown_falls_back_to_declared(self):
        df = analyze_transfers(build_unanalysable_direction())
        info = df["x"]
        assert info.direction is Direction.UNKNOWN
        assert info.unanalysable
        # declared input-only map is trusted as-is
        assert info.copy_in.free_symbols() == {"n"}
        assert info.copy_out.constant_value() == 0

    def test_temp_pattern_flag(self):
        info = analyze_transfers(build_temp_mapped_both_ways())["W"]
        assert info.temp_pattern
        assert info.exposed_reads == 0 and info.covered_reads > 0
        # declared tofrom: the copy-in is dropped, the copy-back kept
        # (the analysis cannot see past the region's end)
        assert info.copy_in.constant_value() == 0
        assert info.copy_out.free_symbols() == {"n"}


class TestCoverageRules:
    def _scratch_region(self, **w_kwargs) -> Region:
        """y[i,:] = f(x[i,:]) via a per-thread row of W (device scratch)."""
        r = Region("rowscratch")
        n, m = r.param_tuple("n", "m")
        x = r.array("x", (n, m))
        W = r.array("W", (n, m), **w_kwargs)
        y = r.array("y", (n, m), output=True)
        with r.parallel_loop("i", n) as i:
            with r.loop("j", m) as j:
                r.store(W[i, j], x[i, j] * 2.0)
            with r.loop("j2", m) as j2:
                r.store(y[i, j2], W[i, j2] + 1.0)
        return r

    def test_row_scratch_is_temp(self):
        df = analyze_transfers(self._scratch_region())
        assert df.direction_of("W") is Direction.TEMP

    def test_partial_first_write_stays_exposed(self):
        r = Region("partial")
        n, m = r.param_tuple("n", "m")
        x = r.array("x", (n, m))
        W = r.array("W", (n, m))
        y = r.array("y", (n, m), output=True)
        with r.parallel_loop("i", n) as i:
            with r.loop("j", m, start=1) as j:  # element 0 never written
                r.store(W[i, j], x[i, j])
            with r.loop("j2", m) as j2:
                r.store(y[i, j2], W[i, j2])
        info = analyze_transfers(r)["W"]
        assert info.direction is Direction.INOUT
        assert info.exposed_reads == 1

    def test_conditional_write_never_covers(self):
        r = Region("condw")
        n = r.param("n")
        x = r.array("x", (n,))
        W = r.array("W", (n,))
        y = r.array("y", (n,), output=True)
        with r.parallel_loop("i", n) as i:
            with r.if_(cmp("gt", x[i], 0.0)):
                r.store(W[i], x[i] * 2.0)
            r.store(y[i], W[i])
        info = analyze_transfers(r)["W"]
        assert info.direction is Direction.INOUT
        assert info.exposed_reads == 1

    def test_flattened_same_iteration_coverage(self):
        r = Region("flat")
        n, m = r.param_tuple("n", "m")
        x = r.array("x", (n * m,))
        W = r.array("W", (n * m,))
        y = r.array("y", (n * m,), output=True)
        with r.parallel_loop("i", n) as i:
            with r.loop("j", m) as j:
                flat = i.sym * m.sym + j.sym
                r.store(W[flat], x[flat])
                r.store(y[flat], W[flat] + 1.0)
        info = analyze_transfers(r)["W"]
        assert info.direction is Direction.TEMP
        # the (i,j) nest tiles the whole array contiguously
        assert info.fully_overwritten

    def test_sibling_subnest_flat_read_is_conservative(self):
        # Reading the flat row back from a *sibling* sub-nest is real
        # coverage, but the mixed-radix argument cannot see it; the
        # analysis must degrade toward "host value needed", never drop.
        r = Region("flat_sibling")
        n, m = r.param_tuple("n", "m")
        x = r.array("x", (n * m,))
        W = r.array("W", (n * m,))
        y = r.array("y", (n * m,), output=True)
        with r.parallel_loop("i", n) as i:
            with r.loop("j", m) as j:
                r.store(W[i.sym * m.sym + j.sym], x[i.sym * m.sym + j.sym])
            with r.loop("j2", m) as j2:
                r.store(y[i.sym * m.sym + j2.sym], W[i.sym * m.sym + j2.sym])
        assert analyze_transfers(r).direction_of("W") is Direction.INOUT

    def test_reduce_store_counts_as_exposed_read(self):
        r = Region("red")
        n = r.param("n")
        x = r.array("x", (n,))
        s = r.array("s", (1,), inout=True)
        with r.parallel_loop("i", n) as i:
            r.reduce_store(s[0], x[i])
        info = analyze_transfers(r)["s"]
        # the reduction combines with the incoming host value
        assert info.direction is Direction.INOUT
        assert info.exposed_reads == 1


class TestTransferSizing:
    def test_inferred_bytes_drop_wasted_directions(self):
        df = analyze_transfers(build_overmapped_input())
        env = {"n": 100}
        to_dev, to_host = df.transfer_bytes(env)
        # declared would move z both ways; inference drops its copy-in
        assert (to_dev, to_host) == (800, 400)
        declared = build_overmapped_input().transfer_bytes(env)
        assert declared == (1200, 400)

    def test_clean_region_matches_declared(self):
        region = build_vecadd()
        env = {"n": 64}
        assert analyze_transfers(region).transfer_bytes(env) == \
            region.transfer_bytes(env)

    def test_unbound_symbol_raises_keyerror_naming_region(self):
        with pytest.raises(KeyError, match=r"vecadd.*'x'.*\['n'\]"):
            build_vecadd().transfer_bytes({})

    @pytest.mark.parametrize("inferred", [False, True], ids=["declared", "inferred"])
    def test_unbound_and_negative_messages_are_pinned(self, inferred):
        """The exact texts, on the declared map and the inferred directions.

        Evaluation runs first and the symbols are walked only to name the
        unbound ones, so the texts must not move with that order.
        """
        cases = [
            (build_vecadd(), {}, KeyError,
             "region 'vecadd': transfer sizing of array 'x' needs unbound "
             "symbols ['n']"),
            (build_gemm(), {}, KeyError,
             "region 'gemm': transfer sizing of array 'A' needs unbound "
             "symbols ['ni', 'nk']"),
            (build_gemm(), {"ni": 4}, KeyError,
             "region 'gemm': transfer sizing of array 'A' needs unbound "
             "symbols ['nk']"),
            (build_vecadd(), {"n": -5}, ValueError,
             "region 'vecadd': array 'x' transfer size is negative (-20 "
             "bytes) — check the extent bindings"),
            (build_gemm(), {"ni": 4, "nj": 4, "nk": -2}, ValueError,
             "region 'gemm': array 'A' transfer size is negative (-32 "
             "bytes) — check the extent bindings"),
        ]
        for region, env, error, text in cases:
            price = (
                analyze_transfers(region).transfer_bytes
                if inferred
                else region.transfer_bytes
            )
            with pytest.raises(error) as raised:
                price(env)
            assert raised.value.args == (text,)

    def test_dataflow_bytes_share_the_hardening(self):
        with pytest.raises(KeyError, match="rowscratch"):
            df = analyze_transfers(TestCoverageRules()._scratch_region())
            df.transfer_bytes({"n": 4})  # m unbound

    def test_negative_extent_raises_valueerror(self):
        with pytest.raises(ValueError, match="negative"):
            build_vecadd().transfer_bytes({"n": -5})

    def test_evaluate_transfer_bytes_helper(self):
        from repro.symbolic import Sym

        nbytes = Sym("n") * 4
        assert evaluate_transfer_bytes("r", "a", nbytes, {"n": 8}) == 32
        with pytest.raises(ValueError, match=r"'a' transfer size is negative"):
            evaluate_transfer_bytes("r", "a", nbytes, {"n": -8})

    def test_estimate_transfer_rejects_negative_bytes(self):
        bus = platform_by_name("p9-v100").bus
        with pytest.raises(ValueError, match="negative transfer size"):
            estimate_transfer(-1, 0, bus)
        with pytest.raises(ValueError, match="to_host=-8"):
            estimate_transfer(0, -8, bus)


class TestMapLint:
    @pytest.mark.parametrize(
        "build,expected", MAP_FIXTURES, ids=lambda v: getattr(v, "__name__", v)
    )
    def test_fixture_fires_exactly_its_code(self, build, expected):
        report = lint_region(build())
        map_codes = {d.code for d in report if d.code.startswith("MAP")}
        assert map_codes == {expected}, report.render_text()

    def test_map001_is_the_only_map_error(self):
        severities = {}
        for build, code in MAP_FIXTURES:
            for d in lint_region(build()):
                if d.code.startswith("MAP"):
                    severities[code] = d.severity
        assert severities["MAP001"] is Severity.ERROR
        for code in ("MAP002", "MAP003", "MAP004", "MAP005"):
            assert severities[code] is Severity.WARNING

    def test_waste_priced_on_the_bus_with_env_and_platform(self):
        report = lint_region(
            build_dead_map(),
            env={"n": 1024},
            platform=platform_by_name("p9-v100"),
        )
        (diag,) = [d for d in report if d.code == "MAP004"]
        assert "bytes" in diag.message and "per launch" in diag.message

    @pytest.mark.parametrize(
        "case", all_kernel_cases("test"), ids=lambda c: c.name
    )
    def test_polybench_suite_is_map_clean(self, case):
        report = lint_region(
            case.region, env=case.env, platform=platform_by_name("p9-v100")
        )
        map_codes = [d.code for d in report if d.code.startswith("MAP")]
        assert not map_codes, report.render_text()

    def test_gate_blocks_map001(self):
        decision = LintGate(mode="host").decide(build_undermapped_output())
        assert decision is not None and decision.blocked
        assert "MAP001" in decision.codes

    def test_gate_ignores_map_warnings(self):
        assert LintGate(mode="host").decide(build_overmapped_input()) is None


class TestPassOrdering:
    def test_map_pass_registered_after_bounds(self):
        names = default_pass_manager().pass_names()
        assert "map-direction" in names
        assert names.index("map-direction") > names.index("bounds")

    def test_structural_errors_short_circuit_map_passes(self):
        r = Region("twoband")
        n = r.param("n")
        x = r.array("x", (n,))
        y = r.array("y", (n,))  # written but not mapped out: MAP001 bait
        with r.parallel_loop("i", n) as i:
            r.store(y[i], x[i])
        with r.parallel_loop("j", n) as j:
            r.store(y[j], x[j] * 2.0)
        report = lint_region(r)
        codes = {d.code for d in report}
        assert codes and all(c.startswith("STRUCT") for c in codes), codes


def test_lint_json_schema_matches_golden(request):
    reports = [lint_region(build()) for build, _ in MAP_FIXTURES]
    rendered = reports_to_json(reports) + "\n"
    if request.config.getoption("--update-golden"):
        GOLDEN_LINT.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_LINT.write_text(rendered)
        pytest.skip("golden lint report regenerated")
    assert GOLDEN_LINT.exists(), (
        "tests/golden/lint_map.json is missing; generate it with "
        "`pytest tests/test_dataflow.py --update-golden`"
    )
    assert json.loads(rendered) == json.loads(GOLDEN_LINT.read_text()), (
        "lint JSON schema or MAP diagnostics drifted from the golden "
        "snapshot (rerun with --update-golden if intentional)"
    )


class TestInferredTransfersMode:
    ENV = {"n": 1024}

    def test_bind_tightens_overmapped_region(self):
        declared_db = ProgramAttributeDatabase()
        inferred_db = ProgramAttributeDatabase(inferred_transfers=True)
        d = declared_db.compile_region(build_overmapped_input()).bind(self.ENV)
        region = build_overmapped_input()
        i = inferred_db.compile_region(region).bind(self.ENV)
        assert d.transfer_mode == "declared"
        assert i.transfer_mode == "inferred"
        assert d.bytes_to_device == 3 * 1024 * 4
        assert i.bytes_to_device == 2 * 1024 * 4
        assert d.bytes_to_host == i.bytes_to_host == 1024 * 4

    def test_default_mode_is_bit_identical_to_declared(self):
        db = ProgramAttributeDatabase()
        bound = db.compile_region(build_vecadd()).bind(self.ENV)
        assert bound.transfer_mode == "declared"
        assert (bound.bytes_to_device, bound.bytes_to_host) == \
            build_vecadd().transfer_bytes(self.ENV)

    def test_compile_always_records_dataflow(self):
        db = ProgramAttributeDatabase()
        attrs = db.compile_region(build_vecadd())
        assert attrs.dataflow is not None
        assert attrs.dataflow.direction_of("z") is Direction.OUT

    def test_launch_records_transfer_provenance(self):
        plat = platform_by_name("p9-v100")
        plain = OffloadingRuntime(plat)
        inferred = OffloadingRuntime(
            plat, db=ProgramAttributeDatabase(inferred_transfers=True)
        )
        for rt in (plain, inferred):
            rt.compile_region(build_vecadd())
        a = plain.launch("vecadd", self.ENV)
        b = inferred.launch("vecadd", self.ENV)
        assert a.transfers is None
        assert b.transfers == "inferred"
        # vecadd's map is clean, so everything else is bit-identical
        assert a == dataclasses.replace(b, transfers=None)


def _mirror_inferred_seconds(region, bound, platform, env) -> float:
    """The transfer experiment's own inferred-DMA formula, before it
    priced through :func:`simulate_dmas`: arrays in name order, per-DMA
    latency and staging efficiency, the slower direction."""
    dataflow = bound.attributes.dataflow
    bus = platform.bus
    rate = bus.bandwidth_gbs * 1e9 * STAGING_EFFICIENCY
    to_dev_s = 0.0
    to_host_s = 0.0
    for name in sorted(region.arrays):
        info = dataflow[name]
        copy_in = int(info.copy_in.evaluate(env))
        copy_out = int(info.copy_out.evaluate(env))
        if copy_in:
            to_dev_s += bus.latency_us * 1e-6 + copy_in / rate
        if copy_out:
            to_host_s += bus.latency_us * 1e-6 + copy_out / rate
    return max(to_dev_s, to_host_s)


class TestInferredDMAPricing:
    """Inferred copies priced by the simulator's one DMA formula equal
    the experiment's former mirror of it, bit for bit."""

    @pytest.mark.parametrize("platform", ["p9-v100", "p8-k80"])
    def test_scenarios_equal_the_mirror(self, platform):
        plat = platform_by_name(platform)
        result = run_transfers(plat, "test")
        for (label, build, env), outcome in zip(_SCENARIOS, result.scenarios, strict=True):
            region = build()
            bound = (
                ProgramAttributeDatabase(inferred_transfers=True)
                .compile_region(region)
                .bind(env)
            )
            assert outcome.scenario == label
            assert outcome.inferred_transfer_seconds == _mirror_inferred_seconds(
                region, bound, plat, env
            )

    def test_every_listed_dma_pays_its_latency(self):
        bus = platform_by_name("p9-v100").bus
        result = simulate_dmas([4096, 0], [4096], bus)
        assert result.num_transfers == 3
        assert (result.bytes_to_device, result.bytes_to_host) == (4096, 4096)
        # the zero-byte DMA adds exactly one setup latency
        assert result.seconds_to_device == result.seconds_to_host + bus.latency_us * 1e-6


class TestTransfersCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["transfers"])
        assert args.platform == "p9-v100"
        assert args.mode == "test"
        assert args.format == "text"

    def test_lint_fail_on_default_and_choices(self):
        assert build_parser().parse_args(["lint"]).fail_on == "error"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--fail-on", "info"])

    def test_lint_fail_on_warning_fails_on_perf_findings(self, capsys):
        # the suite is MAP-clean but carries PERF10x warnings
        assert main(["lint", "gemm"]) == 0
        capsys.readouterr()
        assert main(["lint", "gemm", "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_transfers_text_report(self, capsys):
        assert main(["transfers"]) == 0
        out = capsys.readouterr().out
        assert "Suite transfer parity" in out
        assert "dead-debug-buffer" in out and "FIXED" in out

    def test_transfers_json_payload(self, capsys, grid_pin):
        assert main(["transfers", "--format", "json"]) == 0
        out = capsys.readouterr().out
        grid_pin("transfers-test", out.removesuffix("\n"))
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["suite"]) == len(all_kernel_cases("test"))
        by_name = {s["scenario"]: s for s in payload["scenarios"]}
        assert by_name["dead-debug-buffer"]["fixed"] is True
        assert by_name["defensive-tofrom"]["map_codes"] == ["MAP002"]
