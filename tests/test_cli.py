"""Tests for the command-line interface."""

import json

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.experiments.common import clear_caches, measure_suite, predict_suite
from repro.parallel import AnalysisCache


class TestParser:
    def test_artefact_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.artefact == "table1"

    def test_select_defaults(self):
        args = build_parser().parse_args(["select", "gemm"])
        assert args.benchmark == "gemm"
        assert args.platform == "p9-v100"
        assert args.mode == "benchmark"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["select", "gemm", "--mode", "huge"])

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.benchmarks == []
        assert args.platform == "p9-v100"
        assert args.mode == "test"
        assert args.format == "text"

    def test_lint_accepts_benchmarks_and_json(self):
        args = build_parser().parse_args(["lint", "syrk", "gemm", "--format", "json"])
        assert args.benchmarks == ["syrk", "gemm"]
        assert args.format == "json"

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "xml"])


class TestCommands:
    def test_probe_tlb(self, capsys):
        assert main(["probe", "tlb"]) == 0
        out = capsys.readouterr().out
        assert "1024 TLB entries" in out

    def test_probe_gpu(self, capsys):
        assert main(["probe", "gpu"]) == 0
        assert "L2 193" in capsys.readouterr().out

    def test_probe_epcc(self, capsys):
        assert main(["probe", "epcc"]) == 0
        assert "x160" in capsys.readouterr().out.replace(" ", "")

    def test_table2_artefact(self, capsys):
        assert main(["table2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_figure45_artefact(self, capsys):
        assert main(["figure45"]) == 0
        assert "MWP" in capsys.readouterr().out

    def test_select_runs(self, capsys):
        assert main(["select", "atax", "--mode", "test", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "atax_k1" in out and "atax_k2" in out

    def test_select_json_format(self, capsys):
        assert main(["select", "atax", "--mode", "test", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row[0] for row in payload["rows"]] == ["atax_k1", "atax_k2"]

    def test_lint_one_benchmark_clean(self, capsys):
        assert main(["lint", "syrk"]) == 0
        out = capsys.readouterr().out
        assert "syrk" in out
        assert "0 error(s)" in out

    def test_lint_whole_suite_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "24 region(s): 0 error(s)" in out

    def test_lint_json_format(self, capsys):
        assert main(["lint", "gemm", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["region"] == "gemm"
        assert payload[0]["errors"] == 0


class TestCacheCommand:
    """``repro-paper cache`` reports what a store holds."""

    @pytest.fixture
    def store(self, tmp_path):
        """A store one test-dataset sweep populated: 24 cases, two kinds."""
        clear_caches()
        with AnalysisCache(str(tmp_path)).activate():
            measure_suite("p9-v100", "test")
            predict_suite("p9-v100", "test")
        clear_caches(persistent=False)
        yield str(tmp_path)
        clear_caches(persistent=False)

    def test_stats_json_reports_the_store(self, store, capsys):
        assert main(["cache", "stats", "--cache-dir", store, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"cache_dir": store, "entries": 48, "version": __version__}

    def test_stats_text_and_clear(self, store, capsys):
        assert main(["cache", "stats", "--cache-dir", store]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"cache_dir  {store}",
            "entries    48",
            f"version    {__version__}",
        ]
        assert main(["cache", "clear", "--cache-dir", store]) == 0
        assert capsys.readouterr().out == f"cleared 48 entries from {store}\n"
        assert AnalysisCache(store).entry_count() == 0


class TestDriftCommand:
    def test_drift_defaults(self):
        args = build_parser().parse_args(["drift"])
        assert args.platform == "p9-v100"
        assert args.launches == 96
        assert args.start == 24
        assert args.format == "text"

    def test_drift_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["drift", "--format", "xml"])

    def test_drift_runs_and_reports_json(self, capsys, grid_pin):
        assert main(["drift", "--launches", "60", "--start", "18",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        grid_pin("drift-60-18", out.removesuffix("\n"))
        payload = json.loads(out)
        assert payload["passed"] is True
        names = [s["scenario"] for s in payload["scenarios"]]
        assert names == [
            "zero-skew",
            "gpu-optimist",
            "cpu-optimist",
            "gpu-pessimist",
            "transient",
        ]
        control = payload["scenarios"][0]
        assert control["bit_identical"] is True


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.benchmarks == []
        assert args.platform == "p9-v100"
        assert args.mode == "test"
        assert args.output is None
        assert args.format == "text"

    def test_trace_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--format", "xml"])

    def test_trace_text_summary(self, capsys):
        assert main(["trace", "gemm"]) == 0
        out = capsys.readouterr().out
        assert "instrumented sweep: 1 launches" in out
        assert "compile" in out and "dispatch" in out

    def test_trace_json_is_chrome_trace_format(self, capsys):
        assert main(["trace", "gemm", "atax", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        events = payload["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"compile", "analyse", "launch", "predict", "dispatch"} <= names
        assert payload["otherData"]["metrics"]["counters"]

    def test_trace_writes_output_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "gemm", "--format", "json", "-o", str(out)]) == 0
        assert "wrote json trace" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]


class TestReplayCommand:
    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.platform == "p9-v100"
        assert args.launches == 20_000
        assert args.seed == 0
        assert args.capacity == 32
        assert args.utilization == 0.6
        assert args.overload_utilization == 3.0
        assert args.tiny is False
        assert args.scenarios is None
        assert args.output is None
        assert args.format == "text"

    def test_replay_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--format", "xml"])

    def test_replay_runs_and_reports_json(self, capsys, tmp_path):
        out = tmp_path / "replay.json"
        assert main([
            "replay", "--launches", "600", "--format", "json", "-o", str(out),
            "--scenarios", "steady,fault-storm,overload-defer",
        ]) == 0
        assert "wrote replay json report" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["launches"] == 600
        scenarios = [row["scenario"] for row in payload["rows"]]
        assert scenarios == ["steady", "fault-storm", "overload-defer"]

    def test_replay_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            main(["replay", "--launches", "200", "--scenarios", "steady,nope"])


class TestAllPin:
    def test_all_stdout_pinned(self, capsys, grid_pin):
        """Every paper artefact's text, Figure 3, the ablations and crossgen
        included, byte for byte (384 lines)."""
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 384
        grid_pin("all-stdout", out)


class TestHedgeCommand:
    def test_hedge_tiny_reports_pinned_json(self, capsys, grid_pin):
        assert main(["hedge", "--tiny", "--format", "json"]) == 0
        out = capsys.readouterr().out
        grid_pin("hedge-tiny", out.removesuffix("\n"))
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["launches"] == 2_000
        cells = [(c["flavour"], c["budget"]) for c in payload["cells"]]
        assert cells == [
            (flavour, budget)
            for flavour in ("fault-storm", "brownout")
            for budget in ("none", "tight", "loose")
        ]


class TestSelfCheckExitCodes:
    """Every subcommand with a self-check must exit non-zero on failure
    and name each failed check on stderr."""

    class _Fake:
        passed = False
        failures = ("fake: check failed",)

        def render(self):
            return "fake report"

        def chrome_json(self):
            return "{}"

        def to_payload(self):
            return {"passed": False}

    def test_faults_artefact_fails_loud(self, monkeypatch, capsys):
        import repro.experiments as ex

        monkeypatch.setattr(ex, "run_faults", lambda: self._Fake())
        assert main(["faults"]) == 1
        err = capsys.readouterr().err
        assert "self-check FAILED: faults" in err
        assert "fake: check failed" in err

    def test_trace_fails_loud(self, monkeypatch, capsys):
        import repro.experiments as ex

        monkeypatch.setattr(ex, "run_trace", lambda **kw: self._Fake())
        assert main(["trace", "gemm"]) == 1
        assert "fake: check failed" in capsys.readouterr().err

    def test_replay_fails_loud(self, monkeypatch, capsys):
        import repro.experiments as ex

        monkeypatch.setattr(ex, "run_replay", lambda **kw: self._Fake())
        assert main(["replay", "--tiny"]) == 1
        assert "fake: check failed" in capsys.readouterr().err

    def test_drift_fails_loud(self, monkeypatch, capsys):
        import repro.experiments as ex

        monkeypatch.setattr(ex, "run_drift", lambda **kw: self._Fake())
        assert main(["drift"]) == 1
        assert "fake: check failed" in capsys.readouterr().err

    def test_service_fails_loud(self, monkeypatch, capsys):
        import repro.experiments as ex

        monkeypatch.setattr(ex, "run_service", lambda **kw: self._Fake())
        assert main(["service", "--tiny"]) == 1
        assert "fake: check failed" in capsys.readouterr().err

    def test_hedge_fails_loud(self, monkeypatch, capsys):
        import repro.experiments as ex

        monkeypatch.setattr(ex, "run_hedge", lambda **kw: self._Fake())
        assert main(["hedge", "--tiny", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"passed": False}
        assert "fake: check failed" in captured.err
