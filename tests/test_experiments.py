"""Integration tests of the experiment harness (paper-shape assertions).

These are the cheap counterparts of the benchmark targets: each experiment
runs once per session (module-scoped fixtures) and multiple assertions
inspect its structure and the paper-anchored shapes.
"""

import pytest

from repro.experiments import (
    measure_suite,
    predict_suite,
    run_ablations,
    run_figure3,
    run_figure45,
    run_figure6,
    run_figure7,
    run_figure8,
    run_table1,
    run_table2,
    run_table3,
)

P8 = "POWER8+K80"
P9 = "POWER9+V100"


@pytest.fixture(scope="module")
def table1():
    return run_table1()


@pytest.fixture(scope="module")
def figure8_results():
    return {mode: run_figure8(mode) for mode in ("test", "benchmark")}


class TestMeasureSuite:
    def test_covers_all_kernels(self):
        res = measure_suite(P9, "test")
        assert len(res) == 24
        assert all(m.cpu_seconds > 0 and m.gpu_seconds > 0 for m in res)

    def test_cached(self):
        a = measure_suite(P9, "test")
        b = measure_suite(P9, "test")
        assert a is b

    def test_predict_alignment(self):
        m = measure_suite(P9, "test")
        p = predict_suite(P9, "test")
        assert len(m) == len(p)
        for mm, pp in zip(m, p):
            assert mm.case.name == pp.cpu.region_name


class TestTable1Shapes:
    def test_3dconv_generational_flip(self, table1):
        row = {r.kernel: r for r in table1.rows}["3dconv"]
        assert row.get("benchmark", P8) < 1.0  # slowdown on K80 (paper 0.48x)
        assert row.get("benchmark", P9) > 1.0  # speedup on V100 (paper 4.41x)

    def test_corr_covar_host_clawback(self, table1):
        row = {r.kernel: r for r in table1.rows}["corr_corr"]
        # far better offloading candidate on the POWER8 platform
        assert row.get("benchmark", P8) > 3 * row.get("benchmark", P9)
        # and at test size the POWER9 host outright wins
        assert row.get("test", P9) < 1.0 < row.get("test", P8)

    def test_magnitude_shifts_without_flip(self, table1):
        row = {r.kernel: r for r in table1.rows}["atax_k2"]
        a, b = row.get("test", P8), row.get("test", P9)
        assert a > 1.0 and b > 1.0  # decision unchanged...
        assert b > 2 * a  # ...magnitude drastically different (paper 1.24->40)

    def test_render(self, table1):
        text = table1.render()
        assert "Table I" in text and "geomean" in text


class TestTables23:
    def test_table2_values(self):
        res = run_table2()
        params = dict(res.parameters())
        assert params["TLB Entries"] == 1024
        assert params["TLB Miss Penalty"] == "14 Cycles"
        assert "Table II" in res.render()

    def test_table3_values(self):
        res = run_table3()
        assert res.measured_l1 == 28.0
        assert res.measured_l2 == 193.0
        assert "Table III" in res.render()


class TestFigures:
    def test_figure3_components(self):
        res = run_figure3()
        assert len(res.rows) == 24
        assert "Figure 3" in res.render()

    def test_figure45_regimes(self):
        res = run_figure45()
        assert {"memory-bound", "compute-bound"} <= res.cases_seen()
        assert "MWP" in res.render()

    def test_figure6_quality(self):
        res = run_figure6()
        assert res.decision_accuracy >= 0.8
        assert res.rank_correlation_proxy > 0.8
        assert "Figure 6" in res.render()

    def test_figure7_quality(self):
        res = run_figure7()
        assert res.decision_accuracy >= 0.8
        assert res.rank_correlation_proxy > 0.8

    def test_figure8_headline(self, figure8_results):
        for mode, res in figure8_results.items():
            gms = res.geomeans()
            # the paper's headline: model-guided >= always-offload
            assert gms["model-guided"] >= gms["always-gpu"] * 0.999
            assert gms["model-guided"] <= gms["oracle"] + 1e-9

    def test_figure8_keeps_close_call_misses(self, figure8_results):
        # mispredictions on close calls survive, as the paper reports
        total_misses = sum(len(r.misses()) for r in figure8_results.values())
        assert total_misses >= 1
        for res in figure8_results.values():
            for miss in res.misses():
                # misses should be close calls or known coalescing blind
                # spots, never order-of-magnitude blunders on clear wins
                assert miss.true_speedup < 4.0

    def test_figure8_render(self, figure8_results):
        text = figure8_results["benchmark"].render()
        assert "Figure 8" in text and "mispredictions" in text


class TestAblations:
    @pytest.fixture(scope="class")
    def abl(self):
        return run_ablations("test")

    def test_all_variants_present(self, abl):
        names = {s.variant for s in abl.scores}
        assert "full" in names and "no-calibration" in names
        assert len(names) == 6

    def test_full_model_is_best_or_tied(self, abl):
        full = abl.score("full").geomean_speedup
        assert full >= abl.score("no-calibration").geomean_speedup - 1e-9

    def test_render(self, abl):
        assert "Ablations" in abl.render()


class TestSummaryAndCrossgen:
    def test_summary_scorecard_holds(self):
        from repro.experiments import run_summary

        result = run_summary()
        assert len(result.claims) >= 9
        assert not result.failures
        assert "scorecard" in result.render()

    def test_crossgen_monotone_geomeans(self):
        from repro.experiments import run_crossgen

        result = run_crossgen("benchmark")
        gms = result.geomeans()
        assert gms[0] < gms[1] < gms[2]
        assert result.monotone_kernels() >= 20
        assert "Cross-generation" in result.render()
