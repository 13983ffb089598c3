"""Unit tests for the Hong & Kim GPU model with the paper's extensions."""

import dataclasses

import pytest

from repro.analysis import ProgramAttributeDatabase
from repro.codegen import plan_gpu_launch
from repro.ipda import analyze_region
from repro.machines import NVLINK2, PCIE3_X16, TESLA_K80, TESLA_V100
from repro.models import (
    MWPCWPInputs,
    estimate_transfer,
    mwp_cwp,
    predict_gpu_time,
)

from .kernels import build_gemm, build_rowwise, build_vecadd


def _inputs(**kw):
    base = dict(
        n_active_warps=32.0,
        mem_latency=400.0,
        departure_delay=4.0,
        mem_cycles=400.0 * 100,
        comp_cycles=800.0,
        mem_insts=100.0,
        load_bytes_per_warp=128.0,
        active_sms=80,
    )
    base.update(kw)
    return MWPCWPInputs(**base)


class TestMWPCWP:
    def test_memory_bound_regime(self):
        res = mwp_cwp(_inputs(), TESLA_V100)
        assert res.case == "memory-bound"
        assert res.cwp >= res.mwp

    def test_compute_bound_regime(self):
        res = mwp_cwp(
            _inputs(comp_cycles=1e6, mem_cycles=400.0, mem_insts=1.0),
            TESLA_V100,
        )
        assert res.case == "compute-bound"
        # compute-bound wave: Mem_L + Comp x N
        assert res.exec_cycles_one_wave == pytest.approx(400.0 + 1e6 * 32, rel=0.01)

    def test_balanced_regime_when_n_small(self):
        res = mwp_cwp(_inputs(n_active_warps=2.0), TESLA_V100)
        assert res.case == "balanced"

    def test_mwp_capped_by_n(self):
        res = mwp_cwp(_inputs(n_active_warps=4.0), TESLA_V100)
        assert res.mwp <= 4.0

    def test_mwp_without_bw_is_latency_over_departure(self):
        res = mwp_cwp(_inputs(), TESLA_V100)
        assert res.mwp_without_bw == pytest.approx(100.0)

    def test_bandwidth_limits_mwp(self):
        # giant per-warp streams on every SM exhaust peak bandwidth; MWP is
        # clamped to the bandwidth bound (floored at one warp)
        res = mwp_cwp(_inputs(load_bytes_per_warp=4096.0), TESLA_V100)
        assert res.mwp_peak_bw < res.mwp_without_bw
        assert res.mwp == pytest.approx(max(1.0, res.mwp_peak_bw))

    def test_exec_cycles_positive(self):
        for n in (1, 2, 8, 64):
            res = mwp_cwp(_inputs(n_active_warps=float(n)), TESLA_V100)
            assert res.exec_cycles_one_wave > 0


class TestPredictGPUTime:
    def _predict(self, region, env, gpu=TESLA_V100, bus=NVLINK2, plan=None):
        db = ProgramAttributeDatabase()
        bound = db.compile_region(region).bind(env)
        plan = plan or plan_gpu_launch(bound.parallel_iterations, gpu)
        return predict_gpu_time(
            region.name,
            bound.loadout,
            bound.ipda,
            plan,
            gpu,
            bus,
            bound.bytes_to_device,
            bound.bytes_to_host,
        )

    def test_vecadd_fully_coalesced(self):
        pred = self._predict(build_vecadd(), {"n": 1 << 20})
        assert pred.uncoalesced_insts == 0
        assert pred.coalesced_insts == 3

    def test_rowwise_counts_uncoalesced(self):
        pred = self._predict(build_rowwise(), {"n": 4096})
        assert pred.uncoalesced_insts > 0  # the stride-n matrix walk

    def test_omp_rep_multiplies_cycles(self):
        region = build_vecadd()
        env = {"n": 1 << 22}
        db = ProgramAttributeDatabase()
        bound = db.compile_region(region).bind(env)
        plan = plan_gpu_launch(bound.parallel_iterations, TESLA_V100)
        base = predict_gpu_time(
            region.name, bound.loadout, bound.ipda, plan, TESLA_V100, NVLINK2,
            bound.bytes_to_device, bound.bytes_to_host,
        )
        doubled = predict_gpu_time(
            region.name, bound.loadout, bound.ipda,
            dataclasses.replace(plan, omp_rep=plan.omp_rep * 2),
            TESLA_V100, NVLINK2, bound.bytes_to_device, bound.bytes_to_host,
        )
        assert doubled.exec_cycles == pytest.approx(2 * base.exec_cycles)

    def test_transfer_included_in_total(self):
        pred = self._predict(build_gemm(), {"ni": 1024, "nj": 1024, "nk": 1024})
        assert pred.seconds == pytest.approx(
            pred.kernel_seconds + pred.launch_seconds + pred.transfer.total_seconds
        )

    def test_pcie_slower_than_nvlink(self):
        env = {"ni": 2048, "nj": 2048, "nk": 2048}
        nv = self._predict(build_gemm(), env, bus=NVLINK2)
        pc = self._predict(build_gemm(), env, bus=PCIE3_X16)
        assert pc.transfer.total_seconds > 4 * nv.transfer.total_seconds
        assert pc.kernel_seconds == nv.kernel_seconds  # bus only affects transfer

    def test_k80_slower_kernel_than_v100(self):
        env = {"n": 1 << 22}
        k80 = self._predict(build_vecadd(), env, gpu=TESLA_K80, bus=PCIE3_X16)
        v100 = self._predict(build_vecadd(), env, gpu=TESLA_V100, bus=NVLINK2)
        assert k80.kernel_seconds > v100.kernel_seconds

    def test_mismatched_ipda_rejected(self):
        region = build_gemm()
        env = {"ni": 64, "nj": 64, "nk": 64}
        db = ProgramAttributeDatabase()
        bound = db.compile_region(region).bind(env)
        other = analyze_region(build_vecadd()).bind({"n": 64})
        plan = plan_gpu_launch(64, TESLA_V100)
        with pytest.raises(ValueError):
            predict_gpu_time(
                "gemm", bound.loadout, other, plan, TESLA_V100, NVLINK2, 0, 0
            )


class TestTransferModel:
    def test_estimate_adds_directions(self):
        est = estimate_transfer(10**8, 10**7, NVLINK2)
        assert est.total_seconds == pytest.approx(
            est.seconds_to_device + est.seconds_to_host
        )

    def test_zero_transfer(self):
        est = estimate_transfer(0, 0, NVLINK2)
        assert est.total_seconds == 0.0
