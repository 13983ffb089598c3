"""Tests for the extension features: multi-accelerator + split execution."""

import math

import pytest

from repro.analysis import ProgramAttributeDatabase
from repro.calibrate import fit_model_calibration
from repro.machines import (
    AcceleratorSlot,
    NVLINK2,
    PCIE3_X16,
    PLATFORM_P9_V100,
    POWER9,
    Platform,
    TESLA_K80,
    TESLA_V100,
)
from repro.models import predict_split
from repro.runtime import AlwaysGPU, OffloadingRuntime

from .kernels import build_gemm, build_vecadd


def build_gemm_c2():
    """The Polybench collapse(2) GEMM — the GPU-friendly variant."""
    from repro.polybench import benchmark_by_name

    (region,) = benchmark_by_name("gemm").build()
    return region

DUAL = Platform(
    "P9+V100+K80",
    POWER9,
    (
        AcceleratorSlot(TESLA_V100, NVLINK2),
        AcceleratorSlot(TESLA_K80, PCIE3_X16),
    ),
)


class TestMultiDeviceRuntime:
    def test_requires_an_accelerator(self):
        with pytest.raises(ValueError):
            OffloadingRuntime(Platform("bare", POWER9))

    def test_three_candidates(self):
        rt = OffloadingRuntime(DUAL)
        rt.compile_region(build_gemm())
        rec = rt.launch("gemm", {"ni": 1024, "nj": 1024, "nk": 1024})
        assert len(rec.candidates) == 3  # host + two accelerators
        kinds = [o.kind for o in rec.candidates]
        assert kinds.count("cpu") == 1 and kinds.count("gpu") == 2

    def test_chooses_minimum_prediction(self):
        rt = OffloadingRuntime(DUAL)
        rt.compile_region(build_gemm())
        rec = rt.launch("gemm", {"ni": 2048, "nj": 2048, "nk": 2048})
        best_pred = min(rec.candidates, key=lambda o: o.predicted_seconds)
        assert rec.requested_target == best_pred.device_name

    def test_picks_the_better_gpu_for_big_matmul(self):
        rt = OffloadingRuntime(DUAL)
        rt.compile_region(build_gemm_c2())
        rec = rt.launch("gemm", {"ni": 4096, "nj": 4096, "nk": 4096})
        # the V100 over NVLink dominates the K80 over PCIe for GEMM
        assert "V100" in rec.requested_target
        assert rec.decision_correct

    def test_oracle_and_executed(self):
        rt = OffloadingRuntime(DUAL)
        rt.compile_region(build_vecadd())
        rec = rt.launch("vecadd", {"n": 1 << 22})
        measured = {o.device_name: o.measured_seconds for o in rec.candidates}
        assert rec.oracle_target == min(measured, key=measured.get)
        assert rec.executed_seconds == measured[rec.requested_target]

    def test_degraded_launch_scores_every_measured_device(self):
        rt = OffloadingRuntime(DUAL)
        rt.compile_region(build_gemm_c2())
        rec = rt.launch("gemm", {"ni": 4096, "nj": 4096, "nk": 4096}, force_target="cpu")
        assert [o.device_name for o in rec.candidates] == [
            dev.name for dev in rt._devices
        ]
        assert all(math.isnan(o.predicted_seconds) for o in rec.candidates)
        # the V100 measured fastest, so running on the host was not correct
        assert "V100" in rec.oracle_target
        assert rec.device == rt._host.name and not rec.decision_correct

    def test_policy_without_prediction_cannot_rank_accelerators(self):
        rt = OffloadingRuntime(DUAL, policy=AlwaysGPU())
        rt.compile_region(build_vecadd())
        with pytest.raises(ValueError, match="always-gpu"):
            rt.launch("vecadd", {"n": 1 << 22})


class TestSplitExecution:
    def _bound(self, region, env):
        db = ProgramAttributeDatabase()
        return db.compile_region(region).bind(env)

    def test_endpoints_match_pure_predictions(self):
        bound = self._bound(build_gemm(), {"ni": 2048, "nj": 2048, "nk": 2048})
        split = predict_split(bound, PLATFORM_P9_V100)
        assert split.curve[0][0] == 0.0 and split.curve[-1][0] == 1.0
        assert split.cpu_only_seconds == split.curve[0][1]
        assert split.gpu_only_seconds == split.curve[-1][1]

    def test_makespan_never_worse_than_best_single(self):
        bound = self._bound(build_gemm(), {"ni": 2048, "nj": 2048, "nk": 2048})
        split = predict_split(bound, PLATFORM_P9_V100)
        assert split.makespan_seconds <= min(
            split.cpu_only_seconds, split.gpu_only_seconds
        ) + 1e-12
        assert 0.0 <= split.gpu_fraction <= 1.0

    def test_split_helps_when_devices_comparable(self):
        # collapse(2) GEMM: both devices contribute -> cooperative win
        bound = self._bound(
            build_gemm_c2(), {"ni": 4096, "nj": 4096, "nk": 4096}
        )
        cal = fit_model_calibration(PLATFORM_P9_V100)
        split = predict_split(bound, PLATFORM_P9_V100, calibration=cal)
        assert 0.0 < split.gpu_fraction < 1.0
        assert split.speedup_over_best_single > 1.0

    def test_transfer_dominated_kernel_avoids_split_overhead(self):
        # vecadd at benchmark size: the GPU side is all transfer; the
        # optimum should sit at (or extremely near) one endpoint
        bound = self._bound(build_vecadd(), {"n": 1 << 24})
        cal = fit_model_calibration(PLATFORM_P9_V100)
        split = predict_split(bound, PLATFORM_P9_V100, calibration=cal)
        assert split.speedup_over_best_single < 2.0

    def test_sample_validation(self):
        bound = self._bound(build_vecadd(), {"n": 4096})
        with pytest.raises(ValueError):
            predict_split(bound, PLATFORM_P9_V100, samples=2)

    def test_curve_is_well_formed(self):
        bound = self._bound(build_vecadd(), {"n": 1 << 20})
        split = predict_split(bound, PLATFORM_P9_V100, samples=16)
        assert len(split.curve) == 16
        fractions = [f for f, _ in split.curve]
        assert fractions == sorted(fractions)
        assert all(t >= 0 for _, t in split.curve)
