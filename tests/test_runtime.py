"""Unit tests for the offloading runtime, devices and policies."""

import pytest

from repro.analysis import ProgramAttributeDatabase
from repro.machines import PLATFORM_P8_K80, PLATFORM_P9_V100
from repro.runtime import (
    AcceleratorDevice,
    AlwaysCPU,
    AlwaysGPU,
    HostDevice,
    ModelGuided,
    OffloadingRuntime,
    Oracle,
    policy_by_name,
)

from .kernels import build_gemm, build_vecadd

ENV = {"ni": 512, "nj": 512, "nk": 512}


class TestDevices:
    def test_host_device(self):
        dev = HostDevice(PLATFORM_P9_V100.host, num_threads=4)
        attrs = ProgramAttributeDatabase().compile_region(build_gemm())
        rec = dev.execute(attrs, ENV)
        assert rec.kind == "cpu"
        assert rec.seconds > 0
        assert "x4" in dev.name

    def test_accelerator_device(self):
        dev = AcceleratorDevice(PLATFORM_P9_V100.gpu, PLATFORM_P9_V100.bus)
        attrs = ProgramAttributeDatabase().compile_region(build_gemm())
        rec = dev.execute(attrs, ENV)
        assert rec.kind == "gpu"
        kernel, xfer = rec.detail
        assert rec.seconds == pytest.approx(kernel.seconds + xfer.total_seconds)


class TestPolicies:
    def test_policy_registry(self):
        assert isinstance(policy_by_name("always-gpu"), AlwaysGPU)
        assert isinstance(policy_by_name("ALWAYS-CPU"), AlwaysCPU)
        assert isinstance(policy_by_name("model-guided"), ModelGuided)
        assert isinstance(policy_by_name("oracle"), Oracle)
        with pytest.raises(ValueError, match="always-cpu.*model-guided.*oracle"):
            policy_by_name("random")

    def test_fixed_policies(self):
        gpu_pol = AlwaysGPU()
        cpu_pol = AlwaysCPU()
        assert gpu_pol.choose(None, None, num_threads=None,
                              sim_cpu_seconds=1, sim_gpu_seconds=2)[0] == "gpu"
        assert cpu_pol.choose(None, None, num_threads=None,
                              sim_cpu_seconds=1, sim_gpu_seconds=2)[0] == "cpu"

    def test_oracle_picks_faster(self):
        pol = Oracle()
        assert pol.choose(None, None, num_threads=None,
                          sim_cpu_seconds=2.0, sim_gpu_seconds=1.0)[0] == "gpu"
        assert pol.choose(None, None, num_threads=None,
                          sim_cpu_seconds=1.0, sim_gpu_seconds=2.0)[0] == "cpu"

    def test_model_guided_caches_calibration(self):
        rt = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        rt.compile_region(build_gemm())
        rt.launch("gemm", ENV)
        rt.launch("gemm", {"ni": 256, "nj": 256, "nk": 256})
        assert len(rt.policy._calibrations) == 1


class TestRuntime:
    def test_launch_record_fields(self):
        rt = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        rt.compile_region(build_gemm())
        rec = rt.launch("gemm", ENV)
        assert rec.region_name == "gemm"
        assert rec.target in ("cpu", "gpu")
        assert rec.policy_name == "model-guided"
        assert rec.prediction is not None
        assert rec.executed_seconds in (rec.cpu_seconds, rec.gpu_seconds)
        assert rec.oracle_seconds == min(rec.cpu_seconds, rec.gpu_seconds)
        assert rec.true_speedup == pytest.approx(
            rec.cpu_seconds / rec.gpu_seconds
        )

    def test_launch_unknown_region(self):
        rt = OffloadingRuntime(PLATFORM_P9_V100)
        with pytest.raises(KeyError):
            rt.launch("never-compiled", {})

    def test_oracle_runtime_always_correct(self):
        rt = OffloadingRuntime(PLATFORM_P8_K80, policy=Oracle())
        rt.compile_region(build_gemm())
        rt.compile_region(build_vecadd())
        for name, env in (("gemm", ENV), ("vecadd", {"n": 1 << 20})):
            rec = rt.launch(name, env)
            assert rec.decision_correct
            assert rec.executed_seconds == rec.oracle_seconds

    def test_always_policies_have_no_prediction(self):
        rt = OffloadingRuntime(PLATFORM_P9_V100, policy=AlwaysGPU())
        rt.compile_region(build_vecadd())
        rec = rt.launch("vecadd", {"n": 4096})
        assert rec.prediction is None
        assert rec.target == "gpu"
        assert rec.predicted_speedup is None

    def test_num_threads_respected(self):
        rt4 = OffloadingRuntime(PLATFORM_P9_V100, policy=AlwaysCPU(), num_threads=4)
        rt160 = OffloadingRuntime(PLATFORM_P9_V100, policy=AlwaysCPU())
        for rt in (rt4, rt160):
            rt.compile_region(build_gemm())
        big = {"ni": 2048, "nj": 2048, "nk": 2048}
        assert rt4.launch("gemm", big).cpu_seconds > rt160.launch("gemm", big).cpu_seconds

    def test_same_launch_is_deterministic(self):
        rt = OffloadingRuntime(PLATFORM_P9_V100, policy=ModelGuided())
        rt.compile_region(build_gemm())
        a = rt.launch("gemm", ENV)
        b = rt.launch("gemm", ENV)
        assert a.cpu_seconds == b.cpu_seconds
        assert a.gpu_seconds == b.gpu_seconds
        assert a.target == b.target
