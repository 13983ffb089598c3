"""Unit + property tests for the dual execution plans."""

import pytest
from hypothesis import given, strategies as st

from repro.codegen import (
    DEFAULT_THREADS_PER_BLOCK,
    OMPSchedule,
    plan_cpu_execution,
    plan_gpu_launch,
)
from repro.machines import POWER9, TESLA_K80, TESLA_V100


class TestGPULaunchPlan:
    def test_paper_omp_rep_example(self):
        """Section IV.B: 1024 iterations, 1 block of 128 → 8 reps each."""
        # build a device that can only host one 128-thread block
        import dataclasses

        tiny = dataclasses.replace(
            TESLA_V100, num_sms=1, max_blocks_per_sm=1, max_threads_per_sm=128
        )
        plan = plan_gpu_launch(1024, tiny)
        assert plan.num_blocks == 1
        assert plan.omp_rep == 8

    def test_small_launch_uncapped(self):
        plan = plan_gpu_launch(1100, TESLA_V100)
        assert plan.threads_per_block == DEFAULT_THREADS_PER_BLOCK
        assert plan.num_blocks == -(-1100 // 128)
        assert plan.omp_rep == 1
        assert plan.rep == 1

    def test_huge_launch_capped_with_reps(self):
        iters = 9600 * 9600
        plan = plan_gpu_launch(iters, TESLA_V100)
        cap = TESLA_V100.num_sms * min(
            TESLA_V100.max_blocks_per_sm,
            TESLA_V100.max_threads_per_sm // 128,
        )
        assert plan.num_blocks == cap
        assert plan.omp_rep == -(-iters // (cap * 128))
        assert plan.total_threads == cap * 128

    def test_active_sms_bounded(self):
        plan = plan_gpu_launch(130, TESLA_V100)  # 2 blocks
        assert plan.active_sms == 2
        big = plan_gpu_launch(10**7, TESLA_V100)
        assert big.active_sms == TESLA_V100.num_sms

    def test_warps_within_limits(self):
        plan = plan_gpu_launch(10**7, TESLA_V100)
        assert plan.active_warps_per_sm <= TESLA_V100.max_warps_per_sm
        assert plan.warps_per_block == 4

    def test_invalid_inputs(self):
        import dataclasses

        with pytest.raises(ValueError):
            plan_gpu_launch(0, TESLA_V100)
        small_blocks = dataclasses.replace(TESLA_V100, max_threads_per_block=64)
        with pytest.raises(ValueError, match="caps blocks at 64 threads"):
            plan_gpu_launch(100, small_blocks)

    def test_describe(self):
        text = plan_gpu_launch(1024, TESLA_V100).describe()
        assert "<<<" in text and "OMP_Rep" in text

    @given(iters=st.integers(1, 10**9))
    def test_coverage_invariant(self, iters):
        """Threads x OMP_Rep always covers the iteration space exactly."""
        plan = plan_gpu_launch(iters, TESLA_K80)
        assert plan.total_threads * plan.omp_rep >= iters
        # not over-provisioned by more than one rep
        assert plan.total_threads * (plan.omp_rep - 1) < iters

    @given(iters=st.integers(1, 10**8))
    def test_geometry_limits(self, iters):
        plan = plan_gpu_launch(iters, TESLA_V100)
        assert 1 <= plan.active_sms <= TESLA_V100.num_sms
        assert 1 <= plan.active_warps_per_sm <= TESLA_V100.max_warps_per_sm
        assert plan.rep >= 1
        assert (
            plan.resident_blocks_per_sm * DEFAULT_THREADS_PER_BLOCK
            <= TESLA_V100.max_threads_per_sm
            or plan.resident_blocks_per_sm == 1
        )


class TestCPUPlan:
    def test_default_uses_all_threads(self):
        plan = plan_cpu_execution(9600, POWER9)
        assert plan.num_threads == 160
        assert plan.schedule is OMPSchedule.STATIC
        assert plan.iterations_per_thread == 60

    def test_explicit_team(self):
        plan = plan_cpu_execution(1100, POWER9, num_threads=4)
        assert plan.num_threads == 4
        assert plan.iterations_per_thread == 275

    def test_team_clamped_to_hardware(self):
        plan = plan_cpu_execution(100, POWER9, num_threads=1000)
        assert plan.num_threads == 160

    def test_threads_per_core(self):
        assert plan_cpu_execution(10**6, POWER9).threads_per_core == 8
        assert plan_cpu_execution(10**6, POWER9, num_threads=20).threads_per_core == 1
        assert plan_cpu_execution(10**6, POWER9, num_threads=40).threads_per_core == 2

    def test_fewer_iterations_than_threads(self):
        plan = plan_cpu_execution(10, POWER9)
        assert plan.iterations_per_thread == 1

    def test_dynamic_schedule(self):
        plan = plan_cpu_execution(
            1000, POWER9, schedule=OMPSchedule.DYNAMIC, chunk_size=10
        )
        assert plan.chunk_size == 10
        assert plan.schedule_times >= 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_cpu_execution(0, POWER9)
        with pytest.raises(ValueError):
            plan_cpu_execution(10, POWER9, num_threads=0)

    def test_describe(self):
        text = plan_cpu_execution(1000, POWER9, num_threads=4).describe()
        assert "num_threads(4)" in text
        assert "static" in text

    @given(iters=st.integers(1, 10**7), threads=st.integers(1, 200))
    def test_chunk_covers_iterations(self, iters, threads):
        plan = plan_cpu_execution(iters, POWER9, num_threads=threads)
        assert plan.iterations_per_thread * plan.num_threads >= iters
