"""Unit tests for machine descriptors, registry and topology."""

import pytest

from repro.machines import (
    GENERIC_X86,
    NVLINK2,
    PCIE3_X16,
    PLATFORM_P8_K80,
    PLATFORM_P9_V100,
    POWER8,
    POWER9,
    TESLA_K80,
    TESLA_P100,
    TESLA_V100,
    AcceleratorSlot,
    CPUDescriptor,
    Platform,
    cpu_by_name,
    gpu_by_name,
    interconnect_by_name,
    list_platforms,
    platform_by_name,
)


class TestCPUDescriptor:
    def test_paper_host_configuration(self):
        # both experimental hosts: 20 cores x SMT8 at 3 GHz (Section III)
        for cpu in (POWER8, POWER9):
            assert cpu.hw_threads == 160
            assert cpu.frequency_ghz == 3.0

    def test_table2_constants(self):
        assert POWER9.tlb_entries == 1024
        assert POWER9.tlb_miss_penalty == 14
        assert POWER9.loop_overhead_per_iter == 4
        assert POWER9.par_schedule_static_cycles == 10154
        assert POWER9.sync_cycles == 4000
        assert POWER9.par_startup_cycles == 3000

    def test_power9_has_broader_vector_support(self):
        # the Section III CORR explanation: VSX-3 outer-loop vectorization
        assert POWER9.outer_loop_vectorization
        assert not POWER8.outer_loop_vectorization
        assert POWER9.ports["VSX"] > POWER8.ports["VSX"]

    def test_vector_lanes(self):
        assert POWER9.vector_lanes(4) == 4  # 128-bit / f32
        assert POWER9.vector_lanes(8) == 2
        assert GENERIC_X86.vector_lanes(4) == 8  # 256-bit AVX

    def test_latency_lookup(self):
        assert POWER9.latency("fma") == 5 or POWER9.latency("fma") == 6
        with pytest.raises(KeyError):
            POWER9.latency("quantum_op")

    def test_smt_throughput_monotone(self):
        vals = [POWER9.smt_throughput(t) for t in (1, 2, 4, 8)]
        assert vals == sorted(vals)
        assert vals[0] == 1.0
        with pytest.raises(ValueError):
            POWER9.smt_throughput(0)

    def test_team_overhead_scale(self):
        assert POWER9.team_overhead_scale(8) == 1.0
        assert POWER9.team_overhead_scale(1) == 1.0
        assert POWER9.team_overhead_scale(160) > 50
        with pytest.raises(ValueError):
            POWER9.team_overhead_scale(0)

    def test_cycles_to_seconds(self):
        assert POWER9.cycles_to_seconds(3e9) == pytest.approx(1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CPUDescriptor(
                name="bad",
                cores=0,
                smt=1,
                frequency_ghz=1.0,
                dispatch_width=2,
                ports={"FX": 1},
                latencies={},
                vector_width_bits=128,
                vector_pipes=1,
                has_fma=False,
                cacheline_bytes=64,
                l1_kib=32,
                l2_kib=256,
                l3_kib_per_core=1024,
                l1_latency=3,
                l2_latency=10,
                l3_latency=30,
                dram_latency=300,
                dram_bw_gbs=50,
                tlb_entries=64,
                tlb_miss_penalty=10,
                page_bytes=4096,
                par_startup_cycles=1,
                par_schedule_static_cycles=1,
                sync_cycles=1,
                loop_overhead_per_iter=1,
            )

    def test_descriptor_is_immutable(self):
        with pytest.raises(Exception):
            POWER9.cores = 2  # type: ignore[misc]


class TestGPUDescriptor:
    def test_table3_v100(self):
        g = TESLA_V100
        assert g.num_sms == 80
        assert g.total_cores == 5120
        assert g.mem_bandwidth_gbs == 900.0
        assert g.max_warps_per_sm == 64
        assert g.max_threads_per_sm == 2048
        assert g.l1_latency == 28
        assert g.l2_latency == 193

    def test_k80_paper_bandwidth(self):
        # Section III quotes the K80's 480 GB/s peak
        assert TESLA_K80.mem_bandwidth_gbs == 480.0

    def test_generational_ordering(self):
        # newer generations: more bandwidth, lower latency, faster launch
        gens = (TESLA_K80, TESLA_P100, TESLA_V100)
        bw = [g.mem_bandwidth_gbs for g in gens]
        assert bw == sorted(bw)
        assert TESLA_V100.fp_latency < TESLA_K80.fp_latency
        assert TESLA_V100.launch_overhead_us < TESLA_K80.launch_overhead_us


class TestInterconnect:
    def test_nvlink_faster_than_pcie(self):
        assert NVLINK2.bandwidth_gbs > 5 * PCIE3_X16.bandwidth_gbs
        assert NVLINK2.latency_us < PCIE3_X16.latency_us

    def test_transfer_seconds(self):
        one_gb = NVLINK2.transfer_seconds(10**9)
        assert one_gb == pytest.approx(1 / 68 + 6e-6, rel=0.01)

    def test_zero_bytes_free(self):
        assert PCIE3_X16.transfer_seconds(0) == 0.0

    def test_small_transfers_latency_bound(self):
        tiny = PCIE3_X16.transfer_seconds(8)
        assert tiny >= PCIE3_X16.latency_us * 1e-6

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NVLINK2.transfer_seconds(-1)


class TestRegistry:
    def test_lookups(self):
        assert cpu_by_name("POWER9") is POWER9
        assert gpu_by_name("V100") is TESLA_V100
        assert interconnect_by_name("nvlink2") is NVLINK2
        assert platform_by_name("p9-v100") is PLATFORM_P9_V100
        assert platform_by_name("P8-K80") is PLATFORM_P8_K80

    def test_unknown_names(self):
        for fn in (cpu_by_name, gpu_by_name, interconnect_by_name, platform_by_name):
            with pytest.raises(KeyError):
                fn("does-not-exist")

    def test_list_platforms(self):
        assert list_platforms() == ["p8-k80", "p9-v100"]


class TestTopology:
    def test_platform_accessors(self):
        assert PLATFORM_P9_V100.gpu is TESLA_V100
        assert PLATFORM_P9_V100.bus is NVLINK2
        assert PLATFORM_P8_K80.host is POWER8

    def test_platform_without_accelerator(self):
        bare = Platform("host-only", POWER9)
        with pytest.raises(ValueError):
            bare.gpu
        with pytest.raises(ValueError):
            bare.bus

    def test_render_figure1(self):
        text = PLATFORM_P9_V100.render()
        assert "host" in text
        assert "accelerator" in text
        assert "NVLink 2.0" in text
        assert "Tesla V100" in text

    def test_multi_accelerator(self):
        plat = Platform(
            "dual",
            POWER9,
            (
                AcceleratorSlot(TESLA_V100, NVLINK2),
                AcceleratorSlot(TESLA_K80, PCIE3_X16),
            ),
        )
        assert plat.gpu is TESLA_V100  # primary slot
        assert plat.render().count("accelerator") == 2
