"""Unit + property tests for the reuse-distance locality engine."""

import pytest
from hypothesis import given, strategies as st

from repro.ipda import group_accesses
from repro.sim.locality import (
    AccessSpec,
    CacheLevel,
    LoopExtent,
    MemoryHierarchy,
    analyze_access,
)

MEM = MemoryHierarchy(
    levels=(
        CacheLevel("L1", 32 * 1024, 4),
        CacheLevel("L2", 512 * 1024, 12),
        CacheLevel("L3", 8 * 1024 * 1024, 30),
    ),
    dram_latency_cycles=300,
    line_bytes=128,
)


def spec(loops, *, elem=4, count=None, array=10**9, store=False):
    loops = tuple(LoopExtent(s, t) for s, t in loops)
    if count is None:
        count = 1.0
        for lp in loops:
            count *= lp.trips
    return AccessSpec(
        elem_bytes=elem,
        loops=loops,
        dynamic_count=count,
        array_bytes=array,
        is_store=store,
    )


class TestHierarchy:
    def test_level_holding(self):
        assert MEM.level_holding(1024).name == "L1"
        assert MEM.level_holding(10**6).name == "L3"
        assert MEM.level_holding(10**9) is None

    def test_latency_for_footprint(self):
        assert MEM.latency_for_footprint(1024) == 4
        assert MEM.latency_for_footprint(10**9) == 300

    def test_levels_must_be_ordered(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(
                levels=(CacheLevel("big", 100, 1), CacheLevel("small", 10, 2)),
                dram_latency_cycles=100,
                line_bytes=64,
            )

    def test_needs_a_level(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(levels=(), dram_latency_cycles=100, line_bytes=64)


class TestAnalyzeAccess:
    def test_loop_invariant_is_l1(self):
        loc = analyze_access(spec([(0, 1000)], array=4096), MEM)
        assert loc.avg_latency_cycles < 5
        assert loc.cold_fraction < 0.01

    def test_unit_stride_stream_spatial(self):
        # big array, single stride-1 sweep beyond every cache: 1/32 of f32
        # accesses miss to DRAM
        n = 10**7  # 40 MB sweep > 8 MB L3
        loc = analyze_access(spec([(1, n)]), MEM)
        assert loc.cold_fraction == pytest.approx(1 / 32, rel=0.01)
        assert loc.source == "DRAM"
        assert loc.dram_bytes == pytest.approx(n / 32 * 128, rel=0.01)

    def test_unit_stride_sweep_fitting_l3_is_warm(self):
        # a 4 MB sweep fits the 8 MB L3: warm across kernel repetitions
        loc = analyze_access(spec([(1, 10**6)]), MEM)
        assert loc.source == "L3"
        assert loc.dram_bytes == 0.0

    def test_column_walk_with_repeat_hits_l3(self):
        # stride-N sweep of 1.2 MB, repeated by a zero-stride outer loop
        loc = analyze_access(spec([(9600, 9600), (0, 100)]), MEM)
        assert loc.repeat_level == "L3"
        assert loc.repeat_fraction > 0.9
        assert loc.cold_fraction == pytest.approx(0.01, rel=0.05)

    def test_small_sweep_repeats_in_l1(self):
        loc = analyze_access(spec([(1, 100), (0, 1000)], array=4096), MEM)
        assert loc.avg_latency_cycles < 5

    def test_quasi_repeat_from_sub_line_stride(self):
        # column sweep; outer loop advances one element (< line): the same
        # lines are revisited line/elem = 32 times
        loc = analyze_access(spec([(9600, 9600), (1, 9600)]), MEM)
        assert loc.cold_fraction == pytest.approx(1 / 32, rel=0.05)

    def test_streaming_outer_kills_reuse(self):
        # outer loop jumps a full row: every sweep is fresh data
        loc = analyze_access(spec([(1, 9600), (9600, 9600)]), MEM)
        assert loc.repeat_fraction == 0.0
        assert loc.source == "DRAM"

    def test_partial_fit_spills(self):
        # sweep of ~12 MB against an 8 MB L3: partial repeat credit
        loc = analyze_access(spec([(9600, 96000), (0, 100)]), MEM)
        assert 0 < loc.repeat_fraction < 1
        assert loc.cold_fraction > 1.0 / 100

    def test_oversized_sweep_gets_no_credit(self):
        # sweep 40x the largest cache: repeats are re-streams
        loc = analyze_access(spec([(9600, 2_600_000), (0, 100)]), MEM)
        assert loc.repeat_fraction == 0.0
        assert loc.cold_fraction == 1.0

    def test_store_doubles_dram_traffic(self):
        ld = analyze_access(spec([(1, 10**6)]), MEM)
        stt = analyze_access(spec([(1, 10**6)], store=True), MEM)
        assert stt.dram_bytes == pytest.approx(2 * ld.dram_bytes)

    def test_non_affine_is_worst_case(self):
        loc = analyze_access(spec([(None, 1000)]), MEM)
        assert loc.avg_latency_cycles == MEM.dram_latency_cycles
        assert loc.cold_fraction == 1.0

    def test_warm_small_array_has_no_dram_traffic(self):
        # array fits L2: cold misses come from the warm cache, not DRAM
        loc = analyze_access(spec([(1, 1000)], array=100 * 1024), MEM)
        assert loc.dram_bytes == 0.0
        assert loc.source in ("L2", "L3", "L1")

    @given(
        stride=st.sampled_from([1, 2, 8, 32, 100, 9600]),
        trips=st.integers(2, 100_000),
    )
    def test_fractions_form_a_distribution(self, stride, trips):
        loc = analyze_access(spec([(stride, trips)]), MEM)
        assert 0.0 <= loc.cold_fraction <= 1.0
        assert 0.0 <= loc.repeat_fraction <= 1.0
        assert loc.cold_fraction + loc.repeat_fraction <= 1.0 + 1e-9
        assert loc.l1_fraction >= -1e-9

    @given(trips=st.integers(64, 100_000))
    def test_latency_bounded_by_hierarchy(self, trips):
        loc = analyze_access(spec([(1, trips), (0, 10)]), MEM)
        assert MEM.l1_latency <= loc.avg_latency_cycles <= MEM.dram_latency_cycles


class TestGrouping:
    def test_same_keys_group(self):
        groups = group_accesses([("A", "s1"), ("A", "s1"), ("B", "s1")])
        assert sorted(map(sorted, groups)) == [[0, 1], [2]]

    def test_distinct_keys_stay_apart(self):
        groups = group_accesses([("A", "x"), ("A", "y")])
        assert len(groups) == 2

    def test_empty(self):
        assert group_accesses([]) == []
