"""Unit + property tests for IPDA stride analysis and coalescing math."""

import pytest
from hypothesis import given, strategies as st

from repro.ipda import (
    CoalescingClass,
    analyze_region,
    classify_stride,
    transactions_per_warp_access,
)
from repro.ir import Region
from repro.symbolic import Const, Sym

from .kernels import (
    build_colwise,
    build_gemm,
    build_rowwise,
    build_strided_store,
    build_vecadd,
)


class TestTransactions:
    def test_coalesced_f32_is_4_sectors(self):
        # 32 threads x 4B contiguous = 128B = 4 sectors of 32B
        assert transactions_per_warp_access(4, 4) == 4

    def test_uniform_access_is_one(self):
        assert transactions_per_warp_access(0, 4) == 1

    def test_fully_strided_is_32(self):
        # stride of 128B >> sector: every lane its own sector
        assert transactions_per_warp_access(128, 4) == 32

    def test_partial_stride_two(self):
        # stride 8B, f32: warp spans 256B minus gaps -> 8 sectors
        assert transactions_per_warp_access(8, 4) == 8

    def test_f64_coalesced_is_8_sectors(self):
        assert transactions_per_warp_access(8, 8) == 8

    def test_negative_stride_same_as_positive(self):
        assert transactions_per_warp_access(-4, 4) == transactions_per_warp_access(4, 4)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            transactions_per_warp_access(4, 0)

    @given(
        stride_elems=st.integers(-600, 600),
        elem=st.sampled_from([1, 2, 4, 8, 16, 32]),
        warp=st.sampled_from([1, 2, 16, 32, 64]),
        sector=st.sampled_from([32, 64, 128]),
    )
    def test_whole_element_strides_equal_the_lane_count(
        self, stride_elems, elem, warp, sector
    ):
        """The closed form for whole-element strides equals counting lanes."""
        stride = stride_elems * elem
        sectors = set()
        for lane in range(warp):
            first = lane * abs(stride) // sector
            last = (lane * abs(stride) + elem - 1) // sector
            sectors.update(range(first, last + 1))
        assert transactions_per_warp_access(
            stride, elem, warp_size=warp, sector_bytes=sector
        ) == len(sectors)

    @given(stride=st.integers(0, 4096), elem=st.sampled_from([4, 8]))
    def test_transactions_bounded(self, stride, elem):
        txn = transactions_per_warp_access(stride, elem)
        # at least 1 sector; at most one sector span per lane
        assert 1 <= txn <= 32 * (1 + (elem - 1) // 32 + 1)

    @given(stride=st.integers(33, 4096))
    def test_large_stride_at_least_one_txn_per_lane(self, stride):
        # once stride exceeds a sector, each 4B lane touches its own
        # sector(s); lanes straddling a boundary may add one more
        assert 32 <= transactions_per_warp_access(stride, 4) <= 64

    @given(k=st.integers(2, 128))
    def test_sector_multiple_stride_exactly_32(self, k):
        assert transactions_per_warp_access(32 * k, 4) == 32


class TestClassify:
    def test_unit_stride(self):
        assert classify_stride(1, 4) is CoalescingClass.COALESCED

    def test_negative_unit_stride(self):
        assert classify_stride(-1, 4) is CoalescingClass.COALESCED

    def test_zero_stride(self):
        assert classify_stride(0, 4) is CoalescingClass.UNIFORM

    def test_small_stride_partial(self):
        assert classify_stride(2, 4) is CoalescingClass.PARTIAL

    def test_large_stride_uncoalesced(self):
        assert classify_stride(1100, 4) is CoalescingClass.UNCOALESCED

    def test_none_is_unknown(self):
        assert classify_stride(None, 4) is CoalescingClass.UNKNOWN

    def test_coalesced_flag(self):
        assert CoalescingClass.COALESCED.is_coalesced
        assert CoalescingClass.UNIFORM.is_coalesced
        assert not CoalescingClass.UNCOALESCED.is_coalesced


class TestPaperExample:
    """Section IV.C: IPD_th(A[max * a]) == [max]."""

    def test_symbolic_stride_is_max(self):
        res = analyze_region(build_strided_store())
        (acc,) = res.accesses
        assert acc.thread_stride == Sym("max")

    def test_free_symbols_reported(self):
        res = analyze_region(build_strided_store())
        assert res.free_symbols() == {"max"}

    def test_runtime_binding_uncoalesced(self):
        res = analyze_region(build_strided_store())
        bound = res.bind({"max": 1100})
        (b,) = bound.accesses
        assert b.thread_stride_elems == 1100
        assert b.coalescing is CoalescingClass.UNCOALESCED
        assert b.transactions_per_access == 32

    def test_runtime_binding_coalesced_when_max_is_one(self):
        res = analyze_region(build_strided_store())
        bound = res.bind({"max": 1})
        (b,) = bound.accesses
        assert b.coalescing is CoalescingClass.COALESCED


class TestRegionAnalysis:
    def test_vecadd_all_coalesced(self):
        bound = analyze_region(build_vecadd()).bind({"n": 1000})
        assert bound.counts() == (3, 0)

    def test_colwise_coalesced_on_gpu(self):
        # thread j, access A[i][j]: inter-thread stride 1
        bound = analyze_region(build_colwise()).bind({"n": 1000})
        a_access = [b for b in bound.accesses if b.stride.access.array.name == "A"]
        assert all(b.coalescing is CoalescingClass.COALESCED for b in a_access)

    def test_rowwise_uncoalesced_on_gpu(self):
        # thread i, access A[i][j]: inter-thread stride n
        bound = analyze_region(build_rowwise()).bind({"n": 1000})
        a_access = [b for b in bound.accesses if b.stride.access.array.name == "A"]
        assert all(b.coalescing is CoalescingClass.UNCOALESCED for b in a_access)

    def test_rowwise_inner_loop_stride_is_one(self):
        res = analyze_region(build_rowwise())
        a = [x for x in res.accesses if x.access.array.name == "A"][0]
        assert a.innermost_sequential_stride() == Const(1)

    def test_gemm_strides(self):
        res = analyze_region(build_gemm())
        strides = {}
        for a in res.accesses:
            strides.setdefault(a.access.array.name, []).append(a.thread_stride)
        # A[i][k]: thread stride nk; B[k][j]: 0 (uniform across i threads)
        assert strides["A"] == [Sym("nk")]
        assert strides["B"] == [Const(0)]
        # C[i][j] load + store: stride nj
        assert strides["C"] == [Sym("nj"), Sym("nj")]

    def test_gemm_binding_counts(self):
        bound = analyze_region(build_gemm()).bind({"ni": 64, "nj": 64, "nk": 64})
        coal, uncoal = bound.counts()
        assert coal == 1  # the uniform B access
        assert uncoal == 3

    def test_false_sharing_flagged_for_small_stride_store(self):
        r = Region("fs")
        n = r.param("n")
        A = r.array("A", (n,), output=True)
        with r.parallel_loop("i", n) as i:
            r.store(A[i], 1.0)
        bound = analyze_region(r).bind({"n": 100}, cacheline_bytes=128)
        (b,) = bound.accesses
        assert b.false_sharing_risk  # 4B-apart stores share a 128B line

    def test_collapse2_band_inner_var_drives_stride(self):
        r = Region("c2")
        n, m = r.param_tuple("n", "m")
        A = r.array("A", (n, m), output=True)
        with r.parallel_loop("i", n) as i:
            with r.parallel_loop("j", m) as j:
                r.store(A[i, j], 0.0)
        res = analyze_region(r)
        assert res.band_vars == ("i", "j")
        (acc,) = res.accesses
        assert acc.thread_stride == Const(1)  # coeff of j

    def test_mean_transactions(self):
        bound = analyze_region(build_vecadd()).bind({"n": 100})
        assert [a.transactions_per_access for a in bound.accesses] == [4, 4, 4]


class TestEdgeCases:
    """Corner cases of the inter-thread stride model."""

    def _collapse2_transposed(self):
        r = Region("c2t")
        n, m = r.param_tuple("n", "m")
        A = r.array("A", (m, n), output=True)
        with r.parallel_loop("i", n) as i:
            with r.parallel_loop("j", m) as j:
                r.store(A[j, i], 0.0)
        return r

    def test_collapse2_transposed_stride_is_row_length(self):
        # flat index j*n + i: adjacent threads step j, so stride is n
        res = analyze_region(self._collapse2_transposed())
        (acc,) = res.accesses
        assert acc.thread_stride == Sym("n")

    def test_collapse_boundary_wraparound_ignored(self):
        # With m=4 the lane pairs (i, m-1) -> (i+1, 0) wrap the collapse
        # boundary and are NOT unit-stride, but IPDA models the common
        # case: the innermost band coefficient still classifies the
        # access, exactly as a warp mostly made of interior pairs behaves.
        r = Region("c2wrap")
        n, m = r.param_tuple("n", "m")
        A = r.array("A", (n, m), output=True)
        with r.parallel_loop("i", n) as i:
            with r.parallel_loop("j", m) as j:
                r.store(A[i, j], 0.0)
        res = analyze_region(r)
        (acc,) = res.accesses
        assert acc.thread_stride == Const(1)
        bound = res.bind({"n": 64, "m": 4})
        assert bound.accesses[0].coalescing is CoalescingClass.COALESCED

    def test_thread_invariant_access_is_uniform(self):
        # x[k] never mentions the band variable: stride 0, one broadcast
        r = Region("uniform")
        n = r.param("n")
        x = r.array("x", (n,))
        y = r.array("y", (n,), output=True)
        with r.parallel_loop("i", n) as i:
            acc = r.local("acc", 0.0)
            with r.loop("k", n) as k:
                r.assign(acc, acc + x[k])
            r.store(y[i], acc)
        res = analyze_region(r)
        x_acc = [a for a in res.accesses if a.access.array.name == "x"][0]
        assert x_acc.thread_stride == Const(0)
        bound = res.bind({"n": 1000})
        x_bound = [
            b for b in bound.accesses if b.stride.access.array.name == "x"
        ][0]
        assert x_bound.coalescing is CoalescingClass.UNIFORM
        assert x_bound.transactions_per_access == 1

    def test_triangular_inner_bounds(self):
        # for j2 in [j1, m): the triangular lower bound must not disturb
        # the band-coefficient stride (m for A[j1][j2], 1 innermost)
        r = Region("tri")
        m = r.param("m")
        A = r.array("A", (m, m), output=True)
        with r.parallel_loop("j1", m) as j1:
            with r.loop("j2", m - j1.sym, start=j1) as j2:
                r.store(A[j1, j2], 1.0)
        res = analyze_region(r)
        (acc,) = res.accesses
        assert acc.thread_stride == Sym("m")
        assert acc.innermost_sequential_stride() == Const(1)
        bound = res.bind({"m": 512})
        assert bound.accesses[0].coalescing is CoalescingClass.UNCOALESCED


@given(n=st.integers(2, 10_000))
def test_stride_binding_matches_direct_evaluation(n):
    """Property: bound stride equals evaluating the symbolic stride."""
    res = analyze_region(build_strided_store())
    (acc,) = res.accesses
    bound = res.bind({"max": n})
    assert bound.accesses[0].thread_stride_elems == acc.thread_stride.evaluate(
        {"max": n}
    )
