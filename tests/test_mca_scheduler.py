"""Unit tests for the MCA scoreboard scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machines import GENERIC_X86, POWER8, POWER9
from repro.mca import (
    OPCODE_PORT,
    LoweredLevel,
    MachineOp,
    lower_region,
    schedule_ops,
    steady_state_cycles,
    unroll,
)
from repro.polybench import SUITE

CPUS = (POWER8, POWER9, GENERIC_X86)


def op(opcode, dest=-1, srcs=()):
    return MachineOp(opcode, dest, tuple(srcs))


class TestScheduleOps:
    def test_empty_sequence(self):
        res = schedule_ops([], POWER9)
        assert res.total_cycles == 0.0
        assert res.ipc == 0.0

    def test_single_op_latency(self):
        res = schedule_ops([op("fadd", 0)], POWER9)
        assert res.total_cycles == POWER9.latency("fadd")

    def test_dependency_chain_serializes(self):
        # fadd chain of length 4: 4 * latency
        ops = [op("fadd", 0)]
        for i in range(1, 4):
            ops.append(op("fadd", i, (i - 1,)))
        res = schedule_ops(ops, POWER9)
        assert res.total_cycles == 4 * POWER9.latency("fadd")

    def test_independent_ops_overlap(self):
        ops = [op("fadd", i) for i in range(8)]
        res = schedule_ops(ops, POWER9)
        # 2 FP pipes: 8 ops need 4 issue slots, finish = 3 + latency
        assert res.total_cycles < 8 * POWER9.latency("fadd")

    def test_port_contention(self):
        # POWER9 has 2 LS units: 6 independent loads issue over 3 cycles
        ops = [op("load", i) for i in range(6)]
        res = schedule_ops(ops, POWER9)
        assert res.total_cycles == 2 + POWER9.latency("load")

    def test_unpipelined_divides_serialize_on_unit(self):
        # 4 independent fdivs on 2 FP pipes, each occupying latency cycles
        ops = [op("fdiv", i) for i in range(4)]
        res = schedule_ops(ops, POWER9)
        lat = POWER9.latency("fdiv")
        assert res.total_cycles >= 2 * lat  # two rounds per pipe

    def test_dispatch_width_limits_start(self):
        # 32 1-cycle iadds on 3 FX units, 8-wide dispatch
        ops = [op("iadd", i) for i in range(33)]
        res = schedule_ops(ops, POWER9)
        assert res.total_cycles >= 33 / 8  # dispatch-bound lower bound
        assert res.total_cycles >= 33 / 3  # port-bound lower bound

    def test_port_cycles_accounted(self):
        ops = [op("load", 0), op("fadd", 1, (0,)), op("store", -1, (1,))]
        res = schedule_ops(ops, POWER9)
        assert res.port_cycles["LS"] == 2.0
        assert res.port_cycles["FP"] == 1.0

    def test_pressure_in_unit_interval(self):
        ops = [op("fma", i) for i in range(16)]
        res = schedule_ops(ops, POWER9)
        for frac in res.pressure(POWER9).values():
            assert 0.0 <= frac <= 1.0

    def test_bottleneck_names_hot_port(self):
        ops = [op("load", i) for i in range(12)]
        res = schedule_ops(ops, POWER9)
        assert res.bottleneck(POWER9) == "LS"

    def test_latency_override(self):
        ops = [op("load", 0), op("fadd", 1, (0,))]
        base = schedule_ops(ops, POWER9).total_cycles
        slow = schedule_ops(
            ops, POWER9, latency_of=lambda o: 300.0 if o.opcode == "load" else 6.0
        ).total_cycles
        assert slow > base + 200


class TestUnroll:
    def test_copies_multiply_ops(self):
        body = [op("fadd", 0), op("fmul", 1, (0,))]
        assert len(unroll(body, 5)) == 10

    def test_carried_register_creates_chain(self):
        # acc = acc + x : carried on reg 0
        body = [op("fadd", 0, (0,))]
        chain = unroll(body, 8, frozenset({0}))
        res = schedule_ops(chain, POWER9)
        assert res.total_cycles == 8 * POWER9.latency("fadd")

    def test_uncarried_copies_overlap(self):
        body = [op("fadd", 0, (1,))]
        flat = unroll(body, 8)
        res = schedule_ops(flat, POWER9)
        assert res.total_cycles < 8 * POWER9.latency("fadd")

    def test_invalid_copy_count(self):
        with pytest.raises(ValueError):
            unroll([op("fadd", 0)], 0)


class TestSteadyState:
    def test_carried_chain_is_latency_bound(self):
        body = [op("fadd", 0, (0,))]
        cyc = steady_state_cycles(body, POWER9)
        assert cyc == pytest.approx(POWER9.latency("fadd"), rel=0.01)

    def test_independent_body_is_throughput_bound(self):
        # 2 independent fmas per iteration on 2 FP pipes -> ~1 cycle/iter
        body = [op("fma", 0), op("fma", 1)]
        cyc = steady_state_cycles(body, POWER9)
        assert cyc == pytest.approx(1.0, abs=0.3)

    def test_empty_body(self):
        assert steady_state_cycles([], POWER9) == 0.0

    def test_power9_vector_throughput_beats_power8(self):
        # POWER9 has 4 VSX pipes vs POWER8's 2
        body = [op("vfma", i) for i in range(8)]
        p8 = steady_state_cycles(body, POWER8)
        p9 = steady_state_cycles(body, POWER9)
        assert p9 < p8

    @given(n=st.integers(1, 12))
    def test_steady_state_scales_linearly_with_body_size(self, n):
        body = [op("fma", i) for i in range(n)]
        cyc = steady_state_cycles(body, POWER9)
        # 2 FP pipes: n ops take at least n/2 and at most n cycles + slack
        assert n / 2 - 0.6 <= cyc <= n + 1


def two_pass(body, cpu, carried, *, warmup=4, measure=16, latency_of=None):
    """The reference: schedule the short and long unrolls separately."""
    short = schedule_ops(
        unroll(body, warmup, carried), cpu, latency_of=latency_of
    ).total_cycles
    long = schedule_ops(
        unroll(body, warmup + measure, carried), cpu, latency_of=latency_of
    ).total_cycles
    return max((long - short) / measure, 0.05)


@st.composite
def bodies(draw):
    """Bodies whose sources may name registers defined later, or never."""
    regs = draw(st.integers(1, 10))
    reg = st.integers(0, regs - 1)
    ops = draw(
        st.lists(
            st.builds(
                MachineOp,
                st.sampled_from(sorted(OPCODE_PORT)),
                st.one_of(st.just(-1), reg),
                st.lists(reg, max_size=3).map(tuple),
                st.sampled_from(("", "load A acc:0", "load B acc:1")),
            ),
            min_size=1,
            max_size=12,
        )
    )
    carried = draw(st.frozensets(st.integers(0, regs), max_size=4))
    return ops, carried


class TestOnePassScoreboard:
    """steady_state_cycles == the two-pass unroll + schedule_ops reference."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        case=bodies(),
        cpu=st.sampled_from(CPUS),
        latencies=st.dictionaries(
            st.tuples(
                st.sampled_from(sorted(OPCODE_PORT)),
                st.sampled_from(("", "load A acc:0", "load B acc:1")),
            ),
            st.sampled_from((0.5, 1.0, 3.0, 7.25, 40.0)),
        ),
        warmup=st.integers(1, 5),
        measure=st.integers(1, 20),
    )
    def test_matches_two_pass_reference(
        self, case, cpu, latencies, warmup, measure
    ):
        body, carried = case

        def latency_of(op):  # a pure function of (opcode, tag)
            return latencies.get(
                (op.opcode, op.tag), float(cpu.latency(op.opcode))
            )

        for override in (None, latency_of):
            got = steady_state_cycles(
                body,
                cpu,
                carried_regs=carried,
                warmup=warmup,
                measure=measure,
                latency_of=override,
            )
            want = two_pass(
                body,
                cpu,
                carried,
                warmup=warmup,
                measure=measure,
                latency_of=override,
            )
            assert got == want

    @pytest.mark.parametrize("warmup,measure", [(1, 1), (1, 2), (4, 16)])
    def test_reads_of_later_definitions(self, warmup, measure):
        # v1 is read before its definition: copies 0 and 1 see it ready at
        # cycle 0, later copies read the previous copy's definition
        body = [MachineOp("fadd", 0, (1,)), MachineOp("fdiv", 1, (0,))]
        got = steady_state_cycles(body, POWER9, warmup=warmup, measure=measure)
        want = two_pass(
            body, POWER9, frozenset(), warmup=warmup, measure=measure
        )
        assert got == want

    def test_every_polybench_level_matches(self):
        """Exact on every lowered level of the 24 suite regions."""

        def levels(level: LoweredLevel):
            yield level
            for sub in level.sub_loops:
                yield from levels(sub)
            for then_lv, else_lv in level.sub_branches:
                yield from levels(then_lv)
                yield from levels(else_lv)

        checked = 0
        for cpu in CPUS:

            def slow_loads(op, cpu=cpu):  # (opcode, tag)-pure, like the models
                bump = 11.5 if " acc:" in op.tag else 0.0
                return float(cpu.latency(op.opcode)) + bump

            for spec in SUITE:
                for region in spec.build():
                    for level in levels(lower_region(region, cpu)):
                        if not level.leaf_ops:
                            continue
                        for override in (None, slow_loads):
                            got = steady_state_cycles(
                                level.leaf_ops,
                                cpu,
                                carried_regs=level.carried,
                                latency_of=override,
                            )
                            want = two_pass(
                                level.leaf_ops,
                                cpu,
                                level.carried,
                                latency_of=override,
                            )
                            assert got == want, (region.name, cpu.name)
                            checked += 1
        assert checked >= 3 * 24 * 2

    @pytest.mark.parametrize("warmup", [0, -1])
    def test_warmup_below_one_rejected(self, warmup):
        with pytest.raises(ValueError, match="warmup"):
            steady_state_cycles([op("fadd", 0)], POWER9, warmup=warmup)

    @pytest.mark.parametrize("measure", [0, -3])
    def test_measure_below_one_rejected(self, measure):
        with pytest.raises(ValueError, match="measure"):
            steady_state_cycles([op("fadd", 0)], POWER9, measure=measure)
