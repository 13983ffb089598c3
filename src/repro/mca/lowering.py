"""Lowering of IR loop bodies to machine ops.

This is the "compiler backend" half of the MCA substrate: it turns the body
of a parallel loop into :class:`MachineOp` sequences with explicit register
dataflow, performing the transformations that dominate CPU loop performance
and that the XL/LLVM backends would perform:

* **FMA fusion** — ``a*b + c`` becomes one fused op when the target has FMA.
* **Inner-loop vectorization** — an innermost sequential loop whose accesses
  all have compile-time stride 0/1 along its induction variable, and whose
  only loop-carried scalar dependencies are reduction updates, is lowered to
  vector ops over ``lanes`` elements with ``unroll`` independent accumulator
  chains (unroll-and-jam breaking reduction latency).
* **Band (outer-loop) vectorization** — when the innermost loop cannot
  vectorize (e.g. a column reduction walking stride-N) but every access in
  the nest has stride 0/1 along the innermost *parallel band* variable, the
  compiler vectorizes across band iterations: each thread processes
  ``lanes`` adjacent work items per vector lane.  This is what makes the
  paper's CORR/COVAR sequential loops "well-suited for SIMD vectorization"
  and what the POWER9 VSX-3 uplift acts on.

The result is a :class:`LoweredLevel` tree mirroring the loop nest;
:func:`level_cycles_per_iteration` composes scoreboard steady-state measures
over it into the Liao model's ``Machine_cycles_per_iter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..ir import (
    Bin,
    Cmp,
    ConstV,
    If,
    Load,
    LocalAssign,
    LocalDef,
    LocalRef,
    Loop,
    ReduceStore,
    Region,
    ScalarArg,
    Select,
    Stmt,
    Store,
    Un,
    VExpr,
)
from ..machines import CPUDescriptor
from ..symbolic import Const
from .ops import MachineOp, vector_opcode
from .scheduler import steady_state_cycles

__all__ = [
    "LoweredLevel",
    "LoopInfo",
    "lower_region",
    "level_cycles_per_iteration",
    "machine_cycles_per_iter",
    "find_band_level",
    "vectorized_access_indices",
]

_BIN_OPCODE = {
    "add": "fadd",
    "sub": "fadd",
    "mul": "fmul",
    "div": "fdiv",
    "min": "fmin",
    "max": "fmin",
}
_UN_OPCODE = {"neg": "fneg", "sqrt": "fsqrt", "abs": "fabs", "exp": "fexp"}

#: Reduction update operators eligible for parallel accumulator chains.
_REDUCTION_OPS = frozenset({"add", "mul", "min", "max"})

#: Independent accumulator chains assumed for unroll-and-jam of reductions.
REDUCTION_UNROLL = 4


@dataclass(frozen=True)
class LoopInfo:
    """How a loop level was lowered.

    ``elements_per_unit`` is the number of source-level iterations of this
    loop covered by one scheduled unit of its ``leaf_ops`` (``lanes ×
    unroll`` for a vectorized+unrolled level, 1 otherwise).
    """

    vectorized: bool
    lanes: int
    unroll: int

    @property
    def elements_per_unit(self) -> int:
        return self.lanes * self.unroll


@dataclass
class LoweredLevel:
    """Machine ops of one loop-nest level."""

    loop: Loop | None  # None for the region top level and branch bodies
    info: LoopInfo
    leaf_ops: list[MachineOp] = field(default_factory=list)
    carried: frozenset[int] = frozenset()
    sub_loops: list["LoweredLevel"] = field(default_factory=list)
    sub_branches: list[tuple["LoweredLevel", "LoweredLevel"]] = field(
        default_factory=list
    )

    def op_count(self) -> int:
        """Total static ops in this level and below (diagnostic)."""
        n = len(self.leaf_ops)
        for s in self.sub_loops:
            n += s.op_count()
        for t, e in self.sub_branches:
            n += t.op_count() + e.op_count()
        return n

    def is_band_vectorized(self) -> bool:
        return self.info.vectorized and self.loop is not None and self.loop.parallel


class _Lowerer:
    def __init__(self, region: Region, cpu: CPUDescriptor, vectorize: bool):
        self.region = region
        self.cpu = cpu
        self.vectorize = vectorize
        self._next_vreg = 0
        self._mem_serial = 0
        self._reduce_accs: dict[tuple[str, str], int] = {}
        band = region.parallel_band()
        self._innermost_band_var = band[-1].var.name
        # IR node identity -> static access index (the order IPDA, feature
        # extraction and the locality model all share); lets simulators
        # inject per-access latencies through MachineOp tags.
        from ..ir.visit import memory_accesses

        self._acc_index = {
            id(acc.node): i for i, acc in enumerate(memory_accesses(region))
        }

    def fresh(self) -> int:
        v = self._next_vreg
        self._next_vreg += 1
        return v

    # -- value lowering ----------------------------------------------------
    def lower_value(
        self,
        v: VExpr,
        ops: list[MachineOp],
        env: dict[str, int],
        vector: bool,
    ) -> int:
        """Emit ops computing ``v``; returns the defining vreg."""
        if isinstance(v, (ConstV, ScalarArg)):
            return self.fresh()  # available at cycle 0: no op needed
        if isinstance(v, LocalRef):
            if v.name not in env:
                raise KeyError(f"local %{v.name} lowered before definition")
            return env[v.name]
        if isinstance(v, Load):
            return self._emit_load(v, ops, vector)
        if isinstance(v, Bin):
            return self._emit_bin(v, ops, env, vector)
        if isinstance(v, Un):
            src = self.lower_value(v.operand, ops, env, vector)
            dest = self.fresh()
            ops.append(MachineOp(self._vec(_UN_OPCODE[v.op], vector), dest, (src,)))
            return dest
        if isinstance(v, Cmp):
            l = self.lower_value(v.lhs, ops, env, vector)
            r = self.lower_value(v.rhs, ops, env, vector)
            dest = self.fresh()
            ops.append(MachineOp("cmp", dest, (l, r)))
            return dest
        if isinstance(v, Select):
            c = self.lower_value(v.cond, ops, env, vector)
            t = self.lower_value(v.if_true, ops, env, vector)
            f = self.lower_value(v.if_false, ops, env, vector)
            dest = self.fresh()
            ops.append(MachineOp(self._vec("fsel", vector), dest, (c, t, f)))
            return dest
        raise TypeError(f"cannot lower value {type(v).__name__}")

    @staticmethod
    def _vec(opcode: str, vector: bool) -> str:
        return vector_opcode(opcode) if vector else opcode

    def _emit_load(self, v: Load, ops: list[MachineOp], vector: bool) -> int:
        self._mem_serial += 1
        addr = self.fresh()
        ops.append(MachineOp("iadd", addr, (), tag=f"addr#{self._mem_serial}"))
        dest = self.fresh()
        idx = self._acc_index.get(id(v), -1)
        ops.append(
            MachineOp(
                self._vec("load", vector),
                dest,
                (addr,),
                tag=f"load {v.array.name} acc:{idx}",
            )
        )
        return dest

    def _emit_bin(
        self, v: Bin, ops: list[MachineOp], env: dict[str, int], vector: bool
    ) -> int:
        # FMA fusion: add(x, mul(a,b)) / add(mul(a,b), x) -> fma
        if self.cpu.has_fma and v.op == "add":
            mul_side, other = None, None
            if isinstance(v.rhs, Bin) and v.rhs.op == "mul":
                mul_side, other = v.rhs, v.lhs
            elif isinstance(v.lhs, Bin) and v.lhs.op == "mul":
                mul_side, other = v.lhs, v.rhs
            if mul_side is not None:
                a = self.lower_value(mul_side.lhs, ops, env, vector)
                b = self.lower_value(mul_side.rhs, ops, env, vector)
                c = self.lower_value(other, ops, env, vector)
                dest = self.fresh()
                ops.append(MachineOp(self._vec("fma", vector), dest, (a, b, c)))
                return dest
        l = self.lower_value(v.lhs, ops, env, vector)
        r = self.lower_value(v.rhs, ops, env, vector)
        dest = self.fresh()
        ops.append(MachineOp(self._vec(_BIN_OPCODE[v.op], vector), dest, (l, r)))
        return dest

    def _emit_store(
        self, s: Store, ops: list[MachineOp], env: dict[str, int], vector: bool
    ) -> None:
        val = self.lower_value(s.value, ops, env, vector)
        self._mem_serial += 1
        addr = self.fresh()
        ops.append(MachineOp("iadd", addr, (), tag=f"addr#{self._mem_serial}"))
        idx = self._acc_index.get(id(s), -1)
        ops.append(
            MachineOp(
                self._vec("store", vector),
                -1,
                (val, addr),
                tag=f"store {s.array.name} acc:{idx}",
            )
        )

    # -- statement / level lowering -----------------------------------------
    def lower_level(
        self,
        loop: Loop | None,
        stmts: list[Stmt],
        env: dict[str, int],
        *,
        vector: bool = False,
    ) -> LoweredLevel:
        """Lower one nest level; recursion builds the level tree.

        ``vector=True`` means an enclosing band vectorization is active and
        all value ops must be lowered as vector ops.
        """
        if loop is not None and not vector and self.vectorize:
            if self._inner_vectorizable(loop, stmts):
                return self._lower_unrolled(
                    loop,
                    stmts,
                    env,
                    lanes=self.cpu.vector_lanes(_body_elem_bytes(stmts)),
                    unroll=REDUCTION_UNROLL,
                )
            # Outer-loop vectorization (band or middle loop): requires the
            # broader vector support the paper attributes to POWER9 VSX-3.
            eligible = (
                loop.var.name == self._innermost_band_var
                if loop.parallel
                else True
            )
            if (
                eligible
                and self.cpu.outer_loop_vectorization
                and self._level_vectorizable(loop.var.name, stmts)
            ):
                lanes = self.cpu.vector_lanes(_body_elem_bytes(stmts))
                lv = self.lower_level(None, stmts, env, vector=True)
                lv.loop = loop
                lv.info = LoopInfo(True, lanes, 1)
                self._append_loop_control(lv)
                return lv

        # An inner reduction loop inside an active band vectorization still
        # profits from unroll-and-jam to break the accumulator chain.
        if (
            loop is not None
            and vector
            and not loop.parallel
            and _is_flat_reduction_body(stmts)
        ):
            return self._lower_unrolled(
                loop, stmts, env, lanes=1, unroll=REDUCTION_UNROLL, vector=True
            )

        level = LoweredLevel(loop, LoopInfo(False, 1, 1))
        carried: set[int] = set()
        local_env = dict(env)
        for s in stmts:
            if isinstance(s, Loop):
                level.sub_loops.append(
                    self.lower_level(s, s.body, local_env, vector=vector)
                )
            elif isinstance(s, If):
                cond_ops: list[MachineOp] = []
                self.lower_value(s.cond, cond_ops, local_env, vector)
                cond_ops.append(MachineOp("br", -1, ()))
                level.leaf_ops.extend(cond_ops)
                then_lv = self.lower_level(None, s.then_body, local_env, vector=vector)
                else_lv = self.lower_level(None, s.else_body, local_env, vector=vector)
                level.sub_branches.append((then_lv, else_lv))
            elif isinstance(s, LocalDef):
                reg = self.lower_value(s.init, level.leaf_ops, local_env, vector)
                local_env[s.name] = reg
            elif isinstance(s, LocalAssign):
                self._lower_assign(s, level.leaf_ops, local_env, carried, vector)
            elif isinstance(s, ReduceStore):
                self._lower_reduce(s, level.leaf_ops, local_env, carried, vector)
            elif isinstance(s, Store):
                self._emit_store(s, level.leaf_ops, local_env, vector)
            else:  # pragma: no cover - validator precludes this
                raise TypeError(f"cannot lower statement {type(s).__name__}")
        if loop is not None:
            self._append_loop_control(level)
            carried |= {level.leaf_ops[-3].dest}  # the induction iadd
        env.update(local_env)
        level.carried = frozenset(carried)
        return level

    def _lower_assign(
        self,
        s: LocalAssign,
        ops: list[MachineOp],
        env: dict[str, int],
        carried: set[int],
        vector: bool,
    ) -> None:
        reg = self.lower_value(s.value, ops, env, vector)
        old = env.get(s.name)
        if old is not None and _value_reads_local(s.value, s.name):
            # loop-carried scalar chain: keep the accumulator in one register
            # so unrolled copies serialize on it
            self._retarget(ops, reg, old)
            carried.add(old)
            reg = old
        env[s.name] = reg

    def _lower_reduce(
        self,
        s: ReduceStore,
        ops: list[MachineOp],
        env: dict[str, int],
        carried: set[int],
        vector: bool,
    ) -> None:
        """Per-iteration half of a band reduction: a private accumulation.

        The cross-thread combine is priced separately (Liao's
        ``Reduction_c`` / the device's block tree + atomics) — per work
        item the compiler keeps a privatized register chain.
        """
        val = self.lower_value(s.value, ops, env, vector)
        key = (s.array.name, s.op)
        acc = self._reduce_accs.get(key)
        if acc is None:
            acc = self.fresh()
            self._reduce_accs[key] = acc
        opcode = {"add": "fadd", "mul": "fmul", "min": "fmin", "max": "fmin"}[s.op]
        ops.append(
            MachineOp(self._vec(opcode, vector), acc, (acc, val), tag="reduce")
        )
        carried.add(acc)

    @staticmethod
    def _retarget(ops: list[MachineOp], from_reg: int, to_reg: int) -> None:
        """Rewrite the op defining ``from_reg`` to define ``to_reg``."""
        for i in range(len(ops) - 1, -1, -1):
            if ops[i].dest == from_reg:
                ops[i] = MachineOp(ops[i].opcode, to_reg, ops[i].srcs, ops[i].tag)
                return
        raise AssertionError("definition of retargeted register not found")

    def _append_loop_control(self, level: LoweredLevel) -> None:
        ind = self.fresh()
        level.leaf_ops.append(MachineOp("iadd", ind, (ind,), tag="induction"))
        cmp_reg = self.fresh()
        level.leaf_ops.append(MachineOp("cmp", cmp_reg, (ind,)))
        level.leaf_ops.append(MachineOp("br", -1, (cmp_reg,)))
        level.carried = level.carried | {ind}

    def _lower_unrolled(
        self,
        loop: Loop,
        stmts: list[Stmt],
        env: dict[str, int],
        *,
        lanes: int,
        unroll: int,
        vector: bool = True,
    ) -> LoweredLevel:
        """Vectorize/unroll a flat loop body with independent accumulators."""
        level = LoweredLevel(loop, LoopInfo(True, lanes, unroll))
        carried: set[int] = set()
        assigned = [s.name for s in stmts if isinstance(s, LocalAssign)]
        for copy in range(unroll):
            local_env = dict(env)
            if copy:
                # each unrolled copy gets its own accumulator registers so
                # the reduction splits into independent dependency chains
                for name in assigned:
                    if name in local_env:
                        local_env[name] = self.fresh()
            for s in stmts:
                if isinstance(s, Store):
                    self._emit_store(s, level.leaf_ops, local_env, vector)
                elif isinstance(s, LocalAssign):
                    self._lower_assign(
                        s, level.leaf_ops, local_env, carried, vector
                    )
                else:  # pragma: no cover - _inner_vectorizable precludes
                    raise TypeError(
                        f"unexpected {type(s).__name__} in vector body"
                    )
        self._append_loop_control(level)
        level.carried = level.carried | frozenset(carried)
        return level

    # -- vectorization legality ------------------------------------------------
    def _inner_vectorizable(self, loop: Loop, stmts: list[Stmt]) -> bool:
        """Innermost, affine, stride-0/1 accesses, reduction-only recurrences."""
        if loop.parallel:
            return False  # the band is the thread space, not a SIMD loop
        if not _is_flat_reduction_body(stmts):
            return False
        return self._strides_ok(stmts, loop.var.name)

    def _level_vectorizable(self, var: str, stmts: list[Stmt]) -> bool:
        """All accesses in the subtree have stride 0/1 along ``var``.

        Used for outer-loop vectorization of the parallel band or of a
        middle sequential loop (e.g. CORR's ``j2``).  Inner-loop trip
        counts must not depend on ``var`` and conditionals must be absent
        (selects are fine: they if-convert).
        """

        def check(body: list[Stmt]) -> bool:
            for s in body:
                if isinstance(s, (If, ReduceStore)):
                    return False
                if isinstance(s, Loop):
                    if var in s.count.free_symbols() or var in s.start.free_symbols():
                        return False
                    if not check(s.body):
                        return False
                    continue
                values: list[VExpr] = []
                if isinstance(s, Store):
                    if not self._stride_ok(s, var, store=True):
                        return False
                    values.append(s.value)
                elif isinstance(s, LocalDef):
                    values.append(s.init)
                elif isinstance(s, LocalAssign):
                    values.append(s.value)
                for v in values:
                    for node in v.walk():
                        if isinstance(node, Load) and not self._stride_ok(
                            node, var, store=False
                        ):
                            return False
            return True

        return check(stmts)

    def _strides_ok(self, stmts: list[Stmt], var: str) -> bool:
        for s in stmts:
            values: list[VExpr] = []
            if isinstance(s, Store):
                if not self._stride_ok(s, var, store=True):
                    return False
                values.append(s.value)
            elif isinstance(s, LocalAssign):
                values.append(s.value)
            for v in values:
                for node in v.walk():
                    if isinstance(node, Load) and not self._stride_ok(
                        node, var, store=False
                    ):
                        return False
        return True

    def _stride_ok(self, access: Load | Store, var: str, *, store: bool) -> bool:
        # the stride is kept on the access node: every host CPU's
        # lowering of the region shares it
        coeff = access.stride_along(var)
        if coeff is None:
            return False
        if coeff == Const(1):
            return True
        if coeff == Const(0):
            return not store  # conflicting lane stores cannot vectorize
        return False


def _value_reads_local(v: VExpr, name: str) -> bool:
    return any(isinstance(n, LocalRef) and n.name == name for n in v.walk())


def _is_reduction_update(s: LocalAssign) -> bool:
    """``x = x ⊕ expr`` with ⊕ associative and x read exactly once."""
    v = s.value
    if not (isinstance(v, Bin) and v.op in _REDUCTION_OPS):
        return False
    reads = sum(1 for n in v.walk() if isinstance(n, LocalRef) and n.name == s.name)
    if reads != 1:
        return False
    return (isinstance(v.lhs, LocalRef) and v.lhs.name == s.name) or (
        isinstance(v.rhs, LocalRef) and v.rhs.name == s.name
    )


def _is_flat_reduction_body(stmts: list[Stmt]) -> bool:
    """Flat body of stores and at-most-once reduction updates per local."""
    seen: set[str] = set()
    for s in stmts:
        if isinstance(s, (Loop, If, LocalDef, ReduceStore)):
            return False
        if isinstance(s, LocalAssign):
            if not _is_reduction_update(s) or s.name in seen:
                return False
            seen.add(s.name)
    return True


def _body_elem_bytes(stmts: list[Stmt]) -> int:
    """Widest element accessed in a SIMD-candidate subtree (for lane count)."""
    widest = 4

    def scan(body: list[Stmt]) -> None:
        nonlocal widest
        for s in body:
            if isinstance(s, Loop):
                scan(s.body)
                continue
            if isinstance(s, If):
                scan(s.then_body)
                scan(s.else_body)
                continue
            vals: list[VExpr] = []
            if isinstance(s, Store):
                widest = max(widest, s.array.dtype.size)
                vals.append(s.value)
            elif isinstance(s, LocalAssign):
                vals.append(s.value)
            elif isinstance(s, LocalDef):
                vals.append(s.init)
            for v in vals:
                for node in v.walk():
                    if isinstance(node, Load):
                        widest = max(widest, node.array.dtype.size)

    scan(stmts)
    return widest


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def lower_region(
    region: Region, cpu: CPUDescriptor, *, vectorize: bool = True
) -> LoweredLevel:
    """Lower a region's whole loop nest to a level tree."""
    lw = _Lowerer(region, cpu, vectorize)
    return lw.lower_level(None, region.body, {})


def find_band_level(root: LoweredLevel) -> LoweredLevel:
    """The level of the *innermost parallel band* loop.

    One source-level iteration of that loop is what Liao's
    ``Machine_cycles_per_iter`` prices.
    """
    level = root
    chosen = None
    while True:
        next_level = None
        for sub in level.sub_loops:
            if sub.loop is not None and sub.loop.parallel:
                next_level = sub
                break
        if next_level is None:
            break
        chosen = next_level
        level = next_level
    if chosen is None:
        raise ValueError("region has no parallel loop level")
    return chosen


def vectorized_access_indices(root: LoweredLevel) -> frozenset[int]:
    """Access indices a lowered tree moves with vector memory ops.

    A vector load or store moves a lane-wide run of elements, so the CPU
    simulator re-fetches a line once per ``lanes`` elements for these
    accesses.  Depends on the tree alone; a compiled record keeps it
    with each lowering (``RegionAttributes.vectorized_accesses``).
    """
    out: set[int] = set()
    stack = [root]
    while stack:
        lv = stack.pop()
        for op in lv.leaf_ops:
            if " acc:" in op.tag and op.opcode.startswith("v"):
                idx = int(op.tag.rsplit("acc:", 1)[1])
                if idx >= 0:
                    out.add(idx)
        stack.extend(lv.sub_loops)
        for t, e in lv.sub_branches:
            stack.append(t)
            stack.append(e)
    return frozenset(out)


def level_cycles_per_iteration(
    level: LoweredLevel,
    cpu: CPUDescriptor,
    trip_of: Callable[[Loop], float],
    *,
    latency_of: Callable[[MachineOp], float] | None = None,
) -> float:
    """Cycles for one source iteration of ``level``'s loop.

    One scheduled *unit* of the level covers ``elements_per_unit`` source
    iterations (vector lanes × unroll); leaf ops are priced at scoreboard
    steady state, inner loops at their per-iteration cost times trips, and
    branch bodies at the paper's 50%-taken weighting.
    """
    unit = steady_state_cycles(
        level.leaf_ops, cpu, carried_regs=level.carried, latency_of=latency_of
    )
    for then_lv, else_lv in level.sub_branches:
        t = level_cycles_per_iteration(then_lv, cpu, trip_of, latency_of=latency_of)
        e = level_cycles_per_iteration(else_lv, cpu, trip_of, latency_of=latency_of)
        unit += 0.5 * t + 0.5 * e
    for sub in level.sub_loops:
        per_iter = level_cycles_per_iteration(sub, cpu, trip_of, latency_of=latency_of)
        trips = trip_of(sub.loop) if sub.loop is not None else 1.0
        unit += trips * per_iter
    return unit / level.info.elements_per_unit


def machine_cycles_per_iter(
    region: Region,
    cpu: CPUDescriptor,
    trip_of: Callable[[Loop], float],
    *,
    vectorize: bool = True,
    latency_of: Callable[[MachineOp], float] | None = None,
) -> float:
    """Liao's ``Machine_cycles_per_iter``: cycles per parallel-loop iteration.

    This is the MCA integration of Section IV.A.1 — the parallel loop body
    is extracted, lowered and run through the scoreboard.  ``trip_of``
    supplies inner-loop trip counts: the analytical model passes the
    128-iteration abstraction, the simulator passes actual counts.
    """
    root = lower_region(region, cpu, vectorize=vectorize)
    band = find_band_level(root)
    return level_cycles_per_iteration(band, cpu, trip_of, latency_of=latency_of)
