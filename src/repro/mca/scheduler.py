"""The MCA scoreboard scheduler.

Emulates the dispatch/issue behaviour LLVM-MCA derives from a target's
scheduling model: in-order dispatch of ``dispatch_width`` ops per cycle,
dataflow-ordered issue constrained by per-port unit availability, fixed
op-class latencies, and unpipelined division/sqrt units.

The central entry point, :func:`steady_state_cycles`, measures the
asymptotic cycles-per-iteration of a loop body by scheduling several renamed
copies (virtually unrolled iterations) and differencing completion times —
this captures loop-carried dependency chains (e.g. a scalar reduction
accumulator serialising on FMA latency) that a naive latency sum misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..machines import CPUDescriptor
from ..obs.tracer import current_tracer
from .ops import UNPIPELINED, MachineOp

__all__ = ["ScheduleResult", "schedule_ops", "steady_state_cycles"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a straight-line op sequence."""

    total_cycles: float
    ipc: float
    port_cycles: Mapping[str, float]  # busy-cycles consumed per port class
    issue_cycle: tuple[float, ...]  # per-op issue times (for diagnostics)

    def pressure(self, cpu: CPUDescriptor) -> dict[str, float]:
        """Per-port utilization fraction over the schedule length."""
        if self.total_cycles <= 0:
            return {p: 0.0 for p in self.port_cycles}
        out = {}
        for port, busy in self.port_cycles.items():
            units = cpu.ports.get(port, 1)
            out[port] = busy / (self.total_cycles * units)
        return out

    def bottleneck(self, cpu: CPUDescriptor) -> str:
        """The most contended port class (diagnostic, MCA-report style)."""
        pres = self.pressure(cpu)
        if not pres:
            return "none"
        return max(pres, key=pres.get)


def schedule_ops(
    ops: Sequence[MachineOp],
    cpu: CPUDescriptor,
    *,
    latency_of: Callable[[MachineOp], float] | None = None,
) -> ScheduleResult:
    """Schedule a straight-line sequence of machine ops.

    ``latency_of`` overrides per-op latency — the CPU timing simulator uses
    it to inject cache-aware load latencies while the analytical path keeps
    the descriptor's L1-hit numbers (the paper's no-cache-model abstraction).

    The model: ops dispatch in program order, at most ``dispatch_width`` per
    cycle; an op issues at the earliest cycle ≥ its dispatch cycle when all
    source vregs are ready and a unit of its port has a free slot;
    pipelined units accept one op per cycle per unit, unpipelined ones are
    busy for the op's full latency.
    """
    if latency_of is None:
        latency_of = lambda op: float(cpu.latency(op.opcode))  # noqa: E731

    ready: dict[int, float] = {}  # vreg -> cycle its value is available
    # port -> list of next-free cycles, one entry per unit
    unit_free: dict[str, list[float]] = {
        port: [0.0] * max(1, count) for port, count in cpu.ports.items()
    }
    port_busy: dict[str, float] = {}
    issue_times: list[float] = []
    finish = 0.0

    for idx, op in enumerate(ops):
        dispatch = idx // max(1, cpu.dispatch_width)
        operands = max(
            (ready.get(s, 0.0) for s in op.srcs), default=0.0
        )
        earliest = max(dispatch, operands)
        units = unit_free.setdefault(op.port, [0.0])
        # pick the unit that frees first
        unit_idx = min(range(len(units)), key=units.__getitem__)
        issue = max(earliest, units[unit_idx])
        lat = latency_of(op)
        occupancy = lat if op.opcode in UNPIPELINED else 1.0
        units[unit_idx] = issue + occupancy
        port_busy[op.port] = port_busy.get(op.port, 0.0) + occupancy
        if op.dest >= 0:
            ready[op.dest] = issue + lat
        issue_times.append(issue)
        finish = max(finish, issue + lat)

    total = max(finish, 1.0) if ops else 0.0
    ipc = len(ops) / total if total > 0 else 0.0
    return ScheduleResult(
        total_cycles=total,
        ipc=ipc,
        port_cycles=dict(port_busy),
        issue_cycle=tuple(issue_times),
    )


def unroll(
    body: Sequence[MachineOp],
    copies: int,
    carried_regs: frozenset[int] = frozenset(),
) -> list[MachineOp]:
    """Concatenate ``copies`` renamed instances of ``body``.

    Registers in ``carried_regs`` are loop-carried: a copy's reads of such a
    register see the previous copy's (renamed) write, creating the serial
    dependency chain of, e.g., a scalar reduction.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    max_reg = max((op.dest for op in body), default=-1)
    max_src = max((max(op.srcs, default=-1) for op in body), default=-1)
    base = max(max_reg, max_src) + 1

    out: list[MachineOp] = []
    # carried register id -> vreg currently holding its live value
    live: dict[int, int] = {r: r for r in carried_regs}
    for c in range(copies):
        offset = base * (c + 1)
        local_map: dict[int, int] = {}

        def rename_src(s: int) -> int:
            if s in local_map:
                return local_map[s]
            if s in carried_regs:
                return live[s]
            return s if c == 0 else s + offset - base  # region-invariant reg
        for op in body:
            srcs = tuple(rename_src(s) for s in op.srcs)
            dest = op.dest
            if dest >= 0:
                new_dest = dest if c == 0 else dest + offset
                local_map[dest] = new_dest
                if dest in carried_regs:
                    live[dest] = new_dest
                dest = new_dest
            out.append(MachineOp(op.opcode, dest, srcs, op.tag))
    return out


def steady_state_cycles(
    body: Sequence[MachineOp],
    cpu: CPUDescriptor,
    *,
    carried_regs: frozenset[int] = frozenset(),
    warmup: int = 4,
    measure: int = 16,
    latency_of: Callable[[MachineOp], float] | None = None,
) -> float:
    """Asymptotic cycles per iteration of ``body`` under the scoreboard.

    Schedules ``warmup + measure`` renamed copies in one pass and
    differences the schedule length after ``warmup`` copies from the
    length after all of them, eliminating pipeline fill effects.
    ``latency_of`` must depend on an op's ``(opcode, tag)`` only, which
    every renamed copy shares: it is evaluated once per body op.
    """
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    if measure < 1:
        raise ValueError(f"measure must be >= 1, got {measure}")
    if not body:
        return 0.0
    if latency_of is None:
        latencies = [float(cpu.latency(op.opcode)) for op in body]
    else:
        latencies = [float(latency_of(op)) for op in body]
    tracer = current_tracer()
    if not tracer.enabled:
        return _steady_state(body, cpu, carried_regs, warmup, measure, latencies)
    with tracer.span("mca.steady_state", ops=len(body), cpu=cpu.name) as sp:
        cycles = _steady_state(body, cpu, carried_regs, warmup, measure, latencies)
        sp.set("cycles_per_iter", cycles)
        return cycles


# How a source register of a body op is renamed in unrolled copy ``c``
# (see :func:`unroll`); each kind maps to the offset added to the register.
_LOCAL = 0  # defined earlier in the body: this copy's definition
_CARRIED = 1  # loop-carried, defined in the body: the previous copy's one
_PINNED = 2  # loop-carried, never defined: always the register itself
_INVARIANT = 3  # anything else: the register shifted by ``base * c``


def _steady_state(
    body: Sequence[MachineOp],
    cpu: CPUDescriptor,
    carried_regs: frozenset[int],
    warmup: int,
    measure: int,
    latencies: Sequence[float],
) -> float:
    """Schedule ``unroll(body, warmup + measure)`` in one scoreboard pass.

    The body becomes a table of (port, latency, occupancy, dest, sources)
    rows built once; each copy then renames registers by integer offsets
    that follow :func:`unroll` exactly, including its quirk that copy 1
    reads a non-carried register ``s`` defined later in the body as
    ``s + base``, which no copy defines.  The short schedule length is read at the
    ``warmup``-copy boundary of the same pass.  That equals scheduling
    ``unroll(body, warmup)`` separately: the greedy in-order scoreboard
    never lets a later op change an earlier op's issue cycle, and
    ``unroll(body, warmup)`` is a prefix of ``unroll(body, warmup +
    measure)``.
    """
    base = max(
        max((op.dest for op in body), default=-1),
        max((max(op.srcs, default=-1) for op in body), default=-1),
    ) + 1
    port_index: dict[str, int] = {}
    units: list[list[float]] = []  # per port: each unit's next free cycle
    carried_defined = {
        op.dest for op in body if op.dest >= 0 and op.dest in carried_regs
    }
    defined: set[int] = set()
    table = []
    for op, lat in zip(body, latencies):
        port = port_index.get(op.port)
        if port is None:
            port = port_index[op.port] = len(units)
            units.append([0.0] * max(1, cpu.ports.get(op.port, 1)))
        srcs = []
        for s in op.srcs:
            if s in defined:
                kind = _LOCAL
            elif s in carried_regs:
                kind = _CARRIED if s in carried_defined else _PINNED
            else:
                kind = _INVARIANT
            srcs.append((s, kind))
        occupancy = lat if op.opcode in UNPIPELINED else 1.0
        table.append((port, lat, occupancy, op.dest, tuple(srcs)))
        if op.dest >= 0:
            defined.add(op.dest)

    width = max(1, cpu.dispatch_width)
    ready: dict[int, float] = {}  # renamed vreg -> cycle its value is available
    finish = 0.0
    short = 0.0
    idx = 0
    for c in range(warmup + measure):
        if c == warmup:
            short = max(finish, 1.0)
        dest_shift = base * (c + 1) if c else 0
        offsets = (dest_shift, base * c if c > 1 else 0, 0, base * c)
        for port, lat, occupancy, dest, srcs in table:
            earliest = idx // width  # the op's dispatch cycle
            idx += 1
            for s, kind in srcs:
                t = ready.get(s + offsets[kind], 0.0)
                if t > earliest:
                    earliest = t
            free = units[port]
            first_free = min(free)
            unit = free.index(first_free)
            issue = first_free if first_free > earliest else earliest
            free[unit] = issue + occupancy
            done = issue + lat
            if dest >= 0:
                ready[dest + dest_shift] = done
            if done > finish:
                finish = done
    long = max(finish, 1.0)
    return max((long - short) / measure, 0.05)
