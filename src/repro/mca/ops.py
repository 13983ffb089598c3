"""Machine-op representation used by the MCA scheduler.

A :class:`MachineOp` is one micro-operation with explicit register
dataflow — the unit the scoreboard schedules.  Opcodes are *op classes*
(keys into ``CPUDescriptor.latencies``), not a real ISA: like LLVM-MCA, the
analysis only needs latency, port binding and dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MachineOp", "OPCODE_PORT", "UNPIPELINED", "vector_opcode"]

#: Port class each op class issues to.
OPCODE_PORT: dict[str, str] = {
    "iadd": "FX",
    "imul": "FX",
    "cmp": "FX",
    "br": "BR",
    "load": "LS",
    "store": "LS",
    "vload": "LS",
    "vstore": "LS",
    "fadd": "FP",
    "fmul": "FP",
    "fma": "FP",
    "fdiv": "FP",
    "fsqrt": "FP",
    "fexp": "FP",
    "fmin": "FP",
    "fabs": "FP",
    "fneg": "FP",
    "fsel": "FP",
    "vfadd": "VSX",
    "vfmul": "VSX",
    "vfma": "VSX",
    "vfdiv": "VSX",
    "vfsqrt": "VSX",
    "vfsel": "VSX",
}

#: Op classes that occupy their unit for their full latency (no pipelining).
UNPIPELINED = frozenset({"fdiv", "fsqrt", "fexp", "vfdiv", "vfsqrt"})

_VECTOR_MAP = {
    "fadd": "vfadd",
    "fmul": "vfmul",
    "fma": "vfma",
    "fdiv": "vfdiv",
    "fsqrt": "vfsqrt",
    "fsel": "vfsel",
    "fmin": "vfadd",  # vector min issues like a vector add
    "fabs": "vfadd",
    "fneg": "vfadd",
    "load": "vload",
    "store": "vstore",
}


def vector_opcode(opcode: str) -> str:
    """The vector counterpart of a scalar op class (identity when none)."""
    return _VECTOR_MAP.get(opcode, opcode)


@dataclass(frozen=True)
class MachineOp:
    """One scheduled micro-op.

    ``dest`` is the virtual register this op defines (-1 when none, e.g.
    stores and branches); ``srcs`` are the vregs it must wait for.
    """

    opcode: str
    dest: int = -1
    srcs: tuple[int, ...] = field(default_factory=tuple)
    tag: str = ""  # provenance, e.g. "load A[i][k]" — used by reports

    def __post_init__(self):
        if self.opcode not in OPCODE_PORT:
            raise ValueError(f"unknown op class {self.opcode!r}")

    @property
    def port(self) -> str:
        return OPCODE_PORT[self.opcode]

    def __repr__(self) -> str:
        srcs = ",".join(f"v{s}" for s in self.srcs)
        dest = f"v{self.dest} = " if self.dest >= 0 else ""
        note = f"  ; {self.tag}" if self.tag else ""
        return f"{dest}{self.opcode} {srcs}{note}"
