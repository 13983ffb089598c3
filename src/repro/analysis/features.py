"""Instruction-loadout feature extraction (Section IV.B).

Counts the *dynamic* instructions one thread executes for one parallel work
item, grouped into compute and I/O categories as the paper describes.  IR
instructions stand in for native micro-instructions — "given the closed
nature of the true GPU assembly ISA, this serves as a good estimate."

Counts are parameterized by a trip function so the same walk serves both
the static abstraction (every loop = 128 iterations, branches 50%) and the
runtime-accurate view.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .tripcount import PAPER_BRANCH_PROBABILITY, TripFn

__all__ = ["InstructionLoadout", "AccessWeight", "LoadoutPlan", "extract_loadout"]

#: Op classes billed to the special-function path (GPU SFU / CPU long ops).
_SFU_BIN = frozenset({"div"})
_SFU_UN = frozenset({"sqrt", "exp"})


@dataclass(frozen=True)
class AccessWeight:
    """Dynamic execution count of one static memory access, per work item.

    ``access_index`` aligns with the order of
    :func:`repro.ir.memory_accesses`, which is also the order IPDA reports
    strides in — the GPU model joins the two to weight coalesced versus
    uncoalesced traffic.
    """

    access_index: int
    array_name: str
    is_store: bool
    weight: float
    elem_bytes: int


@dataclass(frozen=True)
class InstructionLoadout:
    """Per-work-item dynamic instruction counts.

    All numbers are *per iteration of the collapsed parallel band* (one
    OpenMP work item / one GPU thread repetition).
    """

    region_name: str
    fp_insts: float
    int_insts: float
    sfu_insts: float
    load_insts: float
    store_insts: float
    access_weights: tuple[AccessWeight, ...]
    branch_insts: float

    @property
    def mem_insts(self) -> float:
        return self.load_insts + self.store_insts

    @property
    def comp_insts(self) -> float:
        """The Hong model's #Comp_insts: everything that is not memory."""
        return self.fp_insts + self.int_insts + self.sfu_insts + self.branch_insts

    @property
    def total_insts(self) -> float:
        return self.comp_insts + self.mem_insts

    def arithmetic_intensity(self) -> float:
        """FP operations per byte moved (a memory-boundedness indicator)."""
        bytes_moved = sum(w.weight * w.elem_bytes for w in self.access_weights)
        if bytes_moved == 0:
            return float("inf")
        return self.fp_insts / bytes_moved


#: multiplier kinds of a :class:`LoadoutPlan` slot
_LOOP, _THEN, _ELSE = 0, 1, 2


@dataclass(frozen=True)
class LoadoutPlan:
    """:func:`extract_loadout` compiled once per region.

    The walk below the parallel band becomes data, in walk order:

    * ``slots`` — execution multipliers.  Slot 0 is the work item (1.0);
      each later slot is ``(parent slot, kind, index)``: its parent times
      the trip count of ``loops[index]``, or times the taken (``_THEN``)
      or not-taken (``_ELSE``) probability of ``branches[index]``;
    * ``terms`` — per op class (fp, int, sfu, loads, stores, branches),
      the monomials it sums: ``(slot, loop, scale)`` is the slot's
      multiplier, times ``scale`` × that loop's trips when ``scale`` is
      non-zero (loop control);
    * ``accesses`` — ``(slot, array, is_store, elem_bytes)`` per memory
      access, in :func:`repro.ir.memory_accesses` order.

    :meth:`evaluate` multiplies and sums in the walk's own order, so a
    loadout is bit-identical to counting the IR directly.
    """

    region_name: str
    loops: tuple[Loop, ...]
    branches: tuple[If, ...]
    slots: tuple[tuple[int, int, int], ...]
    terms: tuple[tuple[tuple[int, int, int], ...], ...]
    accesses: tuple[tuple[int, str, bool, int], ...]

    @classmethod
    def of(cls, region: Region) -> "LoadoutPlan":
        return _Compiler(region).plan()

    def evaluate(
        self,
        trip_of: TripFn,
        *,
        branch_probability=PAPER_BRANCH_PROBABILITY,
    ) -> InstructionLoadout:
        """The loadout under one trip function (see :func:`extract_loadout`)."""
        trips = [trip_of(loop) for loop in self.loops]
        if callable(branch_probability):
            probs = [branch_probability(b) for b in self.branches]
        else:
            probs = [branch_probability] * len(self.branches)
        mults = [1.0]
        for parent, kind, index in self.slots:
            mult = mults[parent]
            if kind == _LOOP:
                mults.append(mult * trips[index])
            elif kind == _THEN:
                mults.append(mult * probs[index])
            else:
                mults.append(mult * (1.0 - probs[index]))
        sums = []
        for monomials in self.terms:
            total = 0.0
            for slot, loop, scale in monomials:
                if scale:
                    total += scale * trips[loop] * mults[slot]
                else:
                    total += mults[slot]
            sums.append(total)
        fp, int_, sfu, loads, stores, branches = sums
        return InstructionLoadout(
            region_name=self.region_name,
            fp_insts=fp,
            int_insts=int_,
            sfu_insts=sfu,
            load_insts=loads,
            store_insts=stores,
            access_weights=tuple(
                AccessWeight(i, name, is_store, mults[slot], elem_bytes)
                for i, (slot, name, is_store, elem_bytes) in enumerate(
                    self.accesses
                )
            ),
            branch_insts=branches,
        )


#: positions of the op classes in ``LoadoutPlan.terms``
_FP, _INT, _SFU, _LOAD, _STORE, _BRANCH = range(6)


class _Compiler:
    """One walk below the band, recording what a count would add where."""

    def __init__(self, region: Region):
        self.region = region
        self.loops: list[Loop] = []
        self.branches: list[If] = []
        self.slots: list[tuple[int, int, int]] = []
        self.terms: list[list[tuple[int, int, int]]] = [[] for _ in range(6)]
        self.accesses: list[tuple[int, str, bool, int]] = []

    def plan(self) -> LoadoutPlan:
        band = self.region.parallel_band()
        self.stmts(band[-1].body, 0)
        return LoadoutPlan(
            region_name=self.region.name,
            loops=tuple(self.loops),
            branches=tuple(self.branches),
            slots=tuple(self.slots),
            terms=tuple(tuple(t) for t in self.terms),
            accesses=tuple(self.accesses),
        )

    def slot(self, parent: int, kind: int, index: int) -> int:
        self.slots.append((parent, kind, index))
        return len(self.slots)

    def add(self, cls: int, slot: int, loop: int = -1, scale: int = 0) -> None:
        self.terms[cls].append((slot, loop, scale))

    def value(self, v: VExpr, slot: int) -> None:
        if isinstance(v, (ConstV, ScalarArg, LocalRef)):
            return
        if isinstance(v, Load):
            self.add(_LOAD, slot)
            self.accesses.append((slot, v.array.name, False, v.array.dtype.size))
            # address computation
            self.add(_INT, slot)
            return
        if isinstance(v, Bin):
            self.value(v.lhs, slot)
            self.value(v.rhs, slot)
            self.add(_SFU if v.op in _SFU_BIN else _FP, slot)
            return
        if isinstance(v, Un):
            self.value(v.operand, slot)
            self.add(_SFU if v.op in _SFU_UN else _FP, slot)
            return
        if isinstance(v, Cmp):
            self.value(v.lhs, slot)
            self.value(v.rhs, slot)
            self.add(_INT, slot)
            return
        if isinstance(v, Select):
            self.value(v.cond, slot)
            self.value(v.if_true, slot)
            self.value(v.if_false, slot)
            self.add(_FP, slot)  # the select itself
            return
        raise TypeError(f"cannot count {type(v).__name__}")  # pragma: no cover

    def stmts(self, body: list[Stmt], slot: int) -> None:
        for s in body:
            if isinstance(s, Loop):
                loop = len(self.loops)
                self.loops.append(s)
                # loop control: one increment + one compare+branch per trip
                self.add(_INT, slot, loop, 2)
                self.add(_BRANCH, slot, loop, 1)
                self.stmts(s.body, self.slot(slot, _LOOP, loop))
            elif isinstance(s, If):
                self.value(s.cond, slot)
                self.add(_BRANCH, slot)
                branch = len(self.branches)
                self.branches.append(s)
                self.stmts(s.then_body, self.slot(slot, _THEN, branch))
                self.stmts(s.else_body, self.slot(slot, _ELSE, branch))
            elif isinstance(s, Store):
                self.value(s.value, slot)
                self.add(_STORE, slot)
                self.add(_INT, slot)  # address computation
                if isinstance(s, ReduceStore):
                    self.add(_FP, slot)  # the per-contribution combine op
                self.accesses.append((slot, s.array.name, True, s.array.dtype.size))
            elif isinstance(s, LocalDef):
                self.value(s.init, slot)
            elif isinstance(s, LocalAssign):
                self.value(s.value, slot)
            else:  # pragma: no cover - validator precludes this
                raise TypeError(f"cannot count {type(s).__name__}")


def extract_loadout(
    region: Region,
    trip_of: TripFn,
    *,
    branch_probability=PAPER_BRANCH_PROBABILITY,
) -> InstructionLoadout:
    """Count per-work-item dynamic instructions below the parallel band.

    The walk starts *inside* the innermost band loop: parallel iterations
    are work items, so their multiplicity is carried by grid geometry /
    thread counts, not by the loadout.  ``branch_probability`` is either
    the fixed 50% abstraction or a callable ``If -> probability`` supplied
    by profile-guided analysis.  A compiled record keeps its region's
    :class:`LoadoutPlan` and evaluates it directly.
    """
    return LoadoutPlan.of(region).evaluate(
        trip_of, branch_probability=branch_probability
    )
