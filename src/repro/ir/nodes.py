"""IR node definitions.

The IR models exactly the program shape the paper studies: an OpenMP
``target`` region containing a loop nest whose outer loop(s) carry
``teams distribute parallel for`` semantics.  Two expression domains exist:

* **index expressions** — symbolic integers (:mod:`repro.symbolic`) over loop
  induction variables and region parameters; these drive IPDA;
* **value expressions** (:class:`VExpr`) — the floating-point dataflow of the
  loop body; these drive instruction-loadout analysis and MCA lowering.

All nodes are plain immutable dataclasses; structural passes walk them with
``isinstance`` dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from ..symbolic import Expr, NonAffineError, Sym, as_expr, decompose_affine
from .types import DType, f32

__all__ = [
    "Array",
    "Param",
    "IterVar",
    "VExpr",
    "ConstV",
    "ScalarArg",
    "LocalRef",
    "Load",
    "Bin",
    "Un",
    "Cmp",
    "Select",
    "Stmt",
    "Store",
    "ReduceStore",
    "LocalDef",
    "LocalAssign",
    "Loop",
    "If",
    "BIN_OPS",
    "UN_OPS",
    "CMP_OPS",
]

#: Binary value operators and the machine-op class each lowers to.
BIN_OPS = frozenset({"add", "sub", "mul", "div", "min", "max"})
#: Unary value operators.
UN_OPS = frozenset({"neg", "sqrt", "abs", "exp"})
#: Comparison predicates (produce booleans consumed by If/Select).
CMP_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})


@dataclass(frozen=True)
class Array:
    """A region-level array with a (possibly symbolic) shape.

    ``is_input``/``is_output`` determine host↔device transfer direction and
    volume; both True models an in/out array (e.g. ``C`` in GEMM).
    """

    name: str
    shape: tuple[Expr, ...]
    dtype: DType = f32
    is_input: bool = True
    is_output: bool = False

    def __getitem__(self, idxs) -> "Load":
        if not isinstance(idxs, tuple):
            idxs = (idxs,)
        if len(idxs) != len(self.shape):
            raise ValueError(
                f"array {self.name} has rank {len(self.shape)}, got "
                f"{len(idxs)} indices"
            )
        return Load(self, tuple(_as_index(i) for i in idxs))

    def flat_index(self, idxs: tuple[Expr, ...]) -> Expr:
        """Row-major flattened element index for a tuple of index exprs."""
        flat: Expr = as_expr(0)
        for d, idx in enumerate(idxs):
            stride: Expr = as_expr(1)
            for s in self.shape[d + 1 :]:
                stride = stride * s
            flat = flat + idx * stride
        return flat

    def element_count(self) -> Expr:
        """The symbolic element count, built once per array."""
        return self._element_count

    @cached_property
    def _element_count(self) -> Expr:
        count: Expr = as_expr(1)
        for s in self.shape:
            count = count * s
        return count

    def byte_count(self) -> Expr:
        """The symbolic size in bytes, built once per array."""
        return self._byte_count

    @cached_property
    def _byte_count(self) -> Expr:
        return self.element_count() * as_expr(self.dtype.size)

    def __repr__(self) -> str:
        dims = "][".join(repr(s) for s in self.shape)
        return f"{self.dtype} {self.name}[{dims}]"


@dataclass(frozen=True)
class Param:
    """A symbolic integer region parameter (array extent, trip count...)."""

    name: str

    @property
    def sym(self) -> Sym:
        return Sym(self.name)

    # index-expression algebra (delegates to the symbolic engine)
    def __add__(self, other):
        return self.sym + _lift(other)

    def __radd__(self, other):
        return _lift(other) + self.sym

    def __sub__(self, other):
        return self.sym - _lift(other)

    def __rsub__(self, other):
        return _lift(other) - self.sym

    def __mul__(self, other):
        return self.sym * _lift(other)

    def __rmul__(self, other):
        return _lift(other) * self.sym

    def __floordiv__(self, other):
        return self.sym // _lift(other)

    def __repr__(self) -> str:
        return f"param {self.name}"


class IterVar:
    """A loop induction variable, usable inside index expressions."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    @property
    def sym(self) -> Sym:
        return Sym(self.name)

    # index-expression algebra: delegate to the symbolic engine
    def __add__(self, other):
        return self.sym + _lift(other)

    def __radd__(self, other):
        return _lift(other) + self.sym

    def __sub__(self, other):
        return self.sym - _lift(other)

    def __rsub__(self, other):
        return _lift(other) - self.sym

    def __mul__(self, other):
        return self.sym * _lift(other)

    def __rmul__(self, other):
        return _lift(other) * self.sym

    def __repr__(self) -> str:
        return self.name


def _lift(x) -> Expr:
    """Lift IterVar/Param/number into the symbolic index domain."""
    if isinstance(x, IterVar):
        return x.sym
    if isinstance(x, Param):
        return x.sym
    return as_expr(x)


def _as_index(x) -> Expr:
    return _lift(x)


class _Access:
    """What a :class:`Load` and a :class:`Store` share: one array element.

    The flattened index and the per-variable strides depend on the access
    alone, so each is built once and kept on the (frozen) node, outside
    its equality and repr.
    """

    __slots__ = ()

    def flat_index(self) -> Expr:
        """Row-major flattened element index of this access."""
        return self._flat_index

    @cached_property
    def _flat_index(self) -> Expr:
        return self.array.flat_index(self.idxs)  # type: ignore[attr-defined]

    def stride_along(self, var: str) -> Expr | None:
        """Element stride of :meth:`flat_index` along loop variable ``var``.

        ``None`` when the index is not affine in ``var``.
        """
        strides = self._strides
        if var not in strides:
            try:
                form = decompose_affine(self.flat_index(), frozenset({var}))
                strides[var] = form.coefficient(var)
            except NonAffineError:
                strides[var] = None
        return strides[var]

    @cached_property
    def _strides(self) -> dict[str, Expr | None]:
        return {}


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------


class VExpr:
    """Base class of value (dataflow) expressions, with operator sugar."""

    __slots__ = ()
    dtype: DType = f32

    def __add__(self, other):
        return Bin("add", self, _as_value(other))

    def __radd__(self, other):
        return Bin("add", _as_value(other), self)

    def __sub__(self, other):
        return Bin("sub", self, _as_value(other))

    def __rsub__(self, other):
        return Bin("sub", _as_value(other), self)

    def __mul__(self, other):
        return Bin("mul", self, _as_value(other))

    def __rmul__(self, other):
        return Bin("mul", _as_value(other), self)

    def __truediv__(self, other):
        return Bin("div", self, _as_value(other))

    def __rtruediv__(self, other):
        return Bin("div", _as_value(other), self)

    def __neg__(self):
        return Un("neg", self)

    def children(self) -> tuple["VExpr", ...]:
        return ()

    def walk(self) -> Iterator["VExpr"]:
        """Pre-order traversal of the value expression tree."""
        yield self
        for c in self.children():
            yield from c.walk()


def _as_value(x) -> VExpr:
    if isinstance(x, VExpr):
        return x
    if isinstance(x, (int, float)):
        return ConstV(float(x))
    raise TypeError(f"cannot use {x!r} as a value expression")


@dataclass(frozen=True, repr=False)
class ConstV(VExpr):
    """A floating-point literal in the dataflow."""

    value: float
    dtype: DType = f32

    def __repr__(self) -> str:
        return f"{self.value:g}"


@dataclass(frozen=True, repr=False)
class ScalarArg(VExpr):
    """A scalar kernel argument (e.g. ``alpha``, ``beta``)."""

    name: str
    dtype: DType = f32

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class LocalRef(VExpr):
    """A read of a thread-local scalar (register) defined by LocalDef."""

    name: str
    dtype: DType = f32

    def __repr__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True, repr=False)
class Load(_Access, VExpr):
    """A read of ``array[idxs]``; the memory instruction IPDA analyses."""

    array: Array
    idxs: tuple[Expr, ...]

    @property
    def dtype(self) -> DType:  # type: ignore[override]
        return self.array.dtype

    def __repr__(self) -> str:
        dims = "][".join(repr(i) for i in self.idxs)
        return f"{self.array.name}[{dims}]"


@dataclass(frozen=True, repr=False)
class Bin(VExpr):
    """Binary arithmetic node (``op`` in :data:`BIN_OPS`)."""

    op: str
    lhs: VExpr
    rhs: VExpr

    def __post_init__(self):
        if self.op not in BIN_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    @property
    def dtype(self) -> DType:  # type: ignore[override]
        return self.lhs.dtype

    def children(self) -> tuple[VExpr, ...]:
        return (self.lhs, self.rhs)

    def __repr__(self) -> str:
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}.get(self.op)
        if sym:
            return f"({self.lhs!r} {sym} {self.rhs!r})"
        return f"{self.op}({self.lhs!r}, {self.rhs!r})"


@dataclass(frozen=True, repr=False)
class Un(VExpr):
    """Unary arithmetic node (``op`` in :data:`UN_OPS`)."""

    op: str
    operand: VExpr

    def __post_init__(self):
        if self.op not in UN_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    @property
    def dtype(self) -> DType:  # type: ignore[override]
        return self.operand.dtype

    def children(self) -> tuple[VExpr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"{self.op}({self.operand!r})"


@dataclass(frozen=True, repr=False)
class Cmp(VExpr):
    """Comparison producing a boolean (consumed by :class:`If`/:class:`Select`)."""

    op: str
    lhs: VExpr
    rhs: VExpr

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison {self.op!r}")

    def children(self) -> tuple[VExpr, ...]:
        return (self.lhs, self.rhs)

    def __repr__(self) -> str:
        sym = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}
        return f"({self.lhs!r} {sym[self.op]} {self.rhs!r})"


@dataclass(frozen=True, repr=False)
class Select(VExpr):
    """Ternary ``cond ? if_true : if_false`` value."""

    cond: Cmp
    if_true: VExpr
    if_false: VExpr

    @property
    def dtype(self) -> DType:  # type: ignore[override]
        return self.if_true.dtype

    def children(self) -> tuple[VExpr, ...]:
        return (self.cond, self.if_true, self.if_false)

    def __repr__(self) -> str:
        return f"({self.cond!r} ? {self.if_true!r} : {self.if_false!r})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of statements."""

    __slots__ = ()


@dataclass(frozen=True, repr=False)
class Store(_Access, Stmt):
    """``array[idxs] = value`` — the memory write IPDA analyses."""

    array: Array
    idxs: tuple[Expr, ...]
    value: VExpr

    def __repr__(self) -> str:
        dims = "][".join(repr(i) for i in self.idxs)
        return f"{self.array.name}[{dims}] = {self.value!r}"


@dataclass(frozen=True, repr=False)
class ReduceStore(Store):
    """``array[idxs] ⊕= value`` combined across the whole parallel band.

    The IR image of OpenMP's ``reduction(⊕: x)`` clause: every work item
    contributes ``value``; the runtime privatizes per-thread partials and
    combines them after the band (priced by Liao's ``Reduction_c`` on the
    host and a block-tree + atomics on the device).  ``idxs`` must not
    depend on band variables.
    """

    op: str = "add"

    def __post_init__(self):
        if self.op not in _REDUCE_OPS:
            raise ValueError(f"unsupported reduction operator {self.op!r}")

    def __repr__(self) -> str:
        dims = "][".join(repr(i) for i in self.idxs)
        return f"reduce({self.op}) {self.array.name}[{dims}] = {self.value!r}"


#: Associative/commutative operators OpenMP reductions support here.
_REDUCE_OPS = frozenset({"add", "mul", "min", "max"})


@dataclass(frozen=True, repr=False)
class LocalDef(Stmt):
    """Definition of a thread-local scalar with an initial value."""

    name: str
    init: VExpr
    dtype: DType = f32

    def __repr__(self) -> str:
        return f"{self.dtype} %{self.name} = {self.init!r}"


@dataclass(frozen=True, repr=False)
class LocalAssign(Stmt):
    """Re-assignment of a thread-local scalar (e.g. a reduction update)."""

    name: str
    value: VExpr

    def __repr__(self) -> str:
        return f"%{self.name} = {self.value!r}"


@dataclass(repr=False)
class Loop(Stmt):
    """A counted loop ``for var in start .. start+count-1``.

    ``parallel=True`` marks an OpenMP work-shared dimension (part of the
    ``teams distribute parallel for`` band).  ``count`` may be symbolic.
    """

    var: IterVar
    count: Expr
    body: list[Stmt] = field(default_factory=list)
    start: Expr = field(default_factory=lambda: as_expr(0))
    parallel: bool = False

    def __repr__(self) -> str:
        kind = "parallel for" if self.parallel else "for"
        return f"{kind} {self.var.name} in [{self.start!r}, {self.start!r}+{self.count!r})"


@dataclass(repr=False)
class If(Stmt):
    """A conditional statement; the paper's models assume 50% taken."""

    cond: Cmp
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"if {self.cond!r}"
