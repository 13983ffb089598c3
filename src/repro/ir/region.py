"""Target regions and the builder DSL.

A :class:`Region` is the IR image of an OpenMP ``target`` construct: the unit
that is outlined by the compiler, duplicated into a CPU-parallel and a GPU
version, analysed statically, and dispatched by the runtime.

The builder API writes kernels close to their C form.  GEMM::

    r = Region("gemm")
    ni, nj, nk = r.param_tuple("ni", "nj", "nk")
    A = r.array("A", (ni, nk))
    B = r.array("B", (nk, nj))
    C = r.array("C", (ni, nj), inout=True)
    alpha, beta = r.scalars("alpha", "beta")
    with r.parallel_loop("i", ni) as i:
        with r.loop("j", nj) as j:
            acc = r.local("acc", C[i, j] * beta)
            with r.loop("k", nk) as k:
                r.assign(acc, acc + alpha * A[i, k] * B[k, j])
            r.store(C[i, j], acc)
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..symbolic import EvalError, Expr, as_expr
from .nodes import (
    Array,
    Cmp,
    If,
    IterVar,
    Load,
    LocalAssign,
    LocalDef,
    LocalRef,
    Loop,
    Param,
    ScalarArg,
    Select,
    Stmt,
    Store,
    Un,
    VExpr,
    _as_value,
    _lift,
)
from .types import DType, f32

__all__ = [
    "Region",
    "evaluate_transfer_bytes",
    "sqrt",
    "expv",
    "absv",
    "select",
    "cmp",
    "minv",
    "maxv",
]


def sqrt(x: VExpr) -> VExpr:
    """Square root of a value expression (CORR's standard deviation)."""
    return Un("sqrt", _as_value(x))


def expv(x: VExpr) -> VExpr:
    """Exponential of a value expression."""
    return Un("exp", _as_value(x))


def absv(x: VExpr) -> VExpr:
    """Absolute value of a value expression."""
    return Un("abs", _as_value(x))


def minv(a: VExpr, b: VExpr) -> VExpr:
    """Elementwise minimum value expression."""
    from .nodes import Bin

    return Bin("min", _as_value(a), _as_value(b))


def maxv(a: VExpr, b: VExpr) -> VExpr:
    """Elementwise maximum value expression."""
    from .nodes import Bin

    return Bin("max", _as_value(a), _as_value(b))


def cmp(op: str, lhs: VExpr, rhs: VExpr) -> Cmp:
    """Build a comparison predicate for :func:`select` or ``Region.if_``."""
    return Cmp(op, _as_value(lhs), _as_value(rhs))


def select(cond: Cmp, if_true: VExpr, if_false: VExpr) -> Select:
    """Ternary value: ``cond ? if_true : if_false``."""
    return Select(cond, _as_value(if_true), _as_value(if_false))


@dataclass
class Region:
    """An outlined OpenMP target region (a parallel loop nest kernel)."""

    name: str
    arrays: dict[str, Array] = field(default_factory=dict)
    params:_ParamTable = None  # type: ignore[assignment]
    scalar_args: dict[str, ScalarArg] = field(default_factory=dict)
    body: list[Stmt] = field(default_factory=list)

    def __post_init__(self):
        self.params = _ParamTable()
        self._stack: list[list[Stmt]] = [self.body]
        self._local_counter = 0
        self._ivars: dict[str, IterVar] = {}

    # -- declarations ------------------------------------------------------
    def param(self, name: str) -> Param:
        """Declare a symbolic integer parameter (extent/trip count)."""
        p = Param(name)
        self.params.add(p)
        return p

    def param_tuple(self, *names: str) -> tuple[Param, ...]:
        """Declare several parameters at once."""
        return tuple(self.param(n) for n in names)

    def array(
        self,
        name: str,
        shape: tuple,
        dtype: DType = f32,
        *,
        inout: bool = False,
        output: bool = False,
    ) -> Array:
        """Declare an array operand.

        ``output=True`` → written only (transferred device→host);
        ``inout=True`` → read and written (transferred both ways).
        """
        if name in self.arrays:
            raise ValueError(f"array {name!r} already declared")
        shape_exprs = tuple(_lift(s) for s in shape)
        arr = Array(
            name,
            shape_exprs,
            dtype,
            is_input=not output,
            is_output=output or inout,
        )
        self.arrays[name] = arr
        return arr

    def scalar(self, name: str, dtype: DType = f32) -> ScalarArg:
        """Declare a scalar kernel argument (e.g. ``alpha``)."""
        if name in self.scalar_args:
            raise ValueError(f"scalar {name!r} already declared")
        s = ScalarArg(name, dtype)
        self.scalar_args[name] = s
        return s

    def scalars(self, *names: str, dtype: DType = f32) -> tuple[ScalarArg, ...]:
        """Declare several scalar arguments at once."""
        return tuple(self.scalar(n, dtype) for n in names)

    # -- structured construction -------------------------------------------
    @contextlib.contextmanager
    def loop(self, var: str, count, *, start=0, parallel: bool = False) -> Iterator[IterVar]:
        """Open a (sequential by default) counted loop as a context manager."""
        if var in self._ivars:
            raise ValueError(f"induction variable {var!r} already in scope")
        iv = IterVar(var)
        self._ivars[var] = iv
        node = Loop(iv, _lift(count), [], start=_lift(start), parallel=parallel)
        self._emit(node)
        self._stack.append(node.body)
        try:
            yield iv
        finally:
            self._stack.pop()
            del self._ivars[var]

    def parallel_loop(self, var: str, count, *, start=0):
        """Open a work-shared (``parallel for``) loop."""
        return self.loop(var, count, start=start, parallel=True)

    @contextlib.contextmanager
    def if_(self, cond: Cmp) -> Iterator[None]:
        """Open a conditional; statements emitted inside go to the then-branch."""
        node = If(cond, [], [])
        self._emit(node)
        self._stack.append(node.then_body)
        try:
            yield
        finally:
            self._stack.pop()

    # -- statement emission --------------------------------------------------
    def local(self, name: str, init, dtype: DType = f32) -> LocalRef:
        """Define a thread-local scalar with an initial value; returns a ref."""
        self._local_counter += 1
        unique = f"{name}.{self._local_counter}"
        self._emit(LocalDef(unique, _as_value(init), dtype))
        return LocalRef(unique, dtype)

    def assign(self, ref: LocalRef, value) -> None:
        """Assign a new value to a local scalar (reduction updates)."""
        if not isinstance(ref, LocalRef):
            raise TypeError("assign() target must be a LocalRef")
        self._emit(LocalAssign(ref.name, _as_value(value)))

    def store(self, load: Load, value) -> None:
        """Emit ``array[idxs] = value``; the target is written as ``A[i, j]``."""
        if not isinstance(load, Load):
            raise TypeError("store() target must be an array element A[i, j]")
        self._emit(Store(load.array, load.idxs, _as_value(value)))

    def reduce_store(self, load: Load, value, op: str = "add") -> None:
        """Emit a band-wide reduction ``array[idxs] ⊕= value``.

        The target index must not depend on any parallel band variable —
        all work items combine into the same cell (OpenMP's
        ``reduction(⊕: x)``).
        """
        from .nodes import ReduceStore

        if not isinstance(load, Load):
            raise TypeError("reduce_store() target must be an array element")
        band_vars = {
            lp.var.name
            for body in [self.body]
            for lp in _band_of(body)
        }
        for idx in load.idxs:
            if idx.free_symbols() & band_vars:
                raise ValueError(
                    "reduction target index must not depend on band variables"
                )
        self._emit(ReduceStore(load.array, load.idxs, _as_value(value), op))

    def _emit(self, stmt: Stmt) -> None:
        self._stack[-1].append(stmt)

    # -- queries --------------------------------------------------------------
    def parallel_band(self) -> list[Loop]:
        """The outermost contiguous run of parallel loops (the thread space)."""
        band: list[Loop] = []
        body = self.body
        while len(body) == 1 and isinstance(body[0], Loop) and body[0].parallel:
            band.append(body[0])
            body = body[0].body
        if not band:
            raise ValueError(f"region {self.name!r} has no outer parallel loop")
        return band

    def parallel_iterations(self) -> Expr:
        """Symbolic total number of parallel work items (collapsed extent)."""
        total: Expr = as_expr(1)
        for lp in self.parallel_band():
            total = total * lp.count
        return total

    def transfer_bytes(self, env: Mapping[str, int]) -> tuple[int, int]:
        """(host→device, device→host) bytes for the region's arrays.

        Raises :class:`KeyError` naming the region and the unbound extent
        symbols when ``env`` is incomplete, and :class:`ValueError` when a
        binding makes an array's byte count negative.
        """
        to_dev = 0
        to_host = 0
        for arr in self.arrays.values():
            nbytes = evaluate_transfer_bytes(
                self.name, arr.name, arr.byte_count(), env
            )
            if arr.is_input:
                to_dev += nbytes
            if arr.is_output:
                to_host += nbytes
        return to_dev, to_host

    def free_symbols(self) -> frozenset[str]:
        """All symbol names the region depends on (parameters)."""
        syms: set[str] = set()

        def walk_stmts(stmts: list[Stmt], bound: set[str]) -> None:
            for s in stmts:
                if isinstance(s, Loop):
                    syms.update(s.count.free_symbols() - bound)
                    syms.update(s.start.free_symbols() - bound)
                    walk_stmts(s.body, bound | {s.var.name})
                elif isinstance(s, If):
                    walk_stmts(s.then_body, bound)
                    walk_stmts(s.else_body, bound)
                elif isinstance(s, Store):
                    for idx in s.idxs:
                        syms.update(idx.free_symbols() - bound)
                    _value_syms(s.value, bound, syms)
                elif isinstance(s, (LocalDef, LocalAssign)):
                    v = s.init if isinstance(s, LocalDef) else s.value
                    _value_syms(v, bound, syms)

        walk_stmts(self.body, set())
        for arr in self.arrays.values():
            for dim in arr.shape:
                syms.update(dim.free_symbols())
        return frozenset(syms)

    def __repr__(self) -> str:
        return f"Region({self.name!r}, arrays={list(self.arrays)}, params={self.params.names()})"


def evaluate_transfer_bytes(
    region_name: str,
    array_name: str,
    nbytes: Expr,
    env: Mapping[str, int],
) -> int:
    """Evaluate a symbolic transfer byte count with actionable failures.

    Shared by the declared pricing (:meth:`Region.transfer_bytes`) and the
    inferred pricing (:meth:`repro.ir.dataflow.RegionDataflow.transfer_bytes`)
    so both fail identically on incomplete or nonsensical bindings.  The
    expression's symbols are walked only when evaluation fails, to name
    the unbound ones.
    """
    try:
        total = int(nbytes.evaluate(env))
    except EvalError:
        missing = nbytes.free_symbols() - set(env)
        if not missing:
            raise
        raise KeyError(
            f"region {region_name!r}: transfer sizing of array "
            f"{array_name!r} needs unbound symbols {sorted(missing)}"
        ) from None
    if total < 0:
        raise ValueError(
            f"region {region_name!r}: array {array_name!r} transfer size "
            f"is negative ({total} bytes) — check the extent bindings"
        )
    return total


def _value_syms(v: VExpr, bound: set[str], out: set[str]) -> None:
    for node in v.walk():
        if isinstance(node, Load):
            for idx in node.idxs:
                out.update(idx.free_symbols() - bound)


def _band_of(body) -> list:
    """The outermost contiguous parallel band of a statement list."""
    from .nodes import Loop

    band = []
    while len(body) == 1 and isinstance(body[0], Loop) and body[0].parallel:
        band.append(body[0])
        body = body[0].body
    return band


class _ParamTable:
    """Ordered registry of region parameters."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, p: Param) -> None:
        if p.name in self._params:
            raise ValueError(f"parameter {p.name!r} already declared")
        self._params[p.name] = p

    def names(self) -> list[str]:
        return list(self._params)

    def __iter__(self):
        return iter(self._params.values())

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)
