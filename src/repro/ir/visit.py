"""Traversal helpers shared by analyses over the IR.

These walkers encode the loop-nest structure once so that analyses
(instruction loadout, IPDA, MCA lowering, executors) do not each reimplement
recursion over statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .nodes import If, Load, LocalAssign, LocalDef, Loop, Stmt, Store, VExpr
from .region import Region

__all__ = [
    "walk_statements",
    "iter_loops",
    "memory_accesses",
    "MemoryAccess",
]


def walk_statements(stmts: list[Stmt]) -> Iterator[Stmt]:
    """Pre-order traversal of all statements, descending into loops and ifs."""
    for s in stmts:
        yield s
        if isinstance(s, Loop):
            yield from walk_statements(s.body)
        elif isinstance(s, If):
            yield from walk_statements(s.then_body)
            yield from walk_statements(s.else_body)


def iter_loops(region: Region) -> Iterator[Loop]:
    """All loops of a region, outermost first."""
    for s in walk_statements(region.body):
        if isinstance(s, Loop):
            yield s


def count_reductions(region: Region) -> int:
    """Number of band-wide reduction statements (OpenMP reduction clauses)."""
    from .nodes import ReduceStore

    return sum(
        1 for s in walk_statements(region.body) if isinstance(s, ReduceStore)
    )


@dataclass(frozen=True)
class MemoryAccess:
    """A single static memory instruction: a load or a store.

    Attributes
    ----------
    array / idxs:
        The accessed array and its index expressions.
    is_store:
        Store vs load.
    loop_path:
        The enclosing loops from outermost to innermost; gives the iteration
        context (which induction variables are in scope, trip multipliers).
    cond_depth:
        Number of enclosing ``If`` statements (models the paper's 50%-taken
        execution-probability abstraction).
    """

    array: "object"
    idxs: tuple
    is_store: bool
    loop_path: tuple[Loop, ...]
    cond_depth: int
    #: The defining IR node (a Load VExpr or a Store statement).  Identity
    #: of this object links the access to its machine ops after lowering.
    node: object = None

    def flat_index(self):
        return self.node.flat_index()

    @property
    def dtype(self):
        return self.array.dtype

    def __repr__(self) -> str:
        kind = "store" if self.is_store else "load"
        dims = "][".join(repr(i) for i in self.idxs)
        return f"<{kind} {self.array.name}[{dims}]>"


def memory_accesses(region: Region) -> list[MemoryAccess]:
    """Enumerate every static load/store with its loop and branch context."""
    out: list[MemoryAccess] = []

    def visit_value(v: VExpr, path: tuple[Loop, ...], depth: int) -> None:
        for node in v.walk():
            if isinstance(node, Load):
                out.append(
                    MemoryAccess(node.array, node.idxs, False, path, depth, node)
                )

    def visit(stmts: list[Stmt], path: tuple[Loop, ...], depth: int) -> None:
        for s in stmts:
            if isinstance(s, Loop):
                visit(s.body, path + (s,), depth)
            elif isinstance(s, If):
                visit_value(s.cond, path, depth)
                visit(s.then_body, path, depth + 1)
                visit(s.else_body, path, depth + 1)
            elif isinstance(s, Store):
                visit_value(s.value, path, depth)
                out.append(MemoryAccess(s.array, s.idxs, True, path, depth, s))
            elif isinstance(s, LocalDef):
                visit_value(s.init, path, depth)
            elif isinstance(s, LocalAssign):
                visit_value(s.value, path, depth)
    visit(region.body, (), 0)
    return out

