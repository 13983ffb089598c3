"""Correctness passes: races, undeclared reductions, index bounds.

These decide whether a region is *safe to offload at all*: a cross-thread
write conflict that a fork-join CPU schedule happens to mask will corrupt
results (or worse) under a 100k-thread GPU schedule, so their findings
are errors.

Diagnostic codes
----------------

========  ========================================================
RACE001   cross-iteration write-write conflict inside the band
RACE002   cross-iteration read-write conflict inside the band
RACE003   dependence test was inconclusive (potential race)
RED001    reduction accumulated with a plain store
BND001    index can be negative
BND002    index can exceed the declared extent
BND003    declared array extent is not positive
BND004    loop trip count is not positive (dead loop)
========  ========================================================
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..ir.nodes import Load, Loop, ReduceStore, Store
from ..ir.visit import MemoryAccess
from ..symbolic import (
    Const,
    Expr,
    NonAffineError,
    decompose_affine,
    definitely_negative,
    sign_of,
)
from .dependence import Verdict, cross_thread_conflict
from .diagnostics import Diagnostic, Severity
from .passes import LintContext, LintPass

__all__ = [
    "BoundsPass",
    "RaceDetectionPass",
    "UndeclaredReductionPass",
    "is_reduction_like",
]

RACE_WW = "RACE001"
RACE_RW = "RACE002"
RACE_UNDECIDED = "RACE003"
RED_PLAIN_STORE = "RED001"
BND_NEGATIVE = "BND001"
BND_OVERRUN = "BND002"
BND_BAD_EXTENT = "BND003"
BND_DEAD_LOOP = "BND004"


def is_reduction_like(store: Store) -> bool:
    """Does ``store`` read back the cell it writes (``A[x] = A[x] op ...``)?

    ReduceStore excluded: that is the *declared* form of the same pattern.
    """
    if isinstance(store, ReduceStore) or not isinstance(store, Store):
        return False
    for node in store.value.walk():
        if (
            isinstance(node, Load)
            and node.array.name == store.array.name
            and tuple(node.idxs) == tuple(store.idxs)
        ):
            return True
    return False


def _in_band(access: MemoryAccess) -> bool:
    return any(lp.parallel for lp in access.loop_path)


class RaceDetectionPass(LintPass):
    """Cross-thread dependence testing over every same-array access pair.

    For each array, every store is paired against every store (itself
    included — one static store still races when two *iterations* hit one
    element) and against every load.  ReduceStores are excluded (the
    reduction clause serialises the combine).  A reduction-like store
    (``A[x] = A[x] op ...``) still participates — an in-place stencil races
    against its *neighbour* reads — but its self-pair and its read-back of
    the written cell belong to the undeclared-reduction pass, so each root
    cause yields exactly one diagnostic.
    """

    name = "race"
    codes = (RACE_WW, RACE_RW, RACE_UNDECIDED)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if not ctx.band_vars:
            return []
        out: list[Diagnostic] = []
        seen: set[tuple] = set()
        by_array: dict[str, list[MemoryAccess]] = {}
        for acc in ctx.accesses:
            if _in_band(acc):
                by_array.setdefault(acc.array.name, []).append(acc)

        for arr_name, group in by_array.items():
            stores = [
                a
                for a in group
                if a.is_store and not isinstance(a.node, ReduceStore)
            ]
            loads = [a for a in group if not a.is_store]
            pairs = [
                (stores[i], stores[j], True)
                for i in range(len(stores))
                for j in range(i, len(stores))
                if not (i == j and is_reduction_like(stores[i].node))
            ]
            pairs += [
                (s, l, False)
                for s in stores
                for l in loads
                if not (
                    is_reduction_like(s.node)
                    and tuple(l.idxs) == tuple(s.idxs)
                )
            ]
            for a, b, both_stores in pairs:
                pv = cross_thread_conflict(a, b, ctx.band_vars, ctx.extents)
                if pv.verdict == Verdict.INDEPENDENT:
                    continue
                key = (pv.verdict, both_stores, ctx.path_of(a), ctx.path_of(b))
                if key in seen:
                    continue
                seen.add(key)
                pair_desc = (
                    f"{a!r} vs {b!r}" if a is not b else f"{a!r} across iterations"
                )
                if pv.verdict == Verdict.CONFLICT:
                    code = RACE_WW if both_stores else RACE_RW
                    kind = "write-write" if both_stores else "read-write"
                    out.append(
                        self.make(
                            ctx,
                            code,
                            Severity.ERROR,
                            f"{kind} race on {arr_name!r}: {pair_desc}; {pv.detail}",
                            path=ctx.path_of(a),
                            hint=(
                                "make the written cells thread-distinct, or "
                                "serialise the conflicting loop"
                            ),
                        )
                    )
                else:
                    out.append(
                        self.make(
                            ctx,
                            RACE_UNDECIDED,
                            Severity.WARNING,
                            f"possible race on {arr_name!r}: {pair_desc}; "
                            f"{pv.detail}",
                            path=ctx.path_of(a),
                            hint="simplify the index expressions to affine form",
                        )
                    )
        return out


class UndeclaredReductionPass(LintPass):
    """``A[x] = A[x] op f(i)`` written with a plain store inside the band.

    When the dependence test cannot prove the written cells thread-distinct,
    the pattern is an accumulation racing across threads and must be
    declared via ``Region.reduce_store`` (OpenMP's ``reduction`` clause).
    """

    name = "reduction"
    codes = (RED_PLAIN_STORE,)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        if not ctx.band_vars:
            return []
        out: list[Diagnostic] = []
        for acc in ctx.accesses:
            if not acc.is_store or not _in_band(acc):
                continue
            if not is_reduction_like(acc.node):
                continue
            pv = cross_thread_conflict(acc, acc, ctx.band_vars, ctx.extents)
            if pv.verdict == Verdict.INDEPENDENT:
                continue
            out.append(
                self.make(
                    ctx,
                    RED_PLAIN_STORE,
                    Severity.ERROR,
                    f"reduction into {acc.array.name!r} uses a plain store; "
                    f"threads race on the accumulator ({pv.detail})",
                    path=ctx.path_of(acc),
                    hint="declare it with Region.reduce_store(..., op=...)",
                )
            )
        return out


class BoundsPass(LintPass):
    """Static index-range checking against the declared array shapes.

    Each index dimension is reduced to its extreme values by substituting
    loop variables with their start / last-iteration bounds (innermost
    first, so triangular bounds referencing outer variables resolve).  A
    finding is emitted only when the violation is *provable* — either
    symbolically under the positive-parameter assumption, or numerically
    when an ``env`` binds the parameters.
    """

    name = "bounds"
    codes = (BND_NEGATIVE, BND_OVERRUN, BND_BAD_EXTENT, BND_DEAD_LOOP)

    def run(self, ctx: LintContext) -> Iterable[Diagnostic]:
        out: list[Diagnostic] = []
        for arr in ctx.region.arrays.values():
            for d, dim in enumerate(arr.shape):
                n = dim.constant_value()
                if n is not None and n <= 0:
                    out.append(
                        self.make(
                            ctx,
                            BND_BAD_EXTENT,
                            Severity.ERROR,
                            f"array {arr.name!r} dimension {d} has "
                            f"non-positive extent {n:g}",
                            path=(f"array {arr.name}",),
                        )
                    )
        for var, lp in ctx.loops.items():
            n = lp.count.constant_value()
            if n is not None and n <= 0:
                out.append(
                    self.make(
                        ctx,
                        BND_DEAD_LOOP,
                        Severity.WARNING,
                        f"loop {var!r} has non-positive trip count {n:g}; "
                        "its body never executes",
                        path=(f"for {var}",),
                    )
                )

        for acc in ctx.accesses:
            if acc.array.name not in ctx.region.arrays:
                continue  # structural pass owns undeclared arrays
            for d, (idx, extent) in enumerate(zip(acc.idxs, acc.array.shape)):
                lo = _extreme(idx, acc.loop_path, maximize=False)
                hi = _extreme(idx, acc.loop_path, maximize=True)
                if lo is not None and self._provably_negative(lo, ctx.env):
                    out.append(
                        self.make(
                            ctx,
                            BND_NEGATIVE,
                            Severity.ERROR,
                            f"index {d} of {acc.array.name!r} reaches "
                            f"{lo!r} < 0 (index expression {idx!r})",
                            path=ctx.path_of(acc),
                            hint="offset the loop start or the index expression",
                        )
                    )
                if hi is None:
                    continue
                slack = extent - Const(1) - hi
                if self._provably_negative(slack, ctx.env):
                    out.append(
                        self.make(
                            ctx,
                            BND_OVERRUN,
                            Severity.ERROR,
                            f"index {d} of {acc.array.name!r} reaches {hi!r} "
                            f"but the extent is {extent!r} "
                            f"(index expression {idx!r})",
                            path=ctx.path_of(acc),
                            hint="shrink the loop range or grow the array",
                        )
                    )
        return out

    @staticmethod
    def _provably_negative(expr: Expr, env: Mapping[str, int] | None) -> bool:
        if definitely_negative(expr):
            return True
        if env and expr.free_symbols() <= set(env):
            return expr.evaluate(env) < 0
        return False


def _extreme(expr: Expr, loop_path: tuple[Loop, ...], *, maximize: bool) -> Expr | None:
    """Extreme value of ``expr`` over the iteration space, or ``None``.

    Substitutes innermost variables first so bounds that reference outer
    variables (triangular nests) collapse before those variables resolve.
    Gives up (``None``) on non-affine indices or sign-unknown coefficients.
    """
    for lp in reversed(loop_path):
        v = lp.var.name
        try:
            form = decompose_affine(expr, frozenset({v}))
        except NonAffineError:
            return None
        coeff = form.coeffs.get(v)
        if coeff is None:
            continue
        sign = sign_of(coeff)
        first = lp.start
        last = lp.start + lp.count - Const(1)
        if sign.is_nonnegative:
            rep = last if maximize else first
        elif sign.is_nonpositive:
            rep = first if maximize else last
        else:
            return None
        expr = form.const + coeff * rep
    return expr
