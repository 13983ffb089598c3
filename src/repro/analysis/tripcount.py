"""Trip-count abstractions.

The paper's static analysis "assumes all loops execute 128 iterations and
all conditional blocks execute half of the time" (Section IV.B).  The
runtime side of the hybrid framework can instead evaluate symbolic trip
counts once the parameters are known.  Both behaviours are expressed as
*trip functions* ``Loop -> float`` passed into feature extraction and MCA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..ir import If, Loop
from ..symbolic import EvalError

__all__ = [
    "PAPER_LOOP_TRIPS",
    "PAPER_BRANCH_PROBABILITY",
    "paper_trip_abstraction",
    "runtime_trips",
    "hybrid_trips",
    "nest_trips",
    "TripPlan",
]

#: The fixed inner-loop iteration count of the paper's abstraction.
PAPER_LOOP_TRIPS = 128

#: The assumed probability that a conditional block executes.
PAPER_BRANCH_PROBABILITY = 0.5

TripFn = Callable[[Loop], float]


def paper_trip_abstraction(loop: Loop) -> float:
    """Every loop executes exactly 128 iterations (the paper's assumption)."""
    return float(PAPER_LOOP_TRIPS)


def runtime_trips(env: Mapping[str, float]) -> TripFn:
    """Trip function that evaluates each loop's symbolic count under ``env``.

    Raises :class:`repro.symbolic.EvalError` when a needed parameter is
    unbound — by design: the simulator must never silently fall back.
    """

    def trips(loop: Loop) -> float:
        return float(loop.count.evaluate(env))

    return trips


def hybrid_trips(env: Mapping[str, float], *, default: float = PAPER_LOOP_TRIPS) -> TripFn:
    """Evaluate what the bindings allow; fall back to the 128 abstraction.

    This is what the paper's predictor actually sees at runtime: the
    parallel trip count arrives via the attribute database, but inner trip
    counts that were not instrumented keep the static assumption.
    """

    def trips(loop: Loop) -> float:
        try:
            return float(loop.count.evaluate(env))
        except EvalError:
            return float(default)

    return trips


def nest_trips(
    region,
    env: Mapping[str, float],
    *,
    default: float | None = None,
) -> TripFn:
    """Nest-aware trip counts supporting non-rectangular loops.

    A triangular loop (``for j2 in j1 .. m``) has a count that references
    an *outer* induction variable; its average trip count is recovered by
    binding each enclosing variable at the midpoint of its own range while
    walking the nest top-down.  Rectangular loops resolve exactly as with
    :func:`runtime_trips`.

    ``default=None`` is strict (unresolvable parameters raise
    :class:`EvalError`); a number reproduces the compile-time fallback of
    :func:`hybrid_trips`.  A compiled record keeps its region's
    :class:`TripPlan` and calls :meth:`TripPlan.trips` directly.
    """
    return TripPlan.of(region).trips(env, default=default)


@dataclass(frozen=True)
class TripPlan:
    """A region's loop nest compiled for :func:`nest_trips`.

    ``loops`` lists every loop in walk order (pre-order, then-branch before
    else-branch).  ``midpoints`` gives, per loop, the positions of the
    enclosing loops whose midpoints its count or start reads, outermost
    first; empty when they read only the region's parameters.  Per case,
    :meth:`trips` evaluates each loop's count once, in that order.
    """

    loops: tuple[Loop, ...]
    midpoints: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, region) -> "TripPlan":
        loops: list[Loop] = []
        midpoints: list[tuple[int, ...]] = []

        def walk(stmts, outer: tuple[int, ...]) -> None:
            for s in stmts:
                if isinstance(s, Loop):
                    reads = s.count.free_symbols() | s.start.free_symbols()
                    needed = any(loops[o].var.name in reads for o in outer)
                    midpoints.append(outer if needed else ())
                    loops.append(s)
                    walk(s.body, outer + (len(loops) - 1,))
                elif isinstance(s, If):
                    walk(s.then_body, outer)
                    walk(s.else_body, outer)

        walk(region.body, ())
        return cls(tuple(loops), tuple(midpoints))

    def trips(
        self, env: Mapping[str, float], *, default: float | None = None
    ) -> TripFn:
        """Each loop's trip count under ``env`` (see :func:`nest_trips`)."""
        counts: list[float] = []
        mids: list[float] = []
        for loop, outer in zip(self.loops, self.midpoints):
            bindings = env
            if outer:
                # an inner loop's midpoint shadows a same-named outer one
                bindings = {
                    **env,
                    **{self.loops[o].var.name: mids[o] for o in outer},
                }
            try:
                trips = max(0.0, float(loop.count.evaluate(bindings)))
                start = float(loop.start.evaluate(bindings))
                mid = start + trips / 2.0
            except EvalError:
                if default is None:
                    raise
                trips = float(default)
                mid = float(default) / 2.0
            counts.append(trips)
            mids.append(mid)
        loops = self.loops

        def trip_of(loop: Loop) -> float:
            for known, trips in zip(loops, counts):
                if known is loop:
                    return trips
            # a loop from another region: behave like runtime/hybrid trips
            try:
                return float(loop.count.evaluate(env))
            except EvalError:
                if default is None:
                    raise
                return float(default)

        return trip_of
