"""Profile-guided model refinement (the Section IV.B extension).

The paper's static abstraction prices every loop at 128 iterations and
every branch at 50% taken, noting that "extending this model to include
profiling information could result in more accurate modelling at the cost
of adding the profiling step to the framework".  This module is that
extension: run a region functionally on a (small) training input, record
loop trip counts and branch outcomes, and feed the observations back into
the hybrid predictor.

Profiling complements — never replaces — the runtime-value feed of
Figure 2: trip counts that runtime values resolve exactly keep their
resolved values; profiling fills in what remains (data-dependent branches,
loops whose bounds are not plain parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .analysis import InstructionLoadout, PAPER_BRANCH_PROBABILITY, extract_loadout
from .analysis.tripcount import PAPER_LOOP_TRIPS, TripFn
from .ir import If, Loop, Region
from .sim import ExecutionProfile, allocate_arrays, execute_region
from .symbolic import EvalError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RegionProfile", "collect_profile", "profiled_trip_fn", "profiled_loadout"]


@dataclass(frozen=True)
class RegionProfile:
    """Profiling observations for one region on one training input."""

    region_name: str
    training_env: Mapping[str, int]
    profile: ExecutionProfile

    def mean_trips(self, loop: Loop) -> float | None:
        return self.profile.mean_trips(loop)

    def taken_fraction(self, if_stmt: If) -> float | None:
        return self.profile.taken_fraction(if_stmt)


def collect_profile(
    region: Region,
    training_env: Mapping[str, int],
    scalars: Mapping[str, float] | None = None,
    *,
    arrays: Mapping[str, np.ndarray] | None = None,
    seed: int = 0,
) -> RegionProfile:
    """Run the region functionally and record its dynamic behaviour.

    ``training_env`` should be a *small* input (the executor interprets
    element by element); the paper's caveat applies — profiling "is
    sensitive to the ability of selecting a collection of workloads that
    can reliably predict the runtime behaviour of future workloads".
    """
    if arrays is None:
        arrays = allocate_arrays(region, training_env, seed=seed)
    profile = ExecutionProfile()
    execute_region(region, arrays, scalars or {}, training_env, profile=profile)
    return RegionProfile(
        region_name=region.name,
        training_env=dict(training_env),
        profile=profile,
    )


def profiled_trip_fn(
    profile: RegionProfile,
    env: Mapping[str, float] | None = None,
    *,
    default: float = PAPER_LOOP_TRIPS,
) -> TripFn:
    """Trip function: runtime values first, then profile, then the 128s.

    When the training input and the launch input differ in size, observed
    trip counts are rescaled by the ratio of the loop bound evaluated at
    both sizes (when that is computable) — a loop profiled at 16 trips on
    an n=16 training run extrapolates to 9600 at n=9600.
    """
    env = dict(env or {})
    training = dict(profile.training_env)

    def trips(loop: Loop) -> float:
        # 1. exact runtime value
        try:
            return float(loop.count.evaluate(env))
        except EvalError:
            pass
        observed = profile.mean_trips(loop)
        if observed is None:
            return float(default)
        # 2. profile observation, rescaled across input sizes if possible
        try:
            at_training = float(loop.count.evaluate(training))
            at_launch = float(loop.count.evaluate({**training, **env}))
            if at_training > 0:
                return observed * (at_launch / at_training)
        except EvalError:
            pass
        return float(observed)

    return trips


def profiled_loadout(
    region: Region,
    profile: RegionProfile,
    env: Mapping[str, float] | None = None,
) -> InstructionLoadout:
    """Instruction loadout with profiled branch probabilities and trips."""

    def branch_probability(if_stmt: If) -> float:
        observed = profile.taken_fraction(if_stmt)
        return PAPER_BRANCH_PROBABILITY if observed is None else observed

    return extract_loadout(
        region,
        profiled_trip_fn(profile, env),
        branch_probability=branch_probability,
    )
