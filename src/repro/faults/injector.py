"""Deterministic, seeded fault injection for the simulated devices.

A :class:`FaultInjector` holds an ordered plan of triggers; the resilient
dispatch layer asks it before every accelerator attempt whether that
attempt faults.  Three trigger families cover the scenarios the
experiments score:

* **probability** — ``ProbabilisticFault``: each attempt faults with a
  fixed probability drawn from the injector's seeded RNG (flaky bus,
  occasional ECC hiccup);
* **footprint** — ``FootprintOOM``: the region's device footprint exceeds
  the device memory (or an explicit cap), a *deterministic* OOM;
* **schedule** — ``ScheduledFault`` / ``DeadDevice``: fault on launch #k
  (or every launch), the reproducible regression cases.

Everything is replayable: the same seed and the same sequence of
``check`` calls yield the same faults.  Randomness is **stream-isolated**
per ``(trigger stream label, device)``: each trigger draws from its own
:func:`~repro.util.derive_rng` substream, so adding a trigger to a plan
(or a chaos schedule to a replay) never reshuffles the draws an existing
trigger sees — golden fault sequences survive plan composition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from ..ir import Region
from ..util.rng import derive_rng
from .errors import (
    DeviceError,
    DeviceMemoryError,
    TransferError,
    TransientDeviceError,
)

__all__ = [
    "LaunchContext",
    "FaultEvent",
    "FaultTrigger",
    "ProbabilisticFault",
    "FootprintOOM",
    "ScheduledFault",
    "DeadDevice",
    "FaultInjector",
    "FAULT_SCENARIOS",
    "scenario_by_name",
    "region_footprint_bytes",
]


def region_footprint_bytes(region: Region, env: Mapping[str, int]) -> int:
    """Device-resident bytes for a region launch (each mapped array once)."""
    return sum(
        int(arr.element_count().evaluate(env)) * arr.dtype.size
        for arr in region.arrays.values()
    )


@dataclass(frozen=True)
class LaunchContext:
    """What the injector knows about one accelerator dispatch attempt."""

    device_name: str
    kind: str  # "cpu" | "gpu"
    launch_index: int  # per-device dispatch ordinal (0-based)
    attempt: int  # 1-based attempt number within this launch
    footprint_bytes: int
    memory_bytes: int | None  # device memory capacity (None = unknown)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in launch provenance."""

    device_name: str
    launch_index: int
    attempt: int
    error_type: str
    message: str


class FaultTrigger(Protocol):
    """One rule of a fault plan."""

    def check(self, ctx: LaunchContext, rng: random.Random) -> DeviceError | None:
        """Return the fault this attempt suffers, or None."""
        ...


def _matches(device: str | None, ctx: LaunchContext) -> bool:
    return device is None or device in ctx.device_name


def _make(error: type[DeviceError], message: str, ctx: LaunchContext) -> DeviceError:
    return error(
        message,
        device_name=ctx.device_name,
        launch_index=ctx.launch_index,
        attempt=ctx.attempt,
    )


@dataclass(frozen=True)
class ProbabilisticFault:
    """Each matching attempt faults with probability ``probability``."""

    error: type[DeviceError] = TransferError
    probability: float = 0.1
    device: str | None = None  # substring of the device name; None = any

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def check(self, ctx: LaunchContext, rng: random.Random) -> DeviceError | None:
        if not _matches(self.device, ctx):
            return None
        if rng.random() >= self.probability:
            return None
        return _make(
            self.error,
            f"injected {self.error.__name__} (p={self.probability:g})",
            ctx,
        )


@dataclass(frozen=True)
class FootprintOOM:
    """OOM when the region footprint exceeds the device memory.

    ``limit_bytes`` overrides the device capacity (useful to model a card
    shared with other tenants).
    """

    limit_bytes: int | None = None
    device: str | None = None

    def check(self, ctx: LaunchContext, rng: random.Random) -> DeviceError | None:
        if not _matches(self.device, ctx):
            return None
        limit = self.limit_bytes if self.limit_bytes is not None else ctx.memory_bytes
        if limit is None or ctx.footprint_bytes <= limit:
            return None
        return _make(
            DeviceMemoryError,
            f"footprint {ctx.footprint_bytes} B exceeds usable "
            f"device memory {limit:.0f} B",
            ctx,
        )


@dataclass(frozen=True)
class ScheduledFault:
    """Fault on specific launch ordinals (and optionally specific attempts).

    ``attempts=None`` faults every retry of the scheduled launches (so the
    launch deterministically exhausts its budget and falls back);
    ``attempts=(1,)`` faults only the first try (so the retry succeeds).
    """

    error: type[DeviceError] = TransientDeviceError
    launches: tuple[int, ...] = ()
    attempts: tuple[int, ...] | None = None
    device: str | None = None

    def check(self, ctx: LaunchContext, rng: random.Random) -> DeviceError | None:
        if not _matches(self.device, ctx):
            return None
        if ctx.launch_index not in self.launches:
            return None
        if self.attempts is not None and ctx.attempt not in self.attempts:
            return None
        return _make(
            self.error,
            f"scheduled {self.error.__name__} on launch #{ctx.launch_index}",
            ctx,
        )


@dataclass(frozen=True)
class DeadDevice:
    """Every attempt on the matching device fails (card fell off the bus)."""

    error: type[DeviceError] = TransientDeviceError
    device: str | None = None

    def check(self, ctx: LaunchContext, rng: random.Random) -> DeviceError | None:
        if not _matches(self.device, ctx):
            return None
        return _make(self.error, "device is dead", ctx)


class FaultInjector:
    """An ordered fault plan plus the seeded RNG streams that drive it.

    The first trigger that fires wins.  ``events`` accumulates every
    injected fault (the runtime also records them per launch);
    ``reset()`` rewinds the RNG streams so the identical plan can be
    replayed.

    Each trigger draws from an independent substream keyed by its
    ``stream_label`` (default: the trigger's class name) and the device
    the attempt targets, so a trigger's draw sequence depends only on the
    injector seed and the attempts *it* examines — never on how many
    other triggers the plan carries or how often they draw.
    """

    def __init__(self, triggers: Sequence[FaultTrigger] = (), *, seed: int = 0):
        self.triggers = tuple(triggers)
        self.seed = seed
        self._streams: dict[tuple[str, str], random.Random] = {}
        self.events: list[FaultEvent] = []

    @property
    def enabled(self) -> bool:
        return bool(self.triggers)

    def reset(self) -> None:
        """Rewind to the initial state (same seed => same fault sequence)."""
        self._streams.clear()
        self.events.clear()

    def stream(self, trigger: FaultTrigger, device_name: str) -> random.Random:
        """The trigger's isolated RNG substream for one device."""
        label = getattr(trigger, "stream_label", None) or type(trigger).__name__
        key = (label, device_name)
        rng = self._streams.get(key)
        if rng is None:
            rng = self._streams[key] = derive_rng(self.seed, label, device_name)
        return rng

    def check(self, ctx: LaunchContext) -> DeviceError | None:
        """Return the fault this attempt suffers under the plan, if any."""
        for trigger in self.triggers:
            err = trigger.check(ctx, self.stream(trigger, ctx.device_name))
            if err is not None:
                self.events.append(
                    FaultEvent(
                        device_name=ctx.device_name,
                        launch_index=ctx.launch_index,
                        attempt=ctx.attempt,
                        error_type=type(err).__name__,
                        message=str(err),
                    )
                )
                return err
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(type(t).__name__ for t in self.triggers)
        return f"FaultInjector([{names}], seed={self.seed})"


#: The scenario grid `bench_faults` scores every policy against.
FAULT_SCENARIOS = ("fault-free", "flaky-transfer", "oom-prone", "dead-gpu")


def scenario_by_name(name: str, *, seed: int = 0) -> FaultInjector:
    """Build one of the named fault scenarios.

    * ``fault-free``      — empty plan (the control arm);
    * ``flaky-transfer``  — 25% of attempts lose a DMA (retryable);
    * ``oom-prone``       — only 256 MiB of device memory is usable, plus
      a 5% transient hiccup rate (mixed deterministic + stochastic);
    * ``dead-gpu``        — every accelerator attempt fails.
    """
    table: dict[str, tuple[FaultTrigger, ...]] = {
        "fault-free": (),
        "flaky-transfer": (ProbabilisticFault(TransferError, probability=0.25),),
        "oom-prone": (
            FootprintOOM(limit_bytes=256 << 20),
            ProbabilisticFault(TransientDeviceError, probability=0.05),
        ),
        "dead-gpu": (DeadDevice(),),
    }
    key = name.strip().lower()
    if key not in table:
        raise ValueError(
            f"unknown fault scenario {name!r}; known: {sorted(table)}"
        )
    return FaultInjector(table[key], seed=seed)
