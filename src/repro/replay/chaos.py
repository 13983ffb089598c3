"""Chaos schedules: clock-gated fault storms, brownouts, link and
hardware degradation for the traffic replay harness.

A :class:`ChaosSchedule` is a set of :class:`ChaosWindow` s, each binding
one disturbance to a simulated-time interval.  Fault-flavoured windows
compile to :class:`~repro.faults.FaultTrigger` s that consult the
runtime's own :class:`~repro.faults.SimulatedClock` (the replay engine
advances it to each launch's start time), so a window fires on exactly
the launches whose service overlaps it — no launch counting, no
wall-clock.  The hardware-drift flavour instead compiles to the
runtimes' ``time_dilation`` hook: inside the window the *actual*
simulated device seconds are scaled, which is a genuine mid-stream
hardware change (thermal throttling, a neighbour tenant) rather than a
model miscalibration — the drift sentinel has to notice it from the
residuals alone.

Every stochastic trigger carries a unique ``stream_label`` (its window
name), so its draws come from a private injector substream: two storms
in one schedule, or a storm added next to an existing brownout, never
reshuffle each other's fault sequences (see
:class:`~repro.faults.FaultInjector`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults import (
    DeviceError,
    FaultInjector,
    LaunchContext,
    SimulatedClock,
    TransferError,
    TransientDeviceError,
)

__all__ = [
    "CHAOS_KINDS",
    "ChaosWindow",
    "ChaosSchedule",
]

#: The disturbance flavours a window can carry.
CHAOS_KINDS = ("fault-storm", "brownout", "link-degraded", "hw-drift")


@dataclass(frozen=True)
class ChaosWindow:
    """One disturbance over one simulated-time interval.

    * ``fault-storm``   — each accelerator attempt inside the window
      faults (retryably) with ``probability``;
    * ``brownout``      — every accelerator attempt inside the window
      fails deterministically (the card browned out);
    * ``link-degraded`` — transfers fault with ``probability`` (a flaky
      interconnect: retryable, usually recovered within the budget);
    * ``hw-drift``      — device seconds are *actually* scaled by
      ``cpu_scale``/``gpu_scale`` while the window is open.
    """

    name: str
    kind: str
    start_s: float
    stop_s: float
    probability: float = 0.5  # storm / link fault rate per attempt
    cpu_scale: float = 1.0  # hw-drift only
    gpu_scale: float = 1.0  # hw-drift only
    device: str | None = None  # substring match; None = every accelerator

    def __post_init__(self):
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"kind must be one of {CHAOS_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.start_s < self.stop_s:
            raise ValueError("need 0 <= start_s < stop_s")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.cpu_scale <= 0 or self.gpu_scale <= 0:
            raise ValueError("drift scales must be positive")

    def active(self, now: float) -> bool:
        return self.start_s <= now < self.stop_s

    @property
    def duration_s(self) -> float:
        return self.stop_s - self.start_s


class _WindowedFault:
    """Clock-gated fault trigger for one storm/brownout/link window."""

    def __init__(
        self,
        window: ChaosWindow,
        clock: SimulatedClock,
        error: type[DeviceError],
        stochastic: bool,
    ):
        self.window = window
        self.clock = clock
        self.error = error
        self.stochastic = stochastic
        self.stream_label = f"chaos:{window.name}"

    def check(self, ctx: LaunchContext, rng) -> DeviceError | None:
        w = self.window
        if not w.active(self.clock.now):
            return None
        if w.device is not None and w.device not in ctx.device_name:
            return None
        # only in-window attempts draw, so the substream position depends
        # solely on the attempts this window examined
        if self.stochastic and rng.random() >= w.probability:
            return None
        return self.error(
            f"chaos window {w.name!r} ({w.kind}) "
            f"[{w.start_s:g}s, {w.stop_s:g}s)",
            device_name=ctx.device_name,
            launch_index=ctx.launch_index,
            attempt=ctx.attempt,
        )


@dataclass
class ChaosSchedule:
    """A set of windows, compiled onto one runtime's clock."""

    windows: tuple[ChaosWindow, ...] = ()
    seed: int = 0

    def __post_init__(self):
        names = [w.name for w in self.windows]
        if len(set(names)) != len(names):
            raise ValueError(f"window names must be unique, got {names}")

    @property
    def enabled(self) -> bool:
        return bool(self.windows)

    def fault_windows(self) -> tuple[ChaosWindow, ...]:
        return tuple(w for w in self.windows if w.kind != "hw-drift")

    def drift_windows(self) -> tuple[ChaosWindow, ...]:
        return tuple(w for w in self.windows if w.kind == "hw-drift")

    def build_injector(self, clock: SimulatedClock) -> FaultInjector | None:
        """The fault plan for this schedule (None when no fault windows)."""
        triggers = []
        for w in self.fault_windows():
            if w.kind == "fault-storm":
                triggers.append(
                    _WindowedFault(w, clock, TransientDeviceError, stochastic=True)
                )
            elif w.kind == "brownout":
                triggers.append(
                    _WindowedFault(w, clock, TransientDeviceError, stochastic=False)
                )
            else:  # link-degraded
                triggers.append(
                    _WindowedFault(w, clock, TransferError, stochastic=True)
                )
        if not triggers:
            return None
        return FaultInjector(triggers, seed=self.seed)

    def build_dilation(self, clock: SimulatedClock):
        """The ``time_dilation`` hook (None when no hw-drift windows)."""
        windows = self.drift_windows()
        if not windows:
            return None

        def dilation(kind: str) -> float:
            scale = 1.0
            now = clock.now
            for w in windows:
                if w.active(now):
                    scale *= w.cpu_scale if kind == "cpu" else w.gpu_scale
            return scale

        return dilation
