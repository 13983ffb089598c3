"""Online misprediction detection: the drift sentinel.

The paper's framework is hybrid static + runtime, but its runtime half
trusts the analytical predictions unconditionally — a miscalibrated
machine model silently mis-routes every launch.  The sentinel closes the
predict→observe→correct loop: every launch contributes one observation of
``log(observed / predicted)`` per (device, region) stream, and each stream
runs

* an **EWMA** of the log-ratio (the stream's current multiplicative model
  error, whose exponential is the self-healing correction factor), and
* a two-sided **CUSUM** change detector over the residual relative to the
  stream's own warmup baseline (so *static* per-kernel model error — which
  the paper analyses and this reproduction deliberately preserves — is not
  flagged; only a *change* in the error structure is).

Verdicts are three-state:

* ``CALIBRATED`` — residuals within the CUSUM slack; the model is as
  trustworthy as it was at warmup;
* ``SUSPECT`` — the CUSUM statistic has left the noise floor but not yet
  crossed the decision threshold;
* ``DRIFTED`` — the threshold is crossed; corrections apply until the
  residuals recover for ``RECOVER_AFTER`` consecutive observations.

Everything is deterministic and observation-driven: with no drift the
residuals of a deterministic workload are ~0 and every stream stays
CALIBRATED forever, which is what keeps sentinel-on runs bit-identical to
sentinel-off runs (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "DriftState",
    "Ewma",
    "Cusum",
    "StreamStats",
    "DriftSentinel",
]


class DriftState(str, enum.Enum):
    CALIBRATED = "calibrated"
    SUSPECT = "suspect"
    DRIFTED = "drifted"


#: Tuning of the per-stream detectors; every runtime uses these values.
EWMA_ALPHA = 0.3  # weight of the newest log-ratio
WARMUP = 3  # observations used to anchor the baseline
CUSUM_K = 0.05  # slack per observation (log units)
CUSUM_H = 0.6  # decision threshold (log units)
SUSPECT_FRACTION = 0.5  # SUSPECT above CUSUM_H * SUSPECT_FRACTION
RECOVER_BAND = 0.1  # |residual| counted as recovered
RECOVER_AFTER = 4  # consecutive in-band residuals to re-promote
CORRECTION_CLAMP = 64.0  # corrections confined to [1/c, c]
MEASURED_ALPHA = 0.5  # EWMA weight for measured-seconds history


@dataclass(slots=True)
class Ewma:
    """Exponentially weighted moving average, seeded by the first sample."""

    alpha: float
    value: float = 0.0
    count: int = 0

    def update(self, x: float) -> float:
        if self.count == 0:
            self.value = x
        else:
            self.value += self.alpha * (x - self.value)
        self.count += 1
        return self.value


@dataclass(slots=True)
class Cusum:
    """Two-sided CUSUM change detector (Page's test).

    ``pos`` accumulates upward shifts, ``neg`` downward ones; each step
    sheds the slack ``k``, so a zero-mean residual stream decays both
    sides back to zero.  ``tripped`` when either side exceeds ``h``.
    """

    k: float
    h: float
    pos: float = 0.0
    neg: float = 0.0

    def update(self, x: float) -> bool:
        self.pos = max(0.0, self.pos + x - self.k)
        self.neg = max(0.0, self.neg - x - self.k)
        return self.tripped

    @property
    def statistic(self) -> float:
        return max(self.pos, self.neg)

    @property
    def tripped(self) -> bool:
        return self.statistic > self.h

    def reset(self) -> None:
        self.pos = self.neg = 0.0


class StreamStats:
    """Rolling predicted-vs-observed statistics for one (device, region)."""

    def __init__(self, device: str, region: str):
        self.device = device
        self.region = region
        self.state = DriftState.CALIBRATED
        self.observations = 0  # valid (finite, positive) observations
        self.baseline: float | None = None  # mean warmup log-ratio
        self.ratio_ewma = Ewma(EWMA_ALPHA)
        #: EWMA of |log-ratio - ratio_ewma|: how *unstable* the model
        #: error is.  A stable bias is fixable by a multiplicative
        #: correction; an unstable one is not (see healing.py).
        self.instability = Ewma(EWMA_ALPHA)
        self.cusum = Cusum(CUSUM_K, CUSUM_H)
        self.measured = Ewma(MEASURED_ALPHA)  # observed seconds
        self._warmup_sum = 0.0
        self._recover_streak = 0
        self.drift_count = 0  # CALIBRATED/SUSPECT -> DRIFTED transitions

    def observe(self, predicted: float, observed: float) -> DriftState:
        """Feed one launch's prediction/measurement pair; return the verdict.

        Non-finite or non-positive pairs carry no ratio information (a
        failed launch measures no useful time) and are ignored.  A finite,
        positive pair whose quotient underflows to 0.0 or overflows to
        inf takes its log-ratio as ``log(observed) - log(predicted)``, so
        every field stays finite.

        One pass over the stream's state: the three EWMA steps, the CUSUM
        step and its statistic are each computed once, with the same
        float expressions in the same order as :meth:`Ewma.update`,
        :meth:`Cusum.update` and :attr:`Cusum.statistic` (``max(0.0, v)``
        is ``v if v > 0.0 else 0.0``, which keeps NaN and ``-0.0`` the
        same), so the states are bit-identical to stepping those objects.
        """
        if not (
            math.isfinite(predicted)
            and math.isfinite(observed)
            and predicted > 0.0
            and observed > 0.0
        ):
            return self.state
        quotient = observed / predicted
        if 0.0 < quotient < math.inf:
            log_ratio = math.log(quotient)
        else:
            log_ratio = math.log(observed) - math.log(predicted)
        self.observations += 1
        ratio = self.ratio_ewma
        # the instability input reads the ratio EWMA before the ratio step
        spread = abs(log_ratio - ratio.value) if ratio.count else 0.0
        for ewma, x in (
            (self.instability, spread),
            (ratio, log_ratio),
            (self.measured, observed),
        ):
            if ewma.count == 0:
                ewma.value = x
            else:
                ewma.value += ewma.alpha * (x - ewma.value)
            ewma.count += 1
        if self.observations <= WARMUP:
            self._warmup_sum += log_ratio
            if self.observations == WARMUP:
                self.baseline = self._warmup_sum / WARMUP
            return self.state
        residual = log_ratio - (self.baseline or 0.0)
        cusum = self.cusum
        pos = cusum.pos + residual - cusum.k
        cusum.pos = pos = pos if pos > 0.0 else 0.0
        neg = cusum.neg - residual - cusum.k
        cusum.neg = neg = neg if neg > 0.0 else 0.0
        if self.state is DriftState.DRIFTED:
            # recovery is streak-based: the CUSUM statistic only decays by
            # k per observation, which would hold a long drift open far
            # past the point the residuals returned to baseline.
            if abs(residual) <= RECOVER_BAND:
                self._recover_streak += 1
                # the model looks right again — re-anchor so the applied
                # correction collapses to ~1 immediately instead of
                # decaying over several EWMA steps while mis-routing
                ratio.value = log_ratio
            else:
                self._recover_streak = 0
            if self._recover_streak >= RECOVER_AFTER:
                self.state = DriftState.CALIBRATED
                cusum.reset()
                self._recover_streak = 0
            return self.state
        statistic = neg if neg > pos else pos
        if statistic > cusum.h:
            self.state = DriftState.DRIFTED
            self.drift_count += 1
            self._recover_streak = 0
            # The CUSUM just certified a level shift: re-anchor the ratio
            # estimate on the shifted observation (so the correction is
            # usable immediately) and restart the instability estimator
            # (so the shift transient is not mistaken for an unstable
            # error — only *post-drift* scatter escalates to history mode).
            ratio.value = log_ratio
            self.instability = Ewma(EWMA_ALPHA)
        elif statistic > CUSUM_H * SUSPECT_FRACTION:
            self.state = DriftState.SUSPECT
        else:
            self.state = DriftState.CALIBRATED
        return self.state

    def correction(self) -> float:
        """Multiplicative fix for the stream's prediction (1.0 unless DRIFTED).

        The correction undoes the *shift* relative to the warmup baseline
        — ``exp(ewma - baseline)`` — not the full observed/predicted
        ratio: the static per-kernel model error captured by the baseline
        is part of the analytical model's accepted behaviour (both
        devices' predictions carry it, so it cancels in the comparison),
        and correcting only one side's static error would bias the
        selection toward that side.  Clamped so one absurd observation
        cannot blow up the selection.
        """
        if self.state is not DriftState.DRIFTED or self.ratio_ewma.count == 0:
            return 1.0
        shift = self.ratio_ewma.value - (self.baseline or 0.0)
        # exp overflows past ~709.78; any shift past 700 clamps alike
        return min(
            max(math.exp(min(shift, 700.0)), 1.0 / CORRECTION_CLAMP),
            CORRECTION_CLAMP,
        )

    def measured_seconds(self) -> float | None:
        """Recent observed seconds (None before any valid observation)."""
        return self.measured.value if self.measured.count else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamStats({self.device!r}, {self.region!r}, "
            f"{self.state.value}, n={self.observations}, "
            f"ratio=e^{self.ratio_ewma.value:.3f}, "
            f"cusum={self.cusum.statistic:.3f})"
        )


class DriftSentinel:
    """Per-(device, region) drift detection across a runtime's launches.

    The runtime feeds ``observe`` after every launch and reads the
    stream's verdict change off its (before, after) return; selection-time
    consumers (the self-healing selector, the accelerator ranking) read
    ``state``/``correction``.

    When a ``clock`` is attached (the runtimes wire their own
    :class:`~repro.runtime.clock.SimulatedClock` in automatically),
    every state change is appended to ``transitions`` with the simulated
    timestamp it happened at — the raw material for time-to-detect /
    time-to-recover scoring in the traffic replay harness.
    """

    def __init__(self, *, clock=None):
        self.clock = clock  # anything with a .now attribute (seconds), or None
        self.streams: dict[tuple[str, str], StreamStats] = {}
        #: (sim time, device, region, old state, new state) per edge.
        self.transitions: list[tuple[float, str, str, DriftState, DriftState]] = []
        #: streams outside CALIBRATED, counted on the edges ``observe``
        #: sees (a stream starts CALIBRATED and changes state only there)
        self.flagged = 0

    def stream(self, device: str, region: str) -> StreamStats:
        key = (device, region)
        stream = self.streams.get(key)
        if stream is None:
            stream = self.streams[key] = StreamStats(device, region)
        return stream

    def observe(
        self, device: str, region: str, predicted: float, observed: float
    ) -> tuple[DriftState, DriftState]:
        """Feed one observation to a stream; return its (before, after) states."""
        stream = self.streams.get((device, region))
        if stream is None:
            stream = self.stream(device, region)
        before = stream.state
        state = stream.observe(predicted, observed)
        if state is not before:
            if before is DriftState.CALIBRATED:
                self.flagged += 1
            elif state is DriftState.CALIBRATED:
                self.flagged -= 1
            if self.clock is not None:
                self.transitions.append(
                    (self.clock.now, device, region, before, state)
                )
        return before, state

    def state(self, device: str, region: str) -> DriftState:
        stream = self.streams.get((device, region))
        return stream.state if stream else DriftState.CALIBRATED

    def correction(self, device: str, region: str) -> float:
        stream = self.streams.get((device, region))
        return stream.correction() if stream else 1.0

    def measured(self, device: str, region: str) -> float | None:
        stream = self.streams.get((device, region))
        return stream.measured_seconds() if stream else None

    def instability(self, device: str, region: str) -> float:
        stream = self.streams.get((device, region))
        return stream.instability.value if stream else 0.0

    def any_drifted(self) -> bool:
        return any(
            s.state is DriftState.DRIFTED for s in self.streams.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        drifted = sum(
            1 for s in self.streams.values() if s.state is DriftState.DRIFTED
        )
        return f"DriftSentinel({len(self.streams)} streams, {drifted} drifted)"
