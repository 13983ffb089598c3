"""Self-healing target selection under model drift.

The runtime asks the model to choose between the host and one
accelerator (the first-ranked card; at N = 1 the only one).  When the
sentinel has flagged a drift stream, that host-or-card pick degrades
gracefully instead of trusting a broken prediction:

1. **corrected** — when the host's or the card's stream is DRIFTED, each
   side's prediction is multiplied by its stream's learned correction
   factor (``exp`` of the EWMA log-ratio), so a stable multiplicative
   miscalibration is simply divided back out;
2. **history** — when a DRIFTED stream's error is too *unstable* for a
   scalar correction (``instability`` above :data:`HISTORY_INSTABILITY`),
   selection falls back to measured history: pick the side that has
   actually been faster lately;
3. **re-promotion** — once the stream's residuals recover the sentinel
   returns it to CALIBRATED and selection reverts to the pure model.

A hysteresis dead-band around the break-even point prevents
flip-flopping: while the corrected (or measured) costs are within
:data:`HYSTERESIS_BAND` of each other, the previous pick for that region
is held.  Streams and picks are named by device label: the kind
(``cpu``/``gpu``) on a one-accelerator platform, the device name on a
multi-accelerator one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sentinel import DriftSentinel, DriftState

__all__ = [
    "DriftDecision",
    "SelfHealingSelector",
]

#: relative dead-band around break-even inside which the previous pick holds
HYSTERESIS_BAND = 0.05
#: stream instability (log-units) above which history mode replaces correction
HISTORY_INSTABILITY = 0.35


@dataclass(frozen=True)
class DriftDecision:
    """Drift provenance stamped on a launch record.

    Only stamped when something is actually off (any stream not
    CALIBRATED); fully calibrated launches leave no trace, keeping them
    bit-identical to sentinel-off runs.  ``cpu``/``gpu`` name the two
    sides the ladder compared: the host and the card.
    """

    mode: str  # "model" | "corrected" | "history"
    model_target: str  # label of the raw model's pick
    target: str  # label of the healed pick
    cpu_state: str  # DriftState values of the host's and the card's streams
    gpu_state: str
    #: (device label, DriftState value) of every stream not CALIBRATED
    flags: tuple[tuple[str, str], ...]
    correction_cpu: float = 1.0
    correction_gpu: float = 1.0
    held: bool = False  # hysteresis held the previous decision

    @property
    def overrode(self) -> bool:
        """Did healing change the raw model's decision?"""
        return self.target != self.model_target


class SelfHealingSelector:
    """Wraps the sentinel's verdicts into a final host-or-card pick.

    ``labels`` names every device's drift stream, the host first.
    """

    def __init__(self, sentinel: DriftSentinel, labels: tuple[str, ...]):
        self.sentinel = sentinel
        self.labels = tuple(labels)
        self._last: dict[str, str] = {}  # region -> label of the previous pick

    def decide(self, region: str, prediction, card: str) -> DriftDecision | None:
        """Heal one selection; None while every stream is CALIBRATED.

        ``prediction`` is any object with ``cpu.seconds``, ``gpu.seconds``
        and ``winner`` (a :class:`~repro.models.SelectionPrediction`),
        predicted for the host and the accelerator labelled ``card``.
        """
        sentinel = self.sentinel
        if not sentinel.flagged:
            return None  # every stream is CALIBRATED: nothing to look up
        flags: tuple[tuple[str, str], ...] = ()
        for label in self.labels:
            state = sentinel.state(label, region)
            if state is not DriftState.CALIBRATED:
                flags += ((label, state.value),)
        if not flags:
            return None

        host = self.labels[0]
        cpu_state = sentinel.state(host, region)
        gpu_state = sentinel.state(card, region)
        model_target = card if prediction.winner == "gpu" else host
        corr_cpu = sentinel.correction(host, region)
        corr_gpu = sentinel.correction(card, region)
        drifted = DriftState.DRIFTED in (cpu_state, gpu_state)
        mode = "corrected" if drifted else "model"
        if mode == "corrected" and (
            self._too_unstable(host, region, cpu_state)
            or self._too_unstable(card, region, gpu_state)
        ):
            mode = "history"

        held = False
        if mode == "model":
            # SUSPECT only, or only a stream outside this comparison
            # flagged: watch, but do not second-guess the model yet.
            target = model_target
        elif mode == "corrected":
            target, held = self._pick(
                region,
                host,
                prediction.cpu.seconds * corr_cpu,
                card,
                prediction.gpu.seconds * corr_gpu,
                model_target,
            )
        else:
            m_cpu = sentinel.measured(host, region)
            m_gpu = sentinel.measured(card, region)
            if m_cpu is None or m_gpu is None:
                # not enough history to overrule anything yet
                mode, target = "corrected", model_target
            else:
                target, held = self._pick(
                    region, host, m_cpu, card, m_gpu, model_target
                )
        self._last[region] = target
        return DriftDecision(
            mode=mode,
            model_target=model_target,
            target=target,
            cpu_state=cpu_state.value,
            gpu_state=gpu_state.value,
            flags=flags,
            correction_cpu=corr_cpu,
            correction_gpu=corr_gpu,
            held=held,
        )

    def _too_unstable(self, label: str, region: str, state: DriftState) -> bool:
        return (
            state is DriftState.DRIFTED
            and self.sentinel.instability(label, region) > HISTORY_INSTABILITY
        )

    def _pick(
        self,
        region: str,
        host: str,
        host_cost: float,
        card: str,
        card_cost: float,
        model_target: str,
    ) -> tuple[str, bool]:
        """Lower cost wins, with a hysteresis dead-band at break-even.

        Inside the band the previous pick holds when it is one of the two
        devices compared.
        """
        if not (
            math.isfinite(host_cost)
            and math.isfinite(card_cost)
            and host_cost > 0.0
            and card_cost > 0.0
        ):
            return model_target, False
        if card_cost < host_cost * (1.0 - HYSTERESIS_BAND):
            return card, False
        if card_cost > host_cost * (1.0 + HYSTERESIS_BAND):
            return host, False
        previous = self._last.get(region)
        if previous in (host, card):
            return previous, True
        return (card if card_cost < host_cost else host), False

