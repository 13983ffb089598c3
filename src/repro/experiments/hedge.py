"""Hedged-dispatch experiment grid: deadline budgets x chaos flavour.

Not a paper artefact — the companion experiment to the ``hedged-chaos``
replay scenario (docs/ROBUSTNESS.md).  One seeded trace is calibrated
exactly as in :mod:`.replay`, then every (chaos flavour, budget) cell is
replayed **twice** — once with speculative host backups armed, once
without — over the identical request stream, policy memo, and chaos
schedule.  The only delta inside a cell is the
:class:`~repro.runtime.HedgePolicy`, so the chaos-tail comparison is
causal:

* **flavours** — ``fault-storm`` (75% retryable accelerator faults) and
  ``brownout`` (every accelerator attempt fails; the breaker opens):
  the two fault shapes where a backup can actually beat a primary that
  is burning retry backoff;
* **budgets**  — ``none`` (no deadline), ``tight`` and ``loose``
  end-to-end :class:`~repro.runtime.Budget` s, expressed in mean
  service times (:data:`BUDGET_FACTORS`).  Budgets charge queue wait,
  retry backoff, and watchdog burn; a request whose projected wait
  alone would drain its budget is shed at the door (``expired``).

Per cell the grid reports the hedge-rate, win-rate, duplicated-work
fraction, the chaos-affected p99 completion latency of both arms, and
both arms' expiry counts.  Gates (:attr:`HedgeCell.failures`): every
cell arms at least one backup and stays under
:data:`~.replay.MAX_HEDGE_EXTRA_FRACTION` duplicated work; the
unbudgeted cells must win at least once and strictly cut the
chaos-affected p99 vs their unhedged twin.  Budgeted cells gate only on
the overhead bound — expiry reshapes the tail on both arms, so the p99
delta is reported, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machines import PLATFORM_P9_V100, Platform
from ..replay import ReplayConfig, ReplayScore, score_run
from ..util import render_table
from .replay import MAX_HEDGE_EXTRA_FRACTION, MIN_HEDGE_WINS
from .traffic import calibrate

__all__ = [
    "BUDGET_FACTORS",
    "HEDGE_FLAVOURS",
    "HedgeCell",
    "HedgeResult",
    "run_hedge",
]

#: chaos flavours swept by the grid (window kinds of :mod:`repro.replay`)
HEDGE_FLAVOURS = ("fault-storm", "brownout")

#: budget sweep: per-request deadline in mean service times (None = no
#: deadline).  "tight" sits inside the burst-peak queueing delay so the
#: admission door visibly sheds; "loose" clears it so expiry is rare.
BUDGET_FACTORS: dict[str, float | None] = {
    "none": None,
    "tight": 50.0,
    "loose": 250.0,
}


@dataclass(frozen=True)
class HedgeCell:
    """One (flavour, budget) cell: hedged arm vs its unhedged twin."""

    flavour: str
    budget_label: str
    budget_s: float | None
    hedged: ReplayScore
    unhedged: ReplayScore

    @property
    def p99_improvement_s(self) -> float:
        """Chaos-affected p99 completion saved by hedging (+ = faster)."""
        return (
            self.unhedged.chaos_completion_p99_s
            - self.hedged.chaos_completion_p99_s
        )

    @property
    def failures(self) -> tuple[str, ...]:
        """Every check this cell fails, as human-readable strings."""
        h, name = self.hedged, f"{self.flavour}/{self.budget_label}"
        out = []
        if h.overhead_nonfinite:
            out.append(
                f"{name}: {h.overhead_nonfinite} nonfinite "
                "dispatch-overhead observations"
            )
        if not math.isfinite(h.overhead_p99_s):
            out.append(f"{name}: dispatch-overhead p99 not finite")
        # a hedge that never arms measures nothing; one that duplicates
        # more than the ceiling is a cost bug in any cell
        if h.hedged == 0:
            out.append(f"{name}: no backups armed")
        if h.hedge_extra_fraction > MAX_HEDGE_EXTRA_FRACTION:
            out.append(
                f"{name}: duplicated-work fraction "
                f"{h.hedge_extra_fraction:.4f} > {MAX_HEDGE_EXTRA_FRACTION}"
            )
        if self.budget_s is None:
            # unbudgeted: the causal comparison must show a strict win
            if h.hedge_wins < MIN_HEDGE_WINS:
                out.append(f"{name}: {h.hedge_wins} hedge wins < {MIN_HEDGE_WINS}")
            if not self.p99_improvement_s > 0.0:
                out.append(
                    f"{name}: chaos p99 {h.chaos_completion_p99_s:.6f}s not "
                    f"below unhedged {self.unhedged.chaos_completion_p99_s:.6f}s"
                )
        return tuple(out)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class HedgeResult:
    """The full budget x flavour grid of one hedged replay run."""

    cells: tuple[HedgeCell, ...]
    launches: int
    seed: int
    platform_name: str
    mean_service_s: float
    utilization: float

    def get(self, flavour: str, budget_label: str) -> HedgeCell:
        for cell in self.cells:
            if cell.flavour == flavour and cell.budget_label == budget_label:
                return cell
        raise KeyError((flavour, budget_label))

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(f for cell in self.cells for f in cell.failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        def ms(x: float) -> str:
            return f"{x * 1e3:.3f}"

        body = [
            [
                c.flavour,
                c.budget_label,
                "-" if c.budget_s is None else ms(c.budget_s),
                c.hedged.hedged,
                c.hedged.hedge_wins,
                f"{c.hedged.hedge_extra_fraction * 100:.2f}%",
                ms(c.hedged.chaos_completion_p99_s),
                ms(c.unhedged.chaos_completion_p99_s),
                ms(c.p99_improvement_s),
                f"{c.hedged.expired}/{c.unhedged.expired}",
                "ok" if c.ok else "FAIL",
            ]
            for c in self.cells
        ]
        return render_table(
            [
                "chaos",
                "budget",
                "budget (ms)",
                "hedged",
                "wins",
                "extra",
                "p99 hedged",
                "p99 plain",
                "saved (ms)",
                "expired h/u",
                "",
            ],
            body,
            title=(
                f"Hedged dispatch on {self.platform_name}: {self.launches} "
                f"requests/arm, util {self.utilization:g}, chaos-window p99 "
                f"completion in ms (seed {self.seed})"
            ),
        )

    def to_payload(self) -> dict:
        """Deterministic JSON-safe dump (byte-identical across reruns)."""
        return {
            "launches": self.launches,
            "seed": self.seed,
            "platform": self.platform_name,
            "mean_service_s": self.mean_service_s,
            "utilization": self.utilization,
            "max_hedge_extra_fraction": MAX_HEDGE_EXTRA_FRACTION,
            "passed": self.passed,
            "cells": [
                {
                    "flavour": c.flavour,
                    "budget": c.budget_label,
                    "budget_s": c.budget_s,
                    "ok": c.ok,
                    "p99_improvement_s": c.p99_improvement_s,
                    "hedged": c.hedged.to_payload(),
                    "unhedged": c.unhedged.to_payload(),
                }
                for c in self.cells
            ],
        }


def run_hedge(
    *,
    launches: int = 20_000,
    seed: int = 0,
    platform: Platform = PLATFORM_P9_V100,
    utilization: float = 0.6,
) -> HedgeResult:
    """Run the hedged-vs-unhedged grid over one calibrated trace."""
    trace = calibrate(platform, launches, seed)
    workload = trace.workload(utilization)
    requests = trace.requests(workload)
    window = trace.window(requests)

    def arm(flavour: str, budget_s: float | None, hedge: bool) -> ReplayScore:
        run = trace.run(
            ReplayConfig(
                platform=platform,
                workload=workload,
                chaos=trace.chaos(flavour, window),
                budget_s=budget_s,
                hedge=hedge,
            ),
            requests,
        )
        return score_run(run, recovery_margin_s=window[1] - window[0])

    budgets = {
        label: None if factor is None else factor * trace.mean_service_s
        for label, factor in BUDGET_FACTORS.items()
    }
    cells = [
        HedgeCell(
            flavour=flavour,
            budget_label=label,
            budget_s=budget_s,
            hedged=arm(flavour, budget_s, hedge=True),
            unhedged=arm(flavour, budget_s, hedge=False),
        )
        for flavour in HEDGE_FLAVOURS
        for label, budget_s in budgets.items()
    ]
    return HedgeResult(
        cells=tuple(cells),
        launches=launches,
        seed=seed,
        platform_name=platform.name,
        mean_service_s=trace.mean_service_s,
        utilization=utilization,
    )
