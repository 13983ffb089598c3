"""The metric catalogue: every metric the package emits, declared once.

Each :class:`MetricSpec` gives a metric's name, kind, label names, unit,
clock and meaning.  Code emits through the :class:`~repro.obs.Family`
a registry keeps per declared metric (:func:`families`), passing label
values in the declared order, so an emitted name or label set is always
a declared one.  ``docs/OBSERVABILITY.md``'s metric tables are
:func:`render_markdown`'s output, and ``tests/test_obs.py`` fails when
they differ or when ``src/`` emits a metric some other way.

``clock`` says which clock a metric's events happen on: ``simulated``
for everything a runtime or replay does on its
:class:`~repro.faults.SimulatedClock` (every ``*_seconds`` value is
simulated seconds, not wall time), ``real`` for work of the process
itself, outside any simulated run.  Every metric declared today is
``simulated``.

The ``device`` label holds one of three things, named per metric:

* the runtime label — the device kind (``cpu``/``gpu``) on a
  one-accelerator platform, the device name on a multi-accelerator one;
* the device name of an accelerator, at every accelerator count;
* the name of a replay service lane: ``cpu`` and ``gpu`` with
  per-device lanes, ``dispatcher`` on the serial preset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import Family, MetricsRegistry

__all__ = ["CATALOGUE", "METRICS", "MetricSpec", "families", "render_markdown"]

#: the MetricsRegistry methods that make each kind, in rendering order
KINDS = ("counter", "gauge", "histogram", "quantiles")


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric."""

    name: str
    kind: str  # one of KINDS
    labels: tuple[str, ...]  # label names, in the order handles take values
    unit: str
    clock: str  # "simulated" or "real"
    help: str


_RUNTIME_LABEL = (
    "`device` is the runtime label: the kind with one accelerator, "
    "the device name with several"
)
_LANE = "`device` is the service lane: `cpu`/`gpu`, or `dispatcher` when serial"

CATALOGUE: tuple[MetricSpec, ...] = (
    # -- the runtime, per launch --------------------------------------------
    MetricSpec(
        "launches_total", "counter", ("device",), "launches", "simulated",
        f"launches by the device that ran them; {_RUNTIME_LABEL}",
    ),
    MetricSpec(
        "tenant_launches_total", "counter", ("tenant",), "launches", "simulated",
        "launches by issuing tenant (tenanted traces only)",
    ),
    MetricSpec(
        "admission_total", "counter", ("outcome",), "launches", "simulated",
        "launches an admission controller sent straight to the host "
        "(`outcome` is `degraded-to-host`)",
    ),
    MetricSpec(
        "fallbacks_total", "counter", ("reason",), "launches", "simulated",
        "launches rerouted off the requested device, by reason",
    ),
    MetricSpec(
        "retries_total", "counter", ("device",), "attempts", "simulated",
        "extra dispatch attempts on one accelerator; `device` is that "
        "accelerator's device name at every accelerator count",
    ),
    MetricSpec(
        "fault_events_total", "counter", ("type",), "events", "simulated",
        "injected or observed faults by error type",
    ),
    MetricSpec(
        "drift_decisions_total", "counter", ("mode",), "launches", "simulated",
        "self-healing verdicts by mode (launches with a flagged stream)",
    ),
    MetricSpec(
        "drift_transitions_total", "counter", ("device", "to"), "transitions",
        "simulated",
        f"drift sentinel stream state changes; {_RUNTIME_LABEL}",
    ),
    MetricSpec(
        "drift_flagged_total", "counter", ("device", "state"), "streams",
        "simulated",
        "non-calibrated streams per launch, from the verdict's `flags`; "
        f"{_RUNTIME_LABEL}",
    ),
    MetricSpec(
        "dispatch_overhead_zero_total", "counter", (), "launches", "simulated",
        "launches with zero dispatch overhead (kept out of "
        "`dispatch_overhead_seconds`)",
    ),
    MetricSpec(
        "hedged_launches_total", "counter", ("trigger", "winner"), "launches",
        "simulated",
        "launches whose speculative host backup started, by trigger and winner",
    ),
    MetricSpec(
        "breaker_open_transitions", "gauge", ("device",), "opens", "simulated",
        "times each accelerator's circuit breaker has opened; `device` is "
        "the accelerator's device name",
    ),
    MetricSpec(
        "sim_clock_seconds", "gauge", (), "seconds", "simulated",
        "simulated time at the last launch",
    ),
    MetricSpec(
        "prediction_abs_log_error", "histogram", ("device",), "log10 ratio",
        "simulated",
        "\\|log10(predicted / observed)\\| per launch and device, buckets "
        f"`DEFAULT_LOG_ERROR_BUCKETS`; {_RUNTIME_LABEL}",
    ),
    MetricSpec(
        "dispatch_overhead_seconds", "quantiles", (), "seconds", "simulated",
        "retry backoff and watchdog/budget deadline burn of each launch "
        "that paid any (the record's `overhead_seconds`)",
    ),
    MetricSpec(
        "hedge_extra_work_seconds", "quantiles", (), "seconds", "simulated",
        "compute a hedged launch duplicated (backup seconds run while the "
        "primary was alive)",
    ),
    # -- the replay service and engine --------------------------------------
    MetricSpec(
        "replay_requests_total", "counter", ("decision",), "requests",
        "simulated",
        "admission verdicts per arrival: `admit`, `degrade`, `defer`, `shed`",
    ),
    MetricSpec(
        "service_batches_total", "counter", ("device",), "batches", "simulated",
        f"batches of two or more same-case admissions; {_LANE}",
    ),
    MetricSpec(
        "admission_queue_depth", "quantiles", ("device",), "requests",
        "simulated",
        f"launches waiting or in service that each arrival found; {_LANE}",
    ),
    MetricSpec(
        "admission_wait_seconds", "quantiles", (), "seconds", "simulated",
        "queue wait of each request that reached a server",
    ),
    MetricSpec(
        "service_occupancy", "quantiles", ("device",), "ratio", "simulated",
        "busy share of a per-device lane's compute servers when a batch "
        "opens; `device` is the lane, `cpu` or `gpu`",
    ),
    MetricSpec(
        "replay_queue_max_depth", "gauge", (), "requests", "simulated",
        "deepest any lane got over the replay",
    ),
    MetricSpec(
        "replay_horizon_seconds", "gauge", (), "seconds", "simulated",
        "the replay's last service finish (or last arrival)",
    ),
    MetricSpec(
        "service_lane_max_depth", "gauge", ("device",), "requests", "simulated",
        f"deepest each lane got over the replay; {_LANE}",
    ),
)

METRICS: dict[str, MetricSpec] = {spec.name: spec for spec in CATALOGUE}


def families(registry: MetricsRegistry) -> dict[str, Family]:
    """Every declared metric's :class:`Family` in ``registry``, by name.

    Binding a family creates no instrument: each appears the first time
    code emits with its label values.
    """
    return {spec.name: registry.family(spec) for spec in CATALOGUE}


_HEADINGS = {
    "counter": "Counters",
    "gauge": "Gauges",
    "histogram": "Histograms",
    "quantiles": "Quantile sketches",
}


def render_markdown() -> str:
    """The catalogue as one Markdown table per kind, names sorted."""
    out: list[str] = []
    for kind in KINDS:
        out += [
            f"{_HEADINGS[kind]}:",
            "",
            "| name | labels | unit | clock | meaning |",
            "| --- | --- | --- | --- | --- |",
        ]
        for spec in sorted(CATALOGUE, key=lambda s: s.name):
            if spec.kind != kind:
                continue
            labels = ", ".join(f"`{label}`" for label in spec.labels) or "—"
            out.append(
                f"| `{spec.name}` | {labels} | {spec.unit} | {spec.clock} "
                f"| {spec.help} |"
            )
        out.append("")
    return "\n".join(out)
