"""Observability: tracing spans, metrics, and trace exporters.

The runtimes accept a :class:`Tracer` and a :class:`MetricsRegistry`
(both off by default — the :data:`NULL_TRACER` fast path records nothing
and allocates nothing) and instrument every stage of the Figure 2
pipeline; :func:`chrome_trace_json` turns a recorded run into a file
``chrome://tracing`` / Perfetto can open.  Every metric the package
emits is declared once in :mod:`.catalog`.  See docs/OBSERVABILITY.md.
"""

from .tracer import (
    NULL_TRACER,
    InstantRecord,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    current_tracer,
    merge_tracers,
)
from .metrics import (
    DEFAULT_LOG_ERROR_BUCKETS,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
)
from .catalog import CATALOGUE, METRICS, MetricSpec, families
from .._lazy import lazy_exports

#: loaded on first use: only the commands that render a trace need them
_LAZY = {"export": ("chrome_trace_events", "chrome_trace_json", "render_trace_text")}

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    _LAZY,
    eager=(
        "NULL_TRACER",
        "InstantRecord",
        "NullTracer",
        "Span",
        "SpanRecord",
        "Tracer",
        "current_tracer",
        "merge_tracers",
        "DEFAULT_LOG_ERROR_BUCKETS",
        "Counter",
        "Family",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "QuantileSketch",
        "CATALOGUE",
        "METRICS",
        "MetricSpec",
        "families",
    ),
)
