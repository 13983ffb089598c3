"""Counters, gauges and fixed-bucket histograms for the runtimes.

A :class:`MetricsRegistry` is fed by the same instrumentation points as
the tracer (launches by device, retries, breaker trips, drift verdict
transitions, lint findings by severity, predicted-vs-observed error) and
renders to a deterministic :meth:`~MetricsRegistry.snapshot` dict — keys
are ``name{label=value,...}`` strings with sorted labels, so two
identical runs serialize byte-identically.

Everything is plain Python; there is no background aggregation thread
and no dependency.  Instruments are get-or-create: asking for the same
``(name, labels)`` twice returns the same object.

Asking by name builds the key string on every call, so the per-launch
paths emit through a :class:`Family` instead (one per declared metric,
see :mod:`repro.obs.catalog`): it binds each label tuple to its
instrument the first time the tuple is used and keeps the handle, so a
key is built once per instrument.
"""

from __future__ import annotations

import math
from bisect import bisect_left

__all__ = [
    "Counter",
    "DEFAULT_LOG_ERROR_BUCKETS",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileSketch",
]

#: Upper bounds (|log10(predicted/observed)|) for the prediction-error
#: histogram: 0.01 ≈ 2.3% off, 0.3 ≈ 2x off, 1.0 = an order of magnitude.
DEFAULT_LOG_ERROR_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0)

#: Significant figures every :class:`QuantileSketch` quantizes to.
SIGNIFICANT_DIGITS = 6
_QUANTUM = f"%.{SIGNIFICANT_DIGITS}g"
#: integer-valued floats below this magnitude quantize to themselves
_EXACT_BELOW = 10.0**SIGNIFICANT_DIGITS


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with cumulative-style bucket counts.

    ``buckets`` are finite upper bounds; an implicit ``+inf`` bucket
    catches the overflow.  Counts are per-bucket (not cumulative) so the
    snapshot reads directly as a distribution.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets=DEFAULT_LOG_ERROR_BUCKETS):
        ordered = tuple(sorted(float(b) for b in buckets))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in ordered):
            raise ValueError("bucket bounds must be finite (+inf is implicit)")
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # the first bound >= value; NaN compares false with every bound,
        # so it lands past them all (overflow), as does anything > the last
        buckets = self.buckets
        i = bisect_left(buckets, value)
        if i < len(buckets) and value <= buckets[i]:
            self.counts[i] += 1
        else:
            self.counts[-1] += 1


class QuantileSketch:
    """Deterministic streaming quantiles (p50/p95/p99) over quantized values.

    Observations are quantized to :data:`SIGNIFICANT_DIGITS` significant
    figures and counted in a value→count map, so the sketch is

    * **streaming** — O(1) per observation, memory bounded by the number
      of *distinct* quantized values (tiny for the repeated simulated
      quantities this repository measures);
    * **deterministic** — no sampling; two identical observation
      sequences (in any order) produce identical sketches and identical
      quantiles, which is what lets replay reports be byte-reproducible;
    * **exact on its quantized domain** — ``quantile(q)`` is the
      nearest-rank quantile of the quantized multiset (rank
      ``ceil(q * count)``), not an approximation scheme with drifting
      error bounds.

    Non-finite observations are counted separately (``nonfinite``) and
    excluded from the quantiles, so one failed launch cannot poison a
    percentile gate — gates check ``nonfinite == 0`` explicitly instead.
    """

    __slots__ = ("counts", "count", "nonfinite")

    def __init__(self):
        self.counts: dict[float, int] = {}
        self.count = 0
        self.nonfinite = 0

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            self.nonfinite += 1
            return
        # an integer-valued float below 1e6 has at most six significant
        # digits, so the %.6g round trip would return it unchanged (an int
        # still takes the round trip, which makes it a float)
        q = (
            value
            if value % 1.0 == 0.0
            and -_EXACT_BELOW < value < _EXACT_BELOW
            and type(value) is float
            else float(_QUANTUM % value)
        )
        self.counts[q] = self.counts.get(q, 0) + 1
        self.count += 1

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the quantized observations (NaN if empty)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= rank:
                return value
        raise AssertionError("unreachable")  # pragma: no cover

    @property
    def sum(self) -> float:
        """Total of the quantized observations.

        Recomputed from the counts in sorted-value order, so it is
        order-independent: merging worker sketches in any order yields
        the same sum to the last bit.
        """
        return math.fsum(
            value * count for value, count in sorted(self.counts.items())
        )

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


def _key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Family:
    """One declared metric's instruments in one registry, by label values.

    ``spec`` names the metric, its kind (``counter``, ``gauge``,
    ``histogram`` or ``quantiles``) and its label names.  ``labels(*values)``
    takes the values in that order and returns the instrument, bound on
    the first call with those values and kept afterwards.
    """

    __slots__ = ("spec", "_create", "_handles")

    def __init__(self, registry: MetricsRegistry, spec):
        self.spec = spec
        self._create = getattr(registry, spec.kind)
        self._handles: dict[tuple, object] = {}

    def labels(self, *values):
        handle = self._handles.get(values)
        if handle is None:
            names = self.spec.labels
            if len(values) != len(names):
                raise ValueError(
                    f"metric {self.spec.name!r} takes labels {names}, "
                    f"got values {values}"
                )
            handle = self._handles[values] = self._create(
                self.spec.name, **dict(zip(names, values))
            )
        return handle


class MetricsRegistry:
    """Get-or-create registry of named, labelled instruments."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._quantiles: dict[str, QuantileSketch] = {}
        self._families: dict[str, Family] = {}

    def family(self, spec) -> Family:
        """The :class:`Family` of one declared metric, kept per registry."""
        family = self._families.get(spec.name)
        if family is None:
            family = self._families[spec.name] = Family(self, spec)
        return family

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, buckets=None, **labels) -> Histogram:
        key = _key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                DEFAULT_LOG_ERROR_BUCKETS if buckets is None else buckets
            )
        return inst

    def quantiles(self, name: str, **labels) -> QuantileSketch:
        key = _key(name, labels)
        inst = self._quantiles.get(key)
        if inst is None:
            inst = self._quantiles[key] = QuantileSketch()
        return inst

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The merge is **order-independent for counters and histograms**
        (both add), which is what lets the sweep engine combine
        per-worker registries into exactly the totals a single-process
        sweep would have recorded — exactly for every integer count;
        histogram ``sum`` is a float fold, so regrouping observations
        across workers can move its last ulp (float addition is not
        associative).  Gauges are last-write-wins by nature, so the
        merge overwrites them — callers merge snapshots in declaration
        order to keep that deterministic.  Histogram
        bucket bounds are recovered from the snapshot's ``le_`` keys;
        merging histograms with mismatched bounds raises ``ValueError``
        rather than silently misbinning.
        """
        for key, value in snap.get("counters", {}).items():
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter()
            inst.inc(value)
        for key, value in snap.get("gauges", {}).items():
            inst = self._gauges.get(key)
            if inst is None:
                inst = self._gauges[key] = Gauge()
            inst.set(value)
        for key, payload in snap.get("histograms", {}).items():
            buckets = payload["buckets"]
            bounds = tuple(
                float(b[len("le_"):]) for b in buckets if b != "le_inf"
            )
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(buckets=bounds)
            elif hist.buckets != tuple(sorted(bounds)):
                raise ValueError(
                    f"histogram {key!r}: cannot merge bounds {bounds} "
                    f"into {hist.buckets}"
                )
            for i, bound in enumerate(hist.buckets):
                hist.counts[i] += buckets[f"le_{bound:g}"]
            hist.counts[-1] += buckets["le_inf"]
            hist.count += payload["count"]
            hist.sum += payload["sum"]
        for key, payload in snap.get("quantiles", {}).items():
            sketch = self._quantiles.get(key)
            if sketch is None:
                sketch = self._quantiles[key] = QuantileSketch()
            for value, count in payload["counts"].items():
                v = float(value)
                sketch.counts[v] = sketch.counts.get(v, 0) + count
            sketch.count += payload["count"]
            sketch.nonfinite += payload["nonfinite"]

    def snapshot(self) -> dict:
        """Deterministic plain-dict dump (sorted keys, JSON-safe values)."""
        hists = {}
        for key in sorted(self._histograms):
            h = self._histograms[key]
            bucket_counts = {
                f"le_{bound:g}": h.counts[i] for i, bound in enumerate(h.buckets)
            }
            bucket_counts["le_inf"] = h.counts[-1]
            hists[key] = {
                "count": h.count,
                "sum": h.sum,
                "buckets": bucket_counts,
            }
        sketches = {}
        for key in sorted(self._quantiles):
            s = self._quantiles[key]
            sketches[key] = {
                "count": s.count,
                "nonfinite": s.nonfinite,
                "significant_digits": SIGNIFICANT_DIGITS,
                "counts": {repr(v): s.counts[v] for v in sorted(s.counts)},
            }
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": hists,
            "quantiles": sketches,
        }

    def __len__(self) -> int:
        return (
            len(self._counters)
            + len(self._gauges)
            + len(self._histograms)
            + len(self._quantiles)
        )
