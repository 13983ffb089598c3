"""Zero-dependency tracing core for the offloading framework.

A :class:`Tracer` records nested spans — named intervals with structured
attributes — for every stage of the Figure 2 pipeline: ``compile`` and
``analyse`` (holding ``ipda.analyze``) on the compile-time side,
``launch``/``predict``/``dispatch`` on the runtime side, plus the inner
``mca.steady_state`` and ``sim.cpu``/``sim.gpu`` stages.  The simulators
price the compiled record, so a launch runs no IPDA.  Spans are keyed on
the :class:`~repro.faults.SimulatedClock`: every timestamp is the simulated
time in integer microseconds plus a strictly increasing tick, so traces
are deterministic, totally ordered and nest exactly even when no
simulated time elapses inside a span.

The default tracer is the :data:`NULL_TRACER` singleton: ``span()``
returns a shared no-op context manager and nothing is recorded, so the
un-instrumented fast path stays allocation-free and every record the
runtimes produce is bit-identical to a tracer-less build — the same
off-by-default discipline as the faults/lint/drift subsystems.

Module-level functions (IPDA, the MCA scheduler, the simulators) reach
the tracer through :func:`current_tracer`; a runtime makes its tracer
current for the duration of a ``compile_region``/``launch`` call via
``tracer.activate()``.  Activation is plain (not thread-local) state —
the whole repository simulates time on a single thread.
"""

from __future__ import annotations

__all__ = [
    "InstantRecord",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "current_tracer",
]


class SpanRecord:
    """One finished (or still open) span: interval + attributes."""

    __slots__ = ("name", "category", "start_ts", "end_ts", "depth", "attrs", "index")

    def __init__(self, name, category, start_ts, depth, attrs, index):
        self.name = name
        self.category = category
        self.start_ts = start_ts
        self.end_ts = None
        self.depth = depth
        self.attrs = attrs
        self.index = index

    @property
    def duration(self) -> int:
        return 0 if self.end_ts is None else self.end_ts - self.start_ts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanRecord({self.name!r}, ts={self.start_ts}, dur={self.duration})"


class InstantRecord:
    """A point event (e.g. a fault) stamped inside the running span."""

    __slots__ = ("name", "ts", "depth", "attrs", "index")

    def __init__(self, name, ts, depth, attrs, index):
        self.name = name
        self.ts = ts
        self.depth = depth
        self.attrs = attrs
        self.index = index


class Span:
    """Context manager for one traced interval; ``set`` adds attributes."""

    __slots__ = ("_tracer", "_record", "name", "category", "_attrs")

    def __init__(self, tracer: "Tracer", name: str, category: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.category = category
        self._attrs = attrs
        self._record: SpanRecord | None = None

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one structured attribute."""
        self._attrs[key] = value

    def event(self, name: str, **attrs) -> None:
        """Stamp an instant event at the current (simulated) time."""
        self._tracer._instant(name, attrs)

    def __enter__(self) -> "Span":
        self._record = self._tracer._begin(self.name, self.category, self._attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._tracer._end(self._record)
        return False


class Tracer:
    """Records spans and instants against a simulated clock.

    ``clock`` may be attached lazily (the runtimes bind their own
    :class:`~repro.faults.SimulatedClock` at construction); without one,
    timestamps are pure tick counts and the trace is still deterministic.
    """

    enabled = True

    def __init__(self, clock=None):
        self.clock = clock
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self._seq = 0
        self._depth = 0

    # -- time ------------------------------------------------------------
    def _now(self) -> int:
        """Simulated microseconds + a strictly increasing tick.

        The tick keeps timestamps totally ordered (and child spans
        strictly inside their parents) even when no simulated time
        elapses between two events.
        """
        self._seq += 1
        base = 0 if self.clock is None else round(self.clock.now * 1e6)
        return base + self._seq

    # -- recording -------------------------------------------------------
    def span(self, name: str, category: str = "repro", **attrs) -> Span:
        """Open a nested span; use as ``with tracer.span(...) as sp:``."""
        return Span(self, name, category, attrs)

    def _begin(self, name: str, category: str, attrs: dict) -> SpanRecord:
        rec = SpanRecord(name, category, self._now(), self._depth, attrs, self._seq)
        self.spans.append(rec)
        self._depth += 1
        return rec

    def _end(self, rec: SpanRecord) -> None:
        self._depth -= 1
        rec.end_ts = self._now()

    def _instant(self, name: str, attrs: dict) -> None:
        self.instants.append(
            InstantRecord(name, self._now(), self._depth, attrs, self._seq)
        )

    def instant(self, name: str, **attrs) -> None:
        """Stamp a free-standing instant event (outside any span)."""
        self._instant(name, attrs)

    def activate(self) -> "_Activation":
        """Make this tracer the :func:`current_tracer` for a ``with`` block."""
        return _Activation(self)

    def clear(self) -> None:
        """Drop all recorded spans/instants (the clock stays attached)."""
        self.spans.clear()
        self.instants.clear()
        self._seq = 0
        self._depth = 0

    def __len__(self) -> int:
        return len(self.spans)


class _NullSpan:
    """Shared no-op span: the allocation-free fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Records nothing; every method returns a shared no-op object."""

    enabled = False
    clock = None
    spans: tuple = ()
    instants: tuple = ()

    def span(self, name: str, category: str = "repro", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs) -> None:
        pass

    def activate(self) -> _NullSpan:
        # never touches the active-tracer state: the default *is* null
        return _NULL_SPAN

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()

_ACTIVE: "Tracer | NullTracer" = NULL_TRACER


def current_tracer() -> "Tracer | NullTracer":
    """The tracer instrumented library code should record against."""
    return _ACTIVE


class _Activation:
    """``with tracer.activate():`` — push/pop the module-level tracer."""

    __slots__ = ("_tracer", "_prev")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._prev: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer:
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._prev
        return False
