"""Wall-clock spans around each layer's public call sites.

The benchmark does not edit the program to trace it.  :func:`install`
replaces every reference the ``repro`` modules hold to a layer's public
callable (module globals, found by identity so aliases are caught too) or
the class attribute of a layer's public method with a timing wrapper, and
the function it returns puts the originals back.  Spans are kept in memory:
name, start, end, parent span and request id, plus per-name call counts,
self time (span duration minus the part its child spans cover) and every
duration, so per-call percentiles can be read off afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

#: span name -> (module defining the callable, attribute path in it).
#: The names follow the paper's pipeline: compile-time analyses, the
#: runtime binding, IPDA, the MCA scheduler, the Liao / Hong-Kim models,
#: the simulators that stand in for hardware, the dispatch runtime, and
#: the replay / service loops with their scoring.
LAYERS = {
    "analysis.compile_region": (
        "repro.analysis.attribute_db", "ProgramAttributeDatabase.compile_region"),
    "analysis.bind": ("repro.analysis.attribute_db", "RegionAttributes.bind"),
    "calibrate.fit_model_calibration": (
        "repro.calibrate.model_fit", "fit_model_calibration"),
    "ipda.analyze_region": ("repro.ipda.analysis", "analyze_region"),
    "mca.steady_state_cycles": ("repro.mca.scheduler", "steady_state_cycles"),
    "models.predict_cpu_time": ("repro.models.cpu_model", "predict_cpu_time"),
    "models.predict_gpu_time": ("repro.models.gpu_model", "predict_gpu_time"),
    "models.predict_both": ("repro.models.selector", "predict_both"),
    "sim.simulate_cpu": ("repro.sim.cpu_sim", "simulate_cpu"),
    "sim.simulate_gpu_kernel": ("repro.sim.gpu_sim", "simulate_gpu_kernel"),
    "sim.simulate_transfers": ("repro.sim.interconnect_sim", "simulate_transfers"),
    "runtime.launch": ("repro.runtime.framework", "OffloadingRuntime.launch"),
    "replay.engine_run": ("repro.replay.engine", "ReplayEngine.run"),
    "replay.service_run": ("repro.replay.service", "OffloadService.run"),
    "replay.score_run": ("repro.replay.score", "score_run"),
}

#: prefix of the spans the benchmark opens around one unit of measured
#: work; their self time is whatever no named layer accounts for
ROOT_PREFIX = "bench."


class Recorder:
    """In-memory span store with per-name aggregates."""

    def __init__(self, max_spans: int = 100_000):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)
        #: (span id, parent id, name, start ns, end ns, request id)
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self.dropped = 0
        self.request = None
        self._stack: list[list] = []
        self._next_id = 0

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        # [id, name, parent, child ns, start ns]
        frame = [self._next_id, name, parent, 0, perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        span_id, name, parent, child_ns, start = frame
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        self.durations[name].append(duration)
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, name, start, end, self.request))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    @contextmanager
    def root(self, name: str, request):
        """A span around one unit of measured work, tagged ``request``."""
        self.request = request
        frame = self._enter(ROOT_PREFIX + name)
        try:
            yield
        finally:
            self._leave(frame)
            self.request = None

    def merge(self, other: dict, request) -> None:
        """Fold in the :meth:`export` of a recorder from another process."""
        offset = self._next_id
        for name, n in other["calls"].items():
            self.calls[name] += n
        for name, ns in other["self_ns"].items():
            self.self_ns[name] += ns
        for name, ds in other["durations"].items():
            self.durations[name].extend(ds)
        for span_id, parent, name, start, end, _ in other["spans"]:
            if len(self.spans) < self.max_spans:
                self.spans.append(
                    (span_id + offset, None if parent is None else parent + offset,
                     name, start, end, request)
                )
            else:
                self.dropped += 1
        self.dropped += other["dropped"]
        self._next_id = offset + other["next_id"]

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "durations": dict(self.durations),
            "spans": self.spans,
            "dropped": self.dropped,
            "next_id": self._next_id,
        }


def install(recorder: Recorder):
    """Wrap every callable in :data:`LAYERS` with ``recorder`` spans.

    Returns a function that puts the originals back.
    """
    # pull in every module that may hold a reference to a layer callable
    importlib.import_module("repro.experiments")
    importlib.import_module("repro.replay")
    patches: list[tuple] = []
    for name, (module_name, path) in LAYERS.items():
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def remove() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return remove
