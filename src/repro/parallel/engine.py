"""Deterministic parallel sweep engine with warm persistent workers.

A :class:`SweepEngine` fans independent kernel-case tasks out over a
pool of **persistent warm workers** and merges results back into
**case-declaration order**, regardless of completion order — so a
``--jobs 8`` sweep produces a byte-identical result stream to the
sequential one (the differential harness in ``tests/test_parallel.py``
asserts exactly that).  ``jobs <= 1`` degrades to an in-process
sequential executor running the task functions unchanged, which keeps
the default path free of multiprocessing machinery.  Every experiment
sweep runs through :meth:`SweepEngine.map` or :meth:`SweepEngine.map_obs`
at every worker count, so the sequential and the parallel run share one
task function and one merge.

Three properties distinguish this engine from a naive
one-future-per-case ``ProcessPoolExecutor`` (which `BENCH_parallel.json`
showed *losing* to sequential at suite granularity):

* **persistent pools** — worker pools are keyed by ``(jobs, cache_dir)``
  and survive across :meth:`SweepEngine.map` calls, so one sweep's
  worth of process spawning, module imports and attribute-database
  compilation warms every later sweep of the same run (the full
  benchmark grid used to pay pool startup sixteen times);
* **chunked case batches** — the case grid is partitioned into
  contiguous, declaration-ordered index chunks
  (:func:`repro.parallel.chunks.partition_chunks`; one chunk of
  ``ceil(n/jobs)`` cases per worker), so a sweep pays ~``jobs`` IPC
  round-trips instead of ``n_cases``;
* **cache-entry shipping** — every worker holds a process-local
  :class:`AnalysisCache` for its whole lifetime (memory-only when no
  cache directory is configured), journals the entries it *computes*,
  and returns them with each chunk; the parent absorbs them into a
  per-pool store and re-broadcasts the accumulated delta with the next
  round of chunks, so a case measured or predicted anywhere reaches
  every worker instead of being recomputed per worker.

Failure handling is loud, never lossy: a task exception aborts the
sweep with a :class:`ChunkFailure` naming the offending case; a worker
*process* death (poisoned chunk, OOM-kill) restarts the pool once —
re-broadcasting the full warm store to the fresh workers — and
resubmits every unfinished chunk, and a second death raises a
:class:`ChunkFailure` naming every case that never completed.  Rows are
never silently dropped.

Observability-carrying sweeps go through :meth:`SweepEngine.map_obs`:
each task returns its value plus a metrics snapshot and a tracer
payload, and the engine merges worker metrics order-independently
(counters and histograms add; see ``MetricsRegistry.merge_snapshot``)
and splices worker trace spans into one tracer with rebased, strictly
increasing timestamps — again in declaration order, so two runs of the
same parallel sweep render byte-identical traces.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..obs import MetricsRegistry, Tracer
from ..obs.tracer import InstantRecord, SpanRecord
from .cache import AnalysisCache, current_cache
from .chunks import partition_chunks

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "ChunkFailure",
    "JOBS_ENV",
    "ObsTaskResult",
    "SweepEngine",
    "SweepObsResult",
    "merge_tracer_payloads",
    "register_prefork_warmup",
    "resolve_jobs",
    "shutdown_pools",
    "tracer_payload",
]

#: Environment variable supplying the default worker count (``--jobs``).
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit value, else ``$REPRO_JOBS``, else 1."""
    if jobs is None:
        try:
            jobs = int(os.environ.get(JOBS_ENV, "1"))
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


class ChunkFailure(RuntimeError):
    """A worker chunk failed; ``cases`` names every affected case.

    Raised instead of silently dropping rows: either a task function
    raised (deterministic — resubmission cannot help, the original
    exception is chained as ``__cause__``) or the worker process died
    twice (once on the original pool, once on the restarted one).
    """

    def __init__(self, message: str, cases: Sequence[str]):
        super().__init__(message)
        self.cases = tuple(cases)


# ---------------------------------------------------------------------------
# Tracer payloads: JSON/pickle-safe span transport between processes
# ---------------------------------------------------------------------------


def tracer_payload(tracer: Tracer) -> dict:
    """Serialize a tracer's spans/instants for transport to the parent."""
    return {
        "spans": [
            {
                "name": s.name,
                "category": s.category,
                "start": s.start_ts,
                "end": s.end_ts,
                "depth": s.depth,
                "attrs": dict(s.attrs),
                "index": s.index,
            }
            for s in tracer.spans
        ],
        "instants": [
            {
                "name": i.name,
                "ts": i.ts,
                "depth": i.depth,
                "attrs": dict(i.attrs),
                "index": i.index,
            }
            for i in tracer.instants
        ],
    }


def merge_tracer_payloads(groups: Sequence[dict]) -> Tracer:
    """Splice per-worker tracer payloads into one tracer, in group order.

    Each group's timestamps are rebased past the previous group's maximum
    so the merged trace stays totally ordered and strictly increasing —
    the same invariant a single-process tracer guarantees.  The merge is
    a pure function of the group sequence, so the declaration-ordered
    groups of a parallel sweep always produce the same tracer no matter
    which worker finished first.
    """
    merged = Tracer()
    offset = 0
    for group in groups:
        group_max = 0
        for s in group.get("spans", ()):
            merged.spans.append(
                _span_record(
                    s["name"],
                    s["category"],
                    s["start"] + offset,
                    None if s["end"] is None else s["end"] + offset,
                    s["depth"],
                    dict(s["attrs"]),
                    s["index"] + offset,
                )
            )
            group_max = max(group_max, s["start"], s["end"] or 0, s["index"])
        for i in group.get("instants", ()):
            merged.instants.append(
                InstantRecord(
                    i["name"],
                    i["ts"] + offset,
                    i["depth"],
                    dict(i["attrs"]),
                    i["index"] + offset,
                )
            )
            group_max = max(group_max, i["ts"], i["index"])
        offset += group_max
    merged._seq = offset
    return merged


def _span_record(name, category, start, end, depth, attrs, index) -> SpanRecord:
    rec = SpanRecord(name, category, start, depth, attrs, index)
    rec.end_ts = end
    return rec


# ---------------------------------------------------------------------------
# Worker side: process-local warm state
# ---------------------------------------------------------------------------

_WORKER_CACHE: AnalysisCache | None = None
_WORKER_MARK = 0  # journal watermark of entries already shipped to the parent


def _worker_init(cache_dir: str | None) -> None:
    """Pool initializer: hold a process-local analysis cache for life.

    With a configured ``cache_dir`` the worker persists what it computes
    (atomic writes make concurrent workers safe); without one it holds a
    **memory-only** cache — the warm-worker state that makes repeated
    sweeps cheap even when no persistent cache was requested.  Either
    way the cache stays active for the whole process lifetime.
    """
    global _WORKER_CACHE, _WORKER_MARK
    if cache_dir:
        _WORKER_CACHE = AnalysisCache(cache_dir)
    else:
        _WORKER_CACHE = AnalysisCache(persist=False)
    _WORKER_CACHE.activate().__enter__()  # for the process lifetime
    _WORKER_MARK = 0


class _ChunkItemError(Exception):
    """Worker-side wrapper naming which chunk position raised."""

    def __init__(self, position: int, cause: str):
        super().__init__(position, cause)
        self.position = position
        self.cause = cause


def _run_chunk(fn: Callable[[Any], Any], items: list, inbox: list) -> tuple:
    """Worker chunk runner: absorb shipped entries, run items, ship back.

    Returns ``(values, shipped)`` where ``shipped`` is every cache entry
    this worker *computed* since its last ship — merged (not computed)
    entries are excluded, so shipping is idempotent and loop-free.
    """
    global _WORKER_MARK
    if _WORKER_CACHE is not None and inbox:
        _WORKER_CACHE.merge_entries(inbox)
    values = []
    for position, item in enumerate(items):
        try:
            values.append(fn(item))
        except Exception as exc:
            raise _ChunkItemError(position, repr(exc)) from exc
    if _WORKER_CACHE is None:
        return values, []
    shipped = _WORKER_CACHE.export_entries(_WORKER_MARK)
    _WORKER_MARK = _WORKER_CACHE.journal_size
    return values, shipped


# ---------------------------------------------------------------------------
# Parent side: persistent pools over a shared entry store
# ---------------------------------------------------------------------------

_PREFORK_WARMUPS: list[Callable[[], None]] = []


def register_prefork_warmup(fn: Callable[[], None]) -> None:
    """Register a parent-side warm-up run just before a pool is created.

    Worker processes are forked, so any state the callback builds in the
    parent — compiled attribute databases, fitted calibrations — is
    inherited copy-on-write by every worker for free, instead of being
    rebuilt once per worker process (which serializes on small machines).
    Callbacks run on every pool (re)creation; registration is idempotent.
    """
    if fn not in _PREFORK_WARMUPS:
        _PREFORK_WARMUPS.append(fn)


class _EntryStore:
    """Parent-side store of every cache entry workers have shipped back.

    Keyed by cache directory (one store per logical cache, shared by
    every pool size), holding ``[key, kind, value]`` records in
    first-arrival order with first-write-wins dedup — so results
    computed by a ``--jobs 2`` sweep warm a later ``--jobs 4`` pool's
    workers through their first broadcast.
    """

    def __init__(self):
        self.entries: list[list] = []
        self._keys: set[str] = set()

    def absorb(self, shipped: Iterable[list]) -> None:
        for entry in shipped:
            if entry[0] not in self._keys:
                self._keys.add(entry[0])
                self.entries.append(entry)


_STORES: dict[str | None, _EntryStore] = {}


class _WorkerPool:
    """Persistent worker slots with deterministic chunk affinity.

    Each of the ``jobs`` slots is its own single-worker executor, and
    chunk ``ci`` always runs on slot ``ci % jobs`` — so the *same* case
    range lands on the *same* warm worker in every sweep (the lowered
    loop nests a measure sweep left on the worker's compiled records
    are there when the predict sweep for the same cases arrives), and
    the store delta each slot still needs is exactly known
    (``broadcast_for`` tracks a per-slot watermark; every entry is
    shipped to every slot at most once).  An anonymous shared
    pool can't do either: chunk pickup is a race, so a worker that sat
    out a round would silently miss that round's broadcast forever.

    ``restart()`` (after a worker death) resets every watermark so the
    full store is re-broadcast to the fresh workers — warm state is
    rebuilt, not lost, when the pool restarts.
    """

    def __init__(self, jobs: int, cache_dir: str | None):
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.store = _STORES.setdefault(cache_dir, _EntryStore())
        self._slots: list[ProcessPoolExecutor | None] = [None] * jobs
        self._sent = [0] * jobs  # per-slot watermark into ``store.entries``
        self.restarts = 0

    def slot_for(self, chunk_index: int) -> int:
        return chunk_index % self.jobs

    def executor(self, slot: int) -> ProcessPoolExecutor:
        if self._slots[slot] is None:
            # imported here so a ``jobs <= 1`` run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            for warmup in _PREFORK_WARMUPS:
                warmup()
            self._slots[slot] = ProcessPoolExecutor(
                max_workers=1,
                initializer=_worker_init,
                initargs=(self.cache_dir,),
            )
        return self._slots[slot]

    def absorb(self, shipped: Iterable[list]) -> None:
        """Merge worker-shipped entries into the store (first write wins)."""
        self.store.absorb(shipped)

    def broadcast_for(self, slot: int) -> list[list]:
        """Entries this slot has not been sent yet; advances its watermark."""
        delta = self.store.entries[self._sent[slot] :]
        self._sent[slot] = len(self.store.entries)
        return delta

    def restart(self) -> None:
        """Replace dead workers; schedule a full warm-state rebroadcast."""
        self.shutdown()
        self._sent = [0] * self.jobs
        self.restarts += 1

    def shutdown(self) -> None:
        for slot, executor in enumerate(self._slots):
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
                self._slots[slot] = None


_POOLS: dict[tuple[int, str | None], _WorkerPool] = {}


def _pool_for(jobs: int, cache_dir: str | None) -> _WorkerPool:
    key = (jobs, cache_dir)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS[key] = _WorkerPool(jobs, cache_dir)
    return pool


def shutdown_pools() -> None:
    """Shut down every persistent worker pool and drop their warm stores.

    Called by ``clear_caches(persistent=True)`` (so a post-clear sweep
    genuinely recomputes, in workers too), by the test suite's session
    teardown, and at interpreter exit.
    """
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()
    _STORES.clear()


atexit.register(shutdown_pools)


@dataclass(frozen=True)
class ObsTaskResult:
    """What an observability-carrying task returns to the engine."""

    value: Any
    metrics: dict  # a MetricsRegistry.snapshot()
    trace: dict  # a tracer_payload()


@dataclass(frozen=True)
class SweepObsResult:
    """A merged observability sweep: values + one registry + one tracer."""

    values: list
    metrics: MetricsRegistry
    tracer: Tracer


class SweepEngine:
    """Fan kernel-case chunks over warm workers; merge in declaration order."""

    def __init__(self, jobs: int | None = None):
        self.jobs = resolve_jobs(jobs)

    def _effective_cache_dir(self) -> str | None:
        """The cache directory the worker pool should persist into.

        The directory of the *activated* persistent cache, when there is
        one — so ``measure_suite(..., jobs=4)`` under an
        ``AnalysisCache(dir).activate()`` block gives every warm worker
        the same disk store the sequential path would use: workers
        persist what they compute, and a later run (sequential or
        parallel, any process) replays it.  Memory-only caches keep the
        pool memory-only too.
        """
        active = current_cache()
        if getattr(active, "persist", False) and active.enabled:
            return active.cache_dir
        return None

    def _collect(
        self,
        fn: Callable[[Any], Any],
        items: list,
        labels: Sequence[str] | None = None,
    ) -> list:
        """Run ``fn`` over ``items``; results indexed by declaration order."""
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return self._collect_parallel(fn, items, labels)

    def _collect_parallel(
        self,
        fn: Callable[[Any], Any],
        items: list,
        labels: Sequence[str] | None,
    ) -> list:
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        if labels is None:
            labels = [repr(item)[:120] for item in items]
        pool = _pool_for(self.jobs, self._effective_cache_dir())
        chunks = partition_chunks(len(items), self.jobs)
        results: list = [None] * len(items)
        done = [False] * len(chunks)
        # Two submission rounds at most: the original pool, then — only
        # after a worker process died — a restarted pool re-running every
        # chunk that never completed.
        for attempt in (0, 1):
            pending = [ci for ci, ok in enumerate(done) if not ok]
            if not pending:
                break
            broken = False
            futures: dict = {}
            try:
                for ci in pending:
                    slot = pool.slot_for(ci)
                    futures[
                        pool.executor(slot).submit(
                            _run_chunk,
                            fn,
                            [items[i] for i in chunks[ci]],
                            pool.broadcast_for(slot),
                        )
                    ] = ci
            except BrokenProcessPool:  # pool died before/while submitting
                broken = True
            for future in as_completed(futures):
                ci = futures[future]
                try:
                    values, shipped = future.result()
                except _ChunkItemError as exc:
                    case = labels[chunks[ci][exc.position]]
                    raise ChunkFailure(
                        f"sweep task failed on case {case!r}: {exc.cause}",
                        [case],
                    ) from exc
                except BrokenProcessPool:
                    broken = True
                    continue
                except Exception as exc:  # transport/pickling failures
                    cases = [labels[i] for i in chunks[ci]]
                    raise ChunkFailure(
                        f"sweep chunk failed for cases {cases}: {exc!r}",
                        cases,
                    ) from exc
                pool.absorb(shipped)
                for i, value in zip(chunks[ci], values):
                    results[i] = value
                done[ci] = True
            if all(done):
                break
            if broken:
                if attempt == 0:
                    pool.restart()
                else:
                    cases = [
                        labels[i]
                        for ci, ok in enumerate(done)
                        if not ok
                        for i in chunks[ci]
                    ]
                    raise ChunkFailure(
                        "worker process died twice; cases never completed: "
                        f"{cases}",
                        cases,
                    )
        # Parent-side warmth: when a cache is active here too, absorbed
        # entries serve later sequential fallbacks without recomputation.
        parent_cache = current_cache()
        if parent_cache.enabled and pool.store.entries:
            parent_cache.merge_entries(pool.store.entries)
        return results

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable,
        *,
        labels: Sequence[str] | None = None,
    ) -> list:
        """Apply ``fn`` to every item; return values in declaration order.

        ``labels`` (parallel to ``items``) names cases in
        :class:`ChunkFailure` diagnostics; it defaults to item reprs.
        """
        return self._collect(fn, list(items), labels)

    def map_obs(
        self,
        fn: Callable[[Any], ObsTaskResult],
        items: Iterable,
        *,
        labels: Sequence[str] | None = None,
    ) -> SweepObsResult:
        """Like :meth:`map` for tasks that also carry metrics and spans.

        ``fn`` must return an :class:`ObsTaskResult`.  Worker metrics are
        merged order-independently (counters/histograms add across
        workers; gauges take the last declaration-ordered write) and
        worker trace spans are spliced into one tracer in declaration
        order with rebased timestamps.
        """
        outcomes = self._collect(fn, list(items), labels)
        metrics = MetricsRegistry()
        for outcome in outcomes:
            metrics.merge_snapshot(outcome.metrics)
        tracer = merge_tracer_payloads([o.trace for o in outcomes])
        return SweepObsResult(
            values=[o.value for o in outcomes],
            metrics=metrics,
            tracer=tracer,
        )
