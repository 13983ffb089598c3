"""Deterministic parallel sweep engine with warm persistent workers.

A :class:`SweepEngine` fans independent kernel-case tasks out over a
pool of **persistent warm workers** and merges results back into
**case-declaration order**, regardless of completion order — so a
``--jobs 8`` sweep produces a byte-identical result stream to the
sequential one (the differential harness in ``tests/test_parallel.py``
asserts exactly that).  ``jobs <= 1`` degrades to an in-process
sequential executor running the task functions unchanged, which keeps
the default path free of multiprocessing machinery.  Every experiment
sweep runs through :meth:`SweepEngine.map` at every worker count, so the
sequential and the parallel run share one task function and one merge.

Two properties distinguish this engine from a naive
one-future-per-case ``ProcessPoolExecutor`` (which `BENCH_parallel.json`
showed *losing* to sequential at suite granularity):

* **persistent pools** — worker pools are keyed by ``(jobs, cache_dir)``
  and survive across :meth:`SweepEngine.map` calls, so one sweep's
  worth of process spawning, module imports and attribute-database
  compilation warms every later sweep of the same run (the full
  benchmark grid used to pay pool startup sixteen times).  A suite
  sweep builds the suite database in the parent before it maps, so a
  pool it starts inherits the database; a worker forked by another
  sweep compiles it on its first suite task;
* **chunked case batches** — the case grid is partitioned into
  contiguous, declaration-ordered index chunks
  (:func:`repro.parallel.chunks.partition_chunks`; one chunk of
  ``ceil(n/jobs)`` cases per worker), so a sweep pays ~``jobs`` IPC
  round-trips instead of ``n_cases``.

A worker runs its tasks as the in-process sweep does: under the
persistent :class:`AnalysisCache` the parent has active (workers write
what they compute into the same directory), or under
:data:`NULL_CACHE` when none is.

Failure handling is loud, never lossy: a task exception aborts the
sweep with a :class:`ChunkFailure` naming the offending case; a worker
*process* death (poisoned chunk, OOM-kill) restarts the pool once and
resubmits every unfinished chunk, and a second death raises a
:class:`ChunkFailure` naming every case that never completed.  Rows are
never silently dropped.
"""

from __future__ import annotations

import atexit
import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from .cache import NULL_CACHE, AnalysisCache, current_cache
from .chunks import partition_chunks

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "ChunkFailure",
    "JOBS_ENV",
    "SweepEngine",
    "resolve_jobs",
    "shutdown_pools",
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
# Worker side
# ---------------------------------------------------------------------------


def _worker_init(cache_dir: str | None) -> None:
    """Pool initializer: activate the parent's cache for the process lifetime.

    With a ``cache_dir`` the worker reads and persists into the parent's
    persistent cache directory (atomic writes make concurrent workers
    safe); without one it runs under :data:`NULL_CACHE`, exactly as the
    in-process sweep does.
    """
    cache = AnalysisCache(cache_dir) if cache_dir else NULL_CACHE
    cache.activate().__enter__()


class _ChunkItemError(Exception):
    """Worker-side wrapper naming which chunk position raised."""

    def __init__(self, position: int, cause: str):
        super().__init__(position, cause)
        self.position = position
        self.cause = cause


def _run_chunk(fn: Callable[[Any], Any], items: list) -> list:
    """Worker chunk runner: the chunk's values, in item order."""
    values = []
    for position, item in enumerate(items):
        try:
            values.append(fn(item))
        except Exception as exc:
            raise _ChunkItemError(position, repr(exc)) from exc
    return values


# ---------------------------------------------------------------------------
# Parent side: persistent pools
# ---------------------------------------------------------------------------


class _WorkerPool:
    """Persistent worker slots with deterministic chunk affinity.

    Each of the ``jobs`` slots is its own single-worker executor, and
    chunk ``ci`` always runs on slot ``ci % jobs`` — so the *same* case
    range lands on the *same* warm worker in every sweep: the lowered
    loop nests a measure sweep left on the worker's compiled records are
    there when the predict sweep for the same cases arrives.  In an
    anonymous shared pool chunk pickup is a race, and that locality is
    lost.
    """

    def __init__(self, jobs: int, cache_dir: str | None):
        self.jobs = jobs
        self.cache_dir = cache_dir
        self._slots: list[ProcessPoolExecutor | None] = [None] * jobs
        self.restarts = 0

    def slot_for(self, chunk_index: int) -> int:
        return chunk_index % self.jobs

    def executor(self, slot: int) -> ProcessPoolExecutor:
        if self._slots[slot] is None:
            # imported here so a ``jobs <= 1`` run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._slots[slot] = ProcessPoolExecutor(
                max_workers=1,
                initializer=_worker_init,
                initargs=(self.cache_dir,),
            )
        return self._slots[slot]

    def restart(self) -> None:
        """Replace dead workers with fresh ones on the next submission."""
        self.shutdown()
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
    """Shut down every persistent worker pool.

    Called by ``clear_caches(persistent=True)`` (so a post-clear sweep
    genuinely recomputes, in workers too), by the test suite's session
    teardown, and at interpreter exit.
    """
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


class SweepEngine:
    """Fan kernel-case chunks over warm workers; merge in declaration order."""

    def __init__(self, jobs: int | None = None):
        self.jobs = resolve_jobs(jobs)

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
        items = list(items)
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
        # workers read and write the directory of the parent's active
        # persistent cache, as the in-process sweep would (None: uncached)
        pool = _pool_for(self.jobs, current_cache().cache_dir)
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
                    futures[
                        pool.executor(pool.slot_for(ci)).submit(
                            _run_chunk, fn, [items[i] for i in chunks[ci]]
                        )
                    ] = ci
            except BrokenProcessPool:  # pool died before/while submitting
                broken = True
            for future in as_completed(futures):
                ci = futures[future]
                try:
                    values = future.result()
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
        return results
