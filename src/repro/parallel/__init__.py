"""Parallel sweep engine + persistent analysis cache.

Two cooperating subsystems that make suite sweeps scale:

* :class:`SweepEngine` — fans chunked case batches over **persistent
  warm workers** (pools survive across sweep calls; workers hold a
  process-local analysis cache and ship the entries they compute back
  to the parent store) and deterministically merges results, per-worker
  metrics and trace spans back into case-declaration order
  (``--jobs N`` / ``$REPRO_JOBS``, one chunk per worker);
* :class:`AnalysisCache` — a persistent, content-addressed store (JSON
  records keyed by SHA-256 over canonical region IR + machine-model
  fingerprint + package version) that memoizes compile/IPDA/MCA
  analysis across processes and across runs (``$REPRO_CACHE_DIR``).

Both are off by default: without an activated cache and with
``jobs <= 1`` every code path is bit-identical to the pre-engine build.
See docs/PERFORMANCE.md.
"""

from .cache import (
    CACHE_DIR_ENV,
    NULL_CACHE,
    AnalysisCache,
    NullCache,
    compute_key,
    current_cache,
    default_cache_dir,
    machine_fingerprint,
    region_cache_key,
)
from .chunks import partition_chunks
from .engine import (
    JOBS_ENV,
    ChunkFailure,
    ObsTaskResult,
    SweepEngine,
    SweepObsResult,
    merge_tracer_payloads,
    register_prefork_warmup,
    resolve_jobs,
    shutdown_pools,
    tracer_payload,
)

__all__ = [
    "AnalysisCache",
    "CACHE_DIR_ENV",
    "ChunkFailure",
    "JOBS_ENV",
    "NULL_CACHE",
    "NullCache",
    "ObsTaskResult",
    "SweepEngine",
    "SweepObsResult",
    "compute_key",
    "current_cache",
    "default_cache_dir",
    "machine_fingerprint",
    "merge_tracer_payloads",
    "partition_chunks",
    "region_cache_key",
    "register_prefork_warmup",
    "resolve_jobs",
    "shutdown_pools",
    "tracer_payload",
]
