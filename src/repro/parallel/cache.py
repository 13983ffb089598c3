"""Persistent, content-addressed cache for static-analysis artefacts.

The paper's central economy (Figure 2) is that *static* analysis is done
once and amortized over every later launch; within one process the
experiment harness already memoizes, but every new process — each worker
of the parallel sweep engine, each CLI invocation, each CI job — used to
recompute compile/IPDA/MCA analysis from scratch.  The
:class:`AnalysisCache` closes that gap: JSON records under a cache
directory, addressed by SHA-256 over the *canonical content* of the
computation — canonical region IR text (or machine-op listings), a
machine-model fingerprint, and the package version — so any perturbation
of the kernel, the schedule or the machine model changes the key, while
reformatting or printer/parser round-trips do not.

Design rules (docs/PERFORMANCE.md):

* **stdlib only** — ``json``, ``hashlib``, ``os``; one file per entry,
  written atomically (temp file + ``os.replace``) so concurrent worker
  processes never observe torn entries;
* **corruption is a miss, never a wrong answer** — unreadable, truncated
  or schema-mismatched entries are counted as invalidations, recomputed
  and overwritten;
* **off by default** — library code reaches the cache through
  :func:`current_cache`, which hands back the disabled
  :data:`NULL_CACHE` unless an :class:`AnalysisCache` was activated, so
  the zero-cache path stays bit-identical to an uncached build;
* hit/miss/invalidation counters mirror into a
  :class:`~repro.obs.MetricsRegistry` when one is attached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Mapping

from .. import __version__
from ..obs import METRICS

__all__ = [
    "AnalysisCache",
    "NULL_CACHE",
    "NullCache",
    "current_cache",
    "default_cache_dir",
    "machine_fingerprint",
    "region_cache_key",
]

#: Environment variable naming the cache directory for CLI/benchmark runs.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bumped when an entry's value encoding changes shape incompatibly.
_SCHEMA = 1

_MISS = object()


def default_cache_dir() -> str:
    """Resolve the cache directory: ``$REPRO_CACHE_DIR`` or a user cache."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro-paper")


def _canonical(obj: Any) -> Any:
    """Recursively reduce a value to a deterministic JSON-able structure.

    Dataclasses become ``[class-name, [field, value]...]`` in declared
    field order; mappings sort by key; sets sort by repr; tuples become
    lists.  Anything else must already be JSON-representable (or have a
    deterministic repr, used as a last resort).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                [f.name, _canonical(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, Mapping):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(v) for v in obj)
    return repr(obj)


def machine_fingerprint(machine: Any) -> str:
    """Deterministic fingerprint of a machine descriptor (or any config).

    Any field change — a latency, a port count, a bandwidth — produces a
    different fingerprint, so cached analysis can never be replayed
    against a perturbed machine model.
    """
    if machine is None:
        return ""
    return json.dumps(_canonical(machine), sort_keys=True, separators=(",", ":"))


def compute_key(kind: str, payload: Any, machine: Any = None) -> str:
    """SHA-256 content address over (kind, payload, machine, version)."""
    doc = json.dumps(
        {
            "kind": kind,
            "payload": _canonical(payload),
            "machine": machine_fingerprint(machine),
            "version": __version__,
            "schema": _SCHEMA,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def region_cache_key(region, machine: Any = None, *, kind: str = "region") -> str:
    """Cache key of a region's canonical IR text (plus optional machine).

    The canonical form is :func:`repro.ir.region_to_text`, so any region
    that prints identically — in particular a printer→parser round-trip
    of itself — shares the key, while any node/schedule mutation that
    changes the text changes it.
    """
    from ..ir import region_to_text

    return compute_key(kind, region_to_text(region), machine)


class AnalysisCache:
    """Content-addressed JSON store shared across processes and runs.

    With ``persist=False`` the store never touches disk: entries live in
    the in-memory layer only.  That is the warm-worker configuration —
    each pool worker of the sweep engine holds a memory-only cache for
    its process lifetime and ships new entries back to the parent (see
    :meth:`export_entries` / :meth:`merge_entries`), so analysis done in
    one worker warms every other without any cache directory being
    configured.
    """

    enabled = True

    def __init__(
        self,
        cache_dir: str | None = None,
        *,
        metrics=None,
        persist: bool = True,
    ):
        self.cache_dir = cache_dir or default_cache_dir()
        self.persist = persist
        self._mem: dict[str, Any] = {}
        self._journal: list[tuple[str, str, Any]] = []
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.writes = 0
        self._metrics = metrics

    _COUNTER_FIELD = {
        "hit": "hits",
        "miss": "misses",
        "invalidation": "invalidations",
    }

    def _count(self, outcome: str, kind: str) -> None:
        field = self._COUNTER_FIELD[outcome]
        setattr(self, field, getattr(self, field) + 1)
        if self._metrics is not None:
            self._metrics.family(METRICS["analysis_cache_total"]).labels(
                kind, outcome
            ).inc()

    # -- storage ---------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    def _read(self, key: str, kind: str) -> Any:
        """The stored value, ``_MISS`` when absent, invalid or corrupt."""
        if key in self._mem:
            return self._mem[key]
        if not self.persist:
            return _MISS
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return _MISS
        except (OSError, ValueError, UnicodeDecodeError):
            self._count("invalidation", kind)
            return _MISS
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or entry.get("version") != __version__
            or entry.get("schema") != _SCHEMA
            or "value" not in entry
        ):
            self._count("invalidation", kind)
            return _MISS
        value = entry["value"]
        self._mem[key] = value
        return value

    def _write(self, key: str, kind: str, value: Any) -> None:
        self._mem[key] = value
        self._journal.append((key, kind, value))
        if not self.persist:
            self.writes += 1
            return
        path = self._path(key)
        entry = {
            "key": key,
            "kind": kind,
            "version": __version__,
            "schema": _SCHEMA,
            "value": value,
        }
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
            self.writes += 1
        except OSError:  # a read-only cache dir degrades to memory-only
            pass

    # -- public API ------------------------------------------------------
    def get_or_compute(
        self,
        kind: str,
        payload: Any,
        machine: Any,
        compute: Callable[[], Any],
        *,
        validate: Callable[[Any], bool] | None = None,
    ) -> Any:
        """The cached value for (kind, payload, machine), computing on miss.

        ``validate`` guards rehydration: a stored value it rejects is an
        invalidation (recomputed, overwritten), never a wrong answer.
        """
        key = compute_key(kind, payload, machine)
        value = self._read(key, kind)
        if value is not _MISS and (validate is None or validate(value)):
            self._count("hit", kind)
            return value
        if value is not _MISS:  # present but rejected by the validator
            self._count("invalidation", kind)
            self._mem.pop(key, None)
        self._count("miss", kind)
        value = compute()
        self._write(key, kind, value)
        return value

    # -- entry shipping (warm-worker transport) --------------------------
    @property
    def journal_size(self) -> int:
        """Entries computed *by this process* since construction/clear."""
        return len(self._journal)

    def export_entries(self, since: int = 0) -> list[list]:
        """Locally-computed entries past a previous :attr:`journal_size`.

        The returned ``[key, kind, value]`` triples are the pool-worker →
        parent shipping payload.  Only *computed* entries appear — values
        delivered through :meth:`merge_entries` are never re-exported, so
        parent↔worker shipping can never loop or amplify.
        """
        return [[key, kind, value] for key, kind, value in self._journal[since:]]

    def merge_entries(self, entries) -> int:
        """Absorb shipped ``[key, kind, value]`` triples into memory.

        Idempotent under re-delivery: a key already present (computed
        locally or merged earlier) is left untouched, so delivering the
        same batch twice — or two batches that overlap — adds nothing
        the second time.  Merged entries go to the in-memory layer only;
        the process that *computed* an entry is the one that persists it.
        Returns the number of keys that were actually new.
        """
        added = 0
        for key, kind, value in entries:
            if key not in self._mem:
                self._mem[key] = value
                added += 1
        return added

    def entry_count(self) -> int:
        """Number of entry files currently on disk."""
        if not self.persist:
            return len(self._mem)
        count = 0
        try:
            shards = os.listdir(self.cache_dir)
        except OSError:
            return 0
        for shard in shards:
            sub = os.path.join(self.cache_dir, shard)
            if os.path.isdir(sub):
                count += sum(1 for f in os.listdir(sub) if f.endswith(".json"))
        return count

    def clear(self) -> None:
        """Delete every entry and reset the in-memory layer and counters."""
        self._mem.clear()
        self._journal.clear()
        self.hits = self.misses = self.invalidations = self.writes = 0
        if not self.persist:
            return
        try:
            shards = os.listdir(self.cache_dir)
        except OSError:
            return
        for shard in shards:
            sub = os.path.join(self.cache_dir, shard)
            if not os.path.isdir(sub):
                continue
            for name in os.listdir(sub):
                if name.endswith((".json", ".tmp")):
                    try:
                        os.unlink(os.path.join(sub, name))
                    except OSError:
                        pass
            try:
                os.rmdir(sub)
            except OSError:
                pass

    def stats(self) -> dict:
        """Deterministic counters + layout snapshot (the CLI's payload)."""
        return {
            "cache_dir": self.cache_dir,
            "entries": self.entry_count(),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "writes": self.writes,
            "version": __version__,
        }

    def activate(self) -> "_Activation":
        """Make this the :func:`current_cache` for a ``with`` block."""
        return _Activation(self)


class NullCache:
    """Disabled cache: every lookup computes; nothing is stored."""

    enabled = False
    cache_dir = None
    persist = False
    hits = misses = invalidations = writes = 0
    journal_size = 0

    def get_or_compute(self, kind, payload, machine, compute, *, validate=None):
        return compute()

    def export_entries(self, since: int = 0) -> list[list]:
        return []

    def merge_entries(self, entries) -> int:
        return 0

    def entry_count(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def stats(self) -> dict:
        return {
            "cache_dir": None,
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "writes": 0,
            "version": __version__,
        }

    def activate(self) -> "_Activation":
        return _Activation(self)


NULL_CACHE = NullCache()

_ACTIVE: "AnalysisCache | NullCache" = NULL_CACHE


def current_cache() -> "AnalysisCache | NullCache":
    """The cache instrumented analysis code should consult."""
    return _ACTIVE


class _Activation:
    """``with cache.activate():`` — push/pop the module-level cache."""

    __slots__ = ("_cache", "_prev")

    def __init__(self, cache):
        self._cache = cache
        self._prev = None

    def __enter__(self):
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self._cache
        return self._cache

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._prev
        return False
