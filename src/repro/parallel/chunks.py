"""Chunk partitioning for the warm-worker sweep engine.

A sweep of *n* cases over *j* workers is shipped as **contiguous chunks
of case indices**, not one future per case: per-future IPC round-trips
dominated the old engine at suite granularity (`BENCH_parallel.json`
before the rebuild: jobs4 = 0.38×).  Each worker gets one chunk of
``ceil(n_items / jobs)`` cases, the minimum possible IPC.  The partition
is a pure function of ``(n_items, jobs)`` — the same grid always chunks
the same way, which both keeps the declaration-ordered merge trivial
(chunks are concatenated in order) and gives measure→predict phases of
the same grid a stable case→chunk mapping.

Invariants (property-tested in ``tests/test_parallel_chunks.py``):

* every index in ``range(n_items)`` appears in exactly one chunk;
* concatenating the chunks in order yields ``range(n_items)`` exactly —
  declaration order survives any ``(n_items, jobs)``, including
  ``jobs > n_items``;
* no chunk is empty, and there are at most ``jobs`` of them;
  ``n_items == 0`` partitions to no chunks at all.
"""

from __future__ import annotations

import math

__all__ = ["partition_chunks"]


def partition_chunks(n_items: int, jobs: int) -> list[range]:
    """Partition ``range(n_items)`` into declaration-ordered index chunks.

    Returns at most ``jobs`` non-empty ``range`` objects whose
    concatenation is exactly ``range(n_items)``.
    """
    if n_items <= 0:
        return []
    size = math.ceil(n_items / max(1, jobs))
    return [
        range(start, min(start + size, n_items))
        for start in range(0, n_items, size)
    ]
