"""Property tests for the chunk partitioner and entry-merge idempotence.

The partition is the load-bearing pure function of the warm-worker
engine: the declaration-ordered merge, the slot-affinity mapping and the
differential guarantees all assume that ``partition_chunks`` covers
every case index exactly once, in order, for *any* ``(n_items, jobs)``
— including degenerate shapes (``jobs > n_items``, empty grids) a
hand-written example table would miss.  The hypothesis runs are
derandomized so CI failures replay exactly.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.parallel import AnalysisCache, partition_chunks

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)

n_items_st = st.integers(min_value=0, max_value=500)
jobs_st = st.integers(min_value=1, max_value=64)


class TestPartitionChunks:
    @SETTINGS
    @given(n=n_items_st, jobs=jobs_st)
    def test_every_index_exactly_once_in_order(self, n, jobs):
        chunks = partition_chunks(n, jobs)
        flat = [i for c in chunks for i in c]
        assert flat == list(range(n))

    @SETTINGS
    @given(n=n_items_st, jobs=jobs_st)
    def test_no_chunk_is_empty(self, n, jobs):
        assert all(len(c) > 0 for c in partition_chunks(n, jobs))

    @SETTINGS
    @given(jobs=jobs_st)
    def test_empty_grid_partitions_to_nothing(self, jobs):
        assert partition_chunks(0, jobs) == []

    @SETTINGS
    @given(n=st.integers(min_value=1, max_value=500), jobs=jobs_st)
    def test_auto_size_yields_at_most_jobs_chunks(self, n, jobs):
        chunks = partition_chunks(n, jobs)
        assert len(chunks) <= jobs
        assert all(len(c) <= math.ceil(n / jobs) for c in chunks)

    @SETTINGS
    @given(n=st.integers(min_value=1, max_value=63))
    def test_more_jobs_than_items_gives_singleton_chunks(self, n):
        chunks = partition_chunks(n, jobs=64)
        assert len(chunks) == n
        assert all(len(c) == 1 for c in chunks)

    @SETTINGS
    @given(n=n_items_st, jobs=jobs_st)
    def test_partition_is_deterministic(self, n, jobs):
        assert partition_chunks(n, jobs) == partition_chunks(n, jobs)


# strategy for shipped [key, kind, value] triples with deliberate key
# collisions (small key alphabet) so re-delivery overlap actually occurs
entry_st = st.tuples(
    st.sampled_from([f"k{i}" for i in range(8)]),
    st.sampled_from(["kind.a", "kind.b"]),
    st.one_of(st.integers(-5, 5), st.text(max_size=4), st.none()),
)


class TestMergeIdempotence:
    """Re-delivering shipped cache entries must never change the store."""

    @SETTINGS
    @given(entries=st.lists(entry_st, max_size=16))
    def test_merge_entries_idempotent_under_redelivery(self, entries):
        cache = AnalysisCache(persist=False)
        shipped = [[k, kind, v] for k, kind, v in entries]
        first_added = cache.merge_entries(shipped)
        assert first_added == len({k for k, _, _ in entries})
        snapshot = dict(cache._mem)
        assert cache.merge_entries(shipped) == 0
        assert cache.merge_entries(list(reversed(shipped))) == 0
        assert cache._mem == snapshot

    @SETTINGS
    @given(entries=st.lists(entry_st, max_size=16))
    def test_first_write_wins_on_key_collision(self, entries):
        cache = AnalysisCache(persist=False)
        cache.merge_entries([[k, kind, v] for k, kind, v in entries])
        firsts = {}
        for k, _, v in entries:
            firsts.setdefault(k, v)
        assert dict(cache._mem) == firsts

    @SETTINGS
    @given(entries=st.lists(entry_st, max_size=16))
    def test_merged_entries_are_never_reexported(self, entries):
        # shipping must not loop: what a worker *merged* is excluded from
        # what it ships back (only locally computed entries journal)
        cache = AnalysisCache(persist=False)
        cache.merge_entries([[k, kind, v] for k, kind, v in entries])
        assert cache.journal_size == 0
        assert cache.export_entries() == []
