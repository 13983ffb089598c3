"""Worker-failure semantics of the warm persistent-worker engine.

The engine's failure contract is *loud, never lossy*: a deterministic
task exception aborts the sweep with a :class:`ChunkFailure` naming the
offending case; a worker-process death restarts the pool once and
resubmits every unfinished chunk to fresh workers; a second death fails
the sweep naming every case that never completed.  Rows are never
silently dropped.

The crash tasks kill the worker with ``os._exit`` (bypassing Python
teardown, like an OOM-kill would); crash-once coordination goes through
a flag file because the replacement worker is a different process.
"""

import os
from pathlib import Path

import pytest

from repro.parallel import ChunkFailure, SweepEngine, shutdown_pools
from repro.parallel.engine import _POOLS


@pytest.fixture(autouse=True)
def _fresh_pools():
    shutdown_pools()
    yield
    shutdown_pools()


# ---------------------------------------------------------------------------
# Module-level worker tasks (pool tasks must pickle by qualified name)
# ---------------------------------------------------------------------------


def _poison(task):
    _, index = task
    if index == 3:
        raise ValueError("poisoned case payload")
    return index


def _crash_always(task):
    _, index = task
    if index == 2:
        os._exit(17)
    return index


def _crash_once(task):
    flag_dir, index = task
    if index == 2:
        flag = Path(flag_dir, "crashed-once")
        if not flag.exists():
            flag.write_text("crashed")
            os._exit(17)
    return index


def _items(tmp_path, n=6):
    return [(str(tmp_path), i) for i in range(n)]


def _labels(n=6):
    return [f"case-{i}" for i in range(n)]


class TestPoisonedChunk:
    def test_task_exception_names_the_case(self, tmp_path):
        with pytest.raises(ChunkFailure) as err:
            SweepEngine(3).map(
                _poison, _items(tmp_path), labels=_labels()
            )
        assert err.value.cases == ("case-3",)
        assert "case-3" in str(err.value)
        assert "ValueError" in str(err.value)

    def test_sequential_engine_raises_the_original(self, tmp_path):
        # jobs=1 runs in-process: the task exception propagates unwrapped
        with pytest.raises(ValueError, match="poisoned case payload"):
            SweepEngine(1).map(_poison, _items(tmp_path), labels=_labels())


class TestCrashedWorker:
    def test_persistent_crash_fails_naming_unfinished_cases(self, tmp_path):
        # the chunk holding index 2 dies on the original pool AND on the
        # restarted one; the failure names exactly that chunk's cases
        with pytest.raises(ChunkFailure) as err:
            SweepEngine(3).map(
                _crash_always, _items(tmp_path), labels=_labels()
            )
        assert err.value.cases == ("case-2", "case-3")
        assert "case-2" in str(err.value)

    def test_crash_once_is_resubmitted_to_completion(self, tmp_path):
        engine = SweepEngine(3)
        values = engine.map(_crash_once, _items(tmp_path), labels=_labels())
        assert values == list(range(6))  # no row lost to the dead worker
        assert _POOLS[(3, None)].restarts == 1
